"""Simulator and analysis toolkit for differential critical-field
measurements of Casimir-energy variation in superconducting cavities."""

__version__ = "0.1.0"

from .physics import (  # noqa: F401
    CavityParams,
    FilmParams,
    ThermalEnvironment,
    cavity_energy_ratio,
    cavity_shift,
    critical_field,
    delta_t_cavity,
    delta_t_of_field,
    resistance_curve,
    thermal_enhancement,
    thermal_enhancement_approx,
)
from .simulate import (  # noqa: F401
    CampaignConfig,
    NoiseModel,
    SweepTrace,
    TripletRecord,
    generate_sweep,
    run_campaign,
    run_triplet,
)
from .analysis import (  # noqa: F401
    DifferentialSignal,
    FitResult,
    ShiftEstimate,
    default_levels,
    differential_signal,
    drift_corrected_shift,
    estimate_sensitivity,
    estimate_shift,
    extract_tc0,
    fit_parabola,
    invert_trace,
)
from .pipeline import AnalysisResult, analyze_campaign  # noqa: F401
