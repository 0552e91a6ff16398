"""Campaign-level analysis: ties the per-trace estimators into one report.

Takes the full set of triplets from a campaign, extracts each sample's
Tc0 from its own zero-field sweeps, forms drift-corrected shift estimates,
estimates the sensitivity from repeats, fits the film parabola on
high-field points and evaluates the film-cavity differential signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    DifferentialSignal,
    FitResult,
    ShiftEstimate,
    differential_signal,
    drift_corrected_shift,
    estimate_sensitivity,
    extract_tc0,
    fit_parabola,
)
from .errors import InsufficientData

# Fallback single-estimate scatter when a campaign has too few repeats to
# measure its own sensitivity.
FALLBACK_SENSITIVITY_UK = 6.0

# Fields qualify as "high-field" for the parabola fit once the bare-film
# shift exceeds this multiple of the sensitivity, i.e. well clear of the
# region where the cavity deviation lives.
HIGH_FIELD_SENSITIVITY_MULTIPLE = 10.0


@dataclass
class AnalysisResult:
    tc0_K: dict  # sample_id -> Tc0
    estimates: list  # ShiftEstimate, film and cavity
    film_fit: FitResult
    differential: DifferentialSignal
    sensitivity_uK: float | None
    field_threshold_mT: float

    def film_estimates(self):
        return [e for e in self.estimates if e.kind == "film"]

    def cavity_estimates(self):
        return [e for e in self.estimates if e.kind == "cavity"]


def sample_tc0(triplets, sample_id: str, rn_ohm: float) -> float:
    """Tc0 of one sample from its zero-field sweeps, corrected for drift.

    The apparent zero-field transition temperature rises linearly with
    campaign time under thermometer drift, so the derivative-maximum
    temperatures are regressed against each sweep's mid-time and the
    intercept at the campaign start is reported. With fewer than three
    zero-field sweeps (or no time spread) the plain mean is used.
    """
    values, times = [], []
    for trip in triplets:
        if trip.sample_id != sample_id:
            continue
        for sweep in (trip.pre, trip.post):
            values.append(extract_tc0(sweep, rn_ohm))
            times.append(sweep.t_start_s + 0.5 * float(sweep.tau_s[-1]))
    if not values:
        raise InsufficientData(f"no zero-field sweeps for sample {sample_id!r}")
    values = np.asarray(values)
    times = np.asarray(times)
    if len(values) >= 3 and np.ptp(times) > 0:
        _, intercept = np.polyfit(times, values, 1)
        return float(intercept)
    return float(np.mean(values))


def campaign_sensitivity(estimates, tc0_K: float):
    """Sensitivity from the most-replicated nonzero field, or None."""
    by_field = {}
    for e in estimates:
        if e.field_mT != 0:
            by_field.setdefault(e.field_mT, []).append(e)
    if not by_field:
        return None
    best = max(by_field.values(), key=len)
    if len(best) < 3:
        return None
    return estimate_sensitivity(best, tc0_K)


def auto_field_threshold(estimates, tc0_K: float, sensitivity_uK: float) -> float:
    """High-field threshold from a preliminary all-field quadratic fit.

    Solves a_prelim * H^2 * Tc0 = HIGH_FIELD_SENSITIVITY_MULTIPLE * sensitivity
    for H, then lowers the threshold if needed so that at least three
    distinct fields remain above it.
    """
    prelim = fit_parabola(estimates, field_threshold_mT=0.0, include_linear=False)
    target_dt = HIGH_FIELD_SENSITIVITY_MULTIPLE * sensitivity_uK * 1e-6 / tc0_K
    if prelim.a > 0:
        thr = float(np.sqrt(target_dt / prelim.a))
    else:
        thr = 0.0
    mags = sorted({abs(e.field_mT) for e in estimates}, reverse=True)
    if len(mags) >= 3:
        thr = min(thr, mags[2])
    else:
        thr = 0.0
    return thr


def analyze_campaign(
    triplets,
    rn_ohm: float,
    fit_threshold_mT: float | None = None,
    include_linear: bool = False,
) -> AnalysisResult:
    """Run the full estimation pipeline on a campaign's triplets."""
    sample_ids = sorted({t.sample_id for t in triplets})
    tc0 = {sid: sample_tc0(triplets, sid, rn_ohm) for sid in sample_ids}

    estimates = [drift_corrected_shift(t, tc0[t.sample_id], rn_ohm) for t in triplets]

    film_est = [e for e in estimates if e.kind == "film"]
    cav_est = [e for e in estimates if e.kind == "cavity"]
    if not film_est or not cav_est:
        raise InsufficientData("campaign must contain both film and cavity triplets")
    film_tc0 = tc0[film_est[0].sample_id]

    sensitivity = campaign_sensitivity(film_est, film_tc0)
    if fit_threshold_mT is None:
        sens = sensitivity if sensitivity else FALLBACK_SENSITIVITY_UK
        fit_threshold_mT = auto_field_threshold(film_est, film_tc0, sens)

    film_fit = fit_parabola(film_est, fit_threshold_mT, include_linear)
    diff = differential_signal(film_fit, cav_est, film_tc0)

    return AnalysisResult(
        tc0_K=tc0,
        estimates=estimates,
        film_fit=film_fit,
        differential=diff,
        sensitivity_uK=sensitivity,
        field_threshold_mT=fit_threshold_mT,
    )
