"""Campaign-level analysis: ties the per-trace estimators into one report.

Takes the full set of triplets from a campaign, extracts each sample's
Tc0 from its own zero-field sweeps and its σ from the scatter of its
zero-field null pairs, forms drift-corrected shift estimates, fits the
film parabola on high-field points and evaluates the film-cavity
differential signal: its gaps, their covariance, the largest z and its
global p-value. Given the campaign's config, it also fits the stated
cavity shift curve to the gaps (the template amplitude). The film's σ is
the campaign's sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    DifferentialSignal,
    FitResult,
    _level_temperatures,
    check_tc0,
    differential_signal,
    drift_corrected_shift,
    extract_tc0,
    fit_parabola,
    template_amplitude,
)
from .errors import InsufficientData
from .physics import cavity_shift

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
    sensitivity_uK: float  # the film's sample_sigma, in uK
    # (A, σ_A, stated shift_max_uK) of the cavity template, in uK; None without a config
    amplitude_uK: tuple | None = None

    def film_estimates(self):
        return [e for e in self.estimates if e.kind == "film"]


def sample_tc0(triplets, sample_id: str, rn_ohm: float) -> float:
    """Tc0 of one sample from its zero-field sweeps, corrected for drift.

    The apparent zero-field transition temperature rises linearly with
    campaign time under thermometer drift, so the per-sweep level means of
    T(R) (`extract_tc0`) are regressed against each sweep's mid-time and the
    intercept at the campaign start is reported. With fewer than three
    zero-field sweeps (or no time spread) the plain mean is used. Each
    sweep's level temperatures stay on it for its triplet's shift.
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


def sample_sigma(triplets, sample_id: str, rn_ohm: float, tc0_K: float) -> float:
    """σ of one triplet's delta_t in one sample: sqrt(3/4 var(u, ddof=1)) / Tc0 over its triplets.

    u = mean_R [T_pre(R) - T_post(R)] of a triplet's zero-field null pair holds no shift, and
    its mean is alike in every triplet (-2 x spacing x drift); with alike noise in the three
    sweeps, Var(mean_R [(T_pre + T_post)/2 - T_mid]) = 3/4 Var(u). So σ assumes that noise is
    alike at every field and over the campaign. Fewer than 3 triplets raise InsufficientData,
    a tc0_K outside (0, inf) DataError.
    """
    check_tc0(tc0_K)
    sweeps = [s for t in triplets if t.sample_id == sample_id for s in (t.pre, t.post)]
    if len(sweeps) < 6:
        raise InsufficientData(f"σ of {sample_id!r} needs >= 3 triplets, got {len(sweeps) // 2}")
    temps = np.array(_level_temperatures(sweeps, rn_ohm))
    u = (temps[0::2] - temps[1::2]).mean(axis=1)
    return float(np.sqrt(0.75 * u.var(ddof=1))) / tc0_K


def auto_field_threshold(estimates, tc0_K: float, sensitivity_uK: float) -> float:
    """High-field threshold from a preliminary all-field quadratic fit.

    Solves a_prelim * H^2 * Tc0 = HIGH_FIELD_SENSITIVITY_MULTIPLE * sensitivity
    for H, then lowers the threshold if needed so that at least three
    distinct fields remain above it.
    """
    prelim = fit_parabola(estimates, field_threshold_mT=0.0, include_linear=False)
    target_dt = HIGH_FIELD_SENSITIVITY_MULTIPLE * sensitivity_uK * 1e-6 / tc0_K
    thr = float(np.sqrt(target_dt / prelim.a)) if prelim.a > 0 else 0.0
    mags = sorted({abs(e.field_mT) for e in estimates}, reverse=True)
    return min(thr, mags[2]) if len(mags) >= 3 else 0.0


def template_shape(config, fields_mT) -> np.ndarray:
    """The config's cavity shift curve per uK of shift_max_uK at each nominal field.

    The cavity sees H·(1 + homogeneity), and a thermal campaign scales the
    shift by its enhancement M.
    """
    unit = replace(config.cavity, shift_max_uK=1.0)
    return np.array([cavity_shift(unit, h * (1.0 + config.homogeneity), config.enhancement)
                     for h in fields_mT])


def analyze_campaign(
    triplets,
    rn_ohm: float,
    fit_threshold_mT: float | None = None,
    include_linear: bool = False,
    config=None,
) -> AnalysisResult:
    """Run the full estimation pipeline on a campaign's triplets.

    The triplets are taken in (sample, field, replication) order, the order
    `load_dataset` returns, so the result does not depend on their order.
    All sweeps are inverted together, in chunks (`analysis.invert_trace`);
    of several faulty sweeps, the first zero-field sweep in that order is
    named, or else the first in-field one. Each estimate carries its sample's
    `sample_sigma`; the film's, in uK, is the sensitivity and sets the auto threshold.
    With the campaign's `config`, the result carries the template amplitude of
    its stated cavity shift curve (`template_shape`, `analysis.template_amplitude`).
    """
    triplets = sorted(triplets, key=lambda t: (t.sample_id, t.field_mT, t.replication))
    sample_ids = sorted({t.sample_id for t in triplets})
    # every sweep inverted in one batch, in the order sample_tc0 and the shifts
    # read them, so a faulty sweep is named as when each is inverted on use
    _level_temperatures([s for t in triplets for s in (t.pre, t.post)]
                        + [t.mid for t in triplets], rn_ohm)
    tc0 = {sid: sample_tc0(triplets, sid, rn_ohm) for sid in sample_ids}
    sigma = {sid: sample_sigma(triplets, sid, rn_ohm, tc0[sid]) for sid in sample_ids}

    estimates = [drift_corrected_shift(t, tc0[t.sample_id], rn_ohm,
                                       sigma_delta_t=sigma[t.sample_id])
                 for t in triplets]

    film_est = [e for e in estimates if e.kind == "film"]
    cav_est = [e for e in estimates if e.kind == "cavity"]
    if not film_est or not cav_est:
        raise InsufficientData("campaign must contain both film and cavity triplets")
    film_tc0 = tc0[film_est[0].sample_id]

    sensitivity = film_est[0].sigma_uK(film_tc0)
    if fit_threshold_mT is None:
        fit_threshold_mT = auto_field_threshold(film_est, film_tc0, sensitivity)

    film_fit = fit_parabola(film_est, fit_threshold_mT, include_linear)
    diff = differential_signal(film_fit, cav_est, film_tc0)
    amplitude = None
    if config is not None:
        amplitude = (*template_amplitude(diff, template_shape(config, diff.field_mT)),
                     config.cavity.shift_max_uK)

    return AnalysisResult(
        tc0_K=tc0,
        estimates=estimates,
        film_fit=film_fit,
        differential=diff,
        sensitivity_uK=sensitivity,
        amplitude_uK=amplitude,
    )
