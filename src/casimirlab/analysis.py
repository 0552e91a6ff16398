"""Inverse pipeline: from measured sweeps back to the temperature-shift signal.

Implements Tc0 extraction (maximum of dR/dT), monotone trace inversion,
the averaged-difference shift estimator over the 0.2-0.8 R/RN window,
triplet drift correction, the high-field parabola fit, the film-cavity
differential signal and the repeat-based sensitivity estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteTransition,
    InsufficientData,
    NonMonotonic,
    SingularFit,
)
from .simulate import SweepTrace, TripletRecord

# Fraction of the normal-state resistance bounding the averaging window.
WINDOW_LO = 0.2
WINDOW_HI = 0.8

DEFAULT_N_LEVELS = 50

# Adjacent resistance levels reuse the same noisy points, so the per-level
# differences are correlated; the effective sample size is reduced by this
# factor (a documented heuristic, checked against Monte Carlo scatter).
LEVEL_CORRELATION_FACTOR = 10.0

# A point whose monotonized resistance moved by more than this fraction of
# RN is counted as discarded by the monotonization.
DISCARD_TOLERANCE = 0.05
DISCARD_LIMIT = 0.30


@dataclass(frozen=True)
class ShiftEstimate:
    """Per-field reduced shift delta_t with its standard error."""

    field_mT: float
    delta_t: float
    sigma_delta_t: float
    n_levels: int
    sample_id: str
    kind: str = "film"
    replication: int = 0

    def __post_init__(self):
        if self.sigma_delta_t < 0:
            raise ValueError("shift uncertainty must be non-negative")
        if self.n_levels < 10:
            raise ValueError("need at least 10 resistance levels")

    def shift_uK(self, tc0_K: float) -> float:
        return self.delta_t * tc0_K * 1e6

    def sigma_uK(self, tc0_K: float) -> float:
        return self.sigma_delta_t * tc0_K * 1e6


@dataclass(frozen=True)
class FitResult:
    """Coefficients of delta_t = a*H^2 (+ b*H) with covariance and diagnostics."""

    a: float  # delta_t per mT^2
    b: float  # delta_t per mT (tilt term; 0 when not fitted)
    covariance: np.ndarray  # 2x2, ordered (a, b)
    rms_residual: float
    n_points: int
    field_threshold_mT: float
    include_linear: bool = False

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (1.0 + abs(cov[0, 1])):
            raise ValueError("covariance must be symmetric")

    def predict(self, h_mT):
        h = np.asarray(h_mT, dtype=float)
        return self.a * h * h + self.b * h

    def predict_var(self, h_mT):
        h = np.asarray(h_mT, dtype=float)
        c = self.covariance
        return c[0, 0] * h**4 + 2.0 * c[0, 1] * h**3 + c[1, 1] * h**2


@dataclass(frozen=True)
class DifferentialSignal:
    """Film-fit minus cavity-data gap on a field grid, in uK."""

    field_mT: np.ndarray
    gap_uK: np.ndarray
    sigma_uK: np.ndarray
    max_gap_uK: float
    field_at_max_mT: float
    sigma_at_max_uK: float

    @property
    def significance(self) -> float:
        if self.sigma_at_max_uK == 0:
            return float("inf") if self.max_gap_uK > 0 else 0.0
        return self.max_gap_uK / self.sigma_at_max_uK


def pav_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit: closest non-decreasing sequence to y.

    Unweighted L2 projection. Adjacent violating blocks always end in the
    same pool (Best & Chakravarti, Math. Prog. 47, 1990), so each pass
    merges every maximal run of decreasing block means at once; passes
    repeat until no adjacent pair violates.
    """
    sums = np.asarray(y, dtype=float)
    counts = np.ones(len(sums))
    while True:
        means = sums / counts
        drop = means[:-1] > means[1:]
        if not drop.any():
            return np.repeat(means, counts.astype(int))
        labels = np.cumsum(np.concatenate(([False], ~drop)))
        sums = np.bincount(labels, weights=sums)
        counts = np.bincount(labels, weights=counts)


def _quadratic_fit(x, y):
    """Least-squares (c0, c1, c2) of y = c0 + c1*x + c2*x**2 along the last axis.

    Solves the 3x3 normal equations in closed form (Cramer's rule, through
    the cofactors of the symmetric moment matrix). x should be centred near
    0, which keeps the equations well conditioned; c1 is then the slope at
    x = 0.
    """
    x2 = x * x
    s0 = x.shape[-1]
    s1, s2, s3, s4 = x.sum(-1), x2.sum(-1), (x2 * x).sum(-1), (x2 * x2).sum(-1)
    b0, b1, b2 = y.sum(-1), (y * x).sum(-1), (y * x2).sum(-1)
    m00 = s2 * s4 - s3 * s3
    m01 = s2 * s3 - s1 * s4
    m02 = s1 * s3 - s2 * s2
    m11 = s0 * s4 - s2 * s2
    m12 = s1 * s2 - s0 * s3
    m22 = s0 * s2 - s1 * s1
    det = s0 * m00 + s1 * m01 + s2 * m02
    return (
        (m00 * b0 + m01 * b1 + m02 * b2) / det,
        (m01 * b0 + m11 * b1 + m12 * b2) / det,
        (m02 * b0 + m12 * b1 + m22 * b2) / det,
    )


def extract_tc0(trace: SweepTrace, rn_ohm: float, window_frac: float = 0.05) -> float:
    """Transition temperature: the T maximizing dR/dT.

    The derivative is estimated by local quadratic regression over a sliding
    window of `window_frac` of the trace length, centered on each candidate
    point (only points with R in (0.05, 0.95)*RN are candidates). For the
    noiseless logistic model this returns Tc(H) within grid resolution.
    """
    r = np.asarray(trace.r_meas_ohm, dtype=float)
    t = np.asarray(trace.t_meas_K, dtype=float)
    rn = float(rn_ohm)
    if np.min(r) > 0.1 * rn or np.max(r) < 0.9 * rn:
        raise IncompleteTransition(
            f"sweep {trace.sample_id} at {trace.field_mT} mT does not span the transition"
        )
    order = np.argsort(t, kind="stable")
    t, r = t[order], r[order]
    n = len(t)
    w = max(5, int(round(window_frac * n)) | 1)
    half = w // 2

    cand = np.nonzero((r > 0.05 * rn) & (r < 0.95 * rn))[0]
    cand = cand[(cand >= half) & (cand < n - half)]
    if cand.size == 0:
        cand = np.arange(half, n - half)
    # a quadratic needs 3 distinct temperatures in each window
    rises = np.concatenate(([0], np.cumsum(np.diff(t) > 0)))
    if np.any(rises[cand + half] - rises[cand - half] < 2):
        raise SingularFit(
            f"sweep {trace.sample_id} at {trace.field_mT} mT has a Tc0 window "
            "with fewer than 3 distinct temperatures"
        )

    windows_t = np.lib.stride_tricks.sliding_window_view(t, w)[cand - half]
    windows_r = np.lib.stride_tricks.sliding_window_view(r, w)[cand - half]
    # center each window on its candidate T so the linear coefficient is the
    # derivative there and the fit is exactly translation-equivariant
    _, deriv, _ = _quadratic_fit(windows_t - t[cand, None], windows_r)

    peak = int(np.argmax(deriv))
    # refine the grid argmax by a parabola through the derivative curve
    # around the peak; fall back to the grid point at the candidate edges
    lo, hi = max(0, peak - half), min(len(cand), peak + half + 1)
    if hi - lo >= 3:
        x = t[cand[lo:hi]] - t[cand[peak]]
        _, c1, c2 = _quadratic_fit(x, deriv[lo:hi])
        if c2 < 0:
            vertex = -c1 / (2.0 * c2)
            span = x.max() - x.min()
            if abs(vertex) <= 0.5 * span:
                return float(t[cand[peak]] + vertex)
    return float(t[cand[peak]])


def _monotone_knots(trace: SweepTrace, rn_ohm: float):
    """Sorted, monotonized (R, T) knots for inversion.

    Points are sorted by measured temperature, the resistances are pooled
    into non-decreasing form and each pool contributes one knot at its
    common R value and mean T.
    """
    t = np.asarray(trace.t_meas_K, dtype=float)
    r = np.asarray(trace.r_meas_ohm, dtype=float)
    order = np.argsort(t, kind="stable")
    t, r = t[order], r[order]
    r_fit = pav_increasing(r)

    discarded = np.mean(np.abs(r_fit - r) > DISCARD_TOLERANCE * rn_ohm)
    if discarded > DISCARD_LIMIT:
        raise NonMonotonic(
            f"monotonization displaced {discarded:.0%} of points "
            f"in sweep {trace.sample_id} at {trace.field_mT} mT"
        )

    # one knot per pool: (pool R, mean T of the pool)
    boundaries = np.concatenate(([0], np.nonzero(np.diff(r_fit) > 0)[0] + 1, [len(r_fit)]))
    knot_r = r_fit[boundaries[:-1]]
    sums = np.concatenate(([0.0], np.cumsum(t)))
    knot_t = (sums[boundaries[1:]] - sums[boundaries[:-1]]) / np.diff(boundaries)
    return knot_r, knot_t


def invert_trace(trace: SweepTrace, r_levels, rn_ohm: float):
    """T(R) at the given resistance levels, by monotone inversion.

    Returns (levels, temperatures) arrays. Levels must lie inside the
    (0.2, 0.8)*RN averaging window.
    """
    levels = np.asarray(r_levels, dtype=float)
    if np.any(levels <= WINDOW_LO * rn_ohm) or np.any(levels >= WINDOW_HI * rn_ohm):
        raise ValueError("resistance levels must lie inside the (0.2, 0.8)*RN window")
    knot_r, knot_t = _monotone_knots(trace, rn_ohm)
    return levels, np.interp(levels, knot_r, knot_t)


def default_levels(rn_ohm: float, n_levels: int = DEFAULT_N_LEVELS) -> np.ndarray:
    """Even grid of resistance levels strictly inside (0.2, 0.8)*RN."""
    frac = WINDOW_LO + (WINDOW_HI - WINDOW_LO) * (np.arange(n_levels) + 0.5) / n_levels
    return frac * rn_ohm


def estimate_shift(
    zero: SweepTrace,
    field: SweepTrace,
    tc0_K: float,
    rn_ohm: float,
    n_levels: int = DEFAULT_N_LEVELS,
) -> ShiftEstimate:
    """Averaged-difference estimator: delta_t = mean_R [T(R,0) - T(R,H)] / Tc0.

    The average runs over an even grid of n_levels resistance values across
    the (0.2, 0.8)*RN window. The standard error divides the per-level
    scatter by sqrt(n_levels / LEVEL_CORRELATION_FACTOR) to account for the
    correlation between adjacent levels.
    """
    levels = default_levels(rn_ohm, n_levels)
    _, t_zero = invert_trace(zero, levels, rn_ohm)
    _, t_field = invert_trace(field, levels, rn_ohm)
    diffs = t_zero - t_field
    delta_t = float(np.mean(diffs)) / tc0_K
    n_eff = max(1.0, n_levels / LEVEL_CORRELATION_FACTOR)
    sigma = float(np.std(diffs, ddof=1)) / np.sqrt(n_eff) / tc0_K
    return ShiftEstimate(
        field_mT=field.field_mT,
        delta_t=delta_t,
        sigma_delta_t=sigma,
        n_levels=n_levels,
        sample_id=field.sample_id,
        kind=field.kind,
    )


def drift_corrected_shift(
    triplet: TripletRecord,
    tc0_K: float,
    rn_ohm: float,
    n_levels: int = DEFAULT_N_LEVELS,
) -> ShiftEstimate:
    """Mean of the pre-vs-mid and post-vs-mid estimates.

    For drift linear in time and a symmetric triplet schedule the two
    one-sided biases are equal and opposite, so the mean is exactly
    drift-free; uncertainties combine in quadrature.
    """
    before = estimate_shift(triplet.pre, triplet.mid, tc0_K, rn_ohm, n_levels)
    after = estimate_shift(triplet.post, triplet.mid, tc0_K, rn_ohm, n_levels)
    delta_t = 0.5 * (before.delta_t + after.delta_t)
    sigma = 0.5 * np.hypot(before.sigma_delta_t, after.sigma_delta_t)
    return ShiftEstimate(
        field_mT=triplet.field_mT,
        delta_t=delta_t,
        sigma_delta_t=float(sigma),
        n_levels=n_levels,
        sample_id=triplet.sample_id,
        kind=triplet.kind,
        replication=triplet.replication,
    )


def _weights(sigma):
    """Inverse-variance weights; uniform when every sigma vanishes (noiseless data).

    Sigmas are floored at 1e-3 of the smallest nonzero one, so that one
    exact estimate cannot take all the weight.
    """
    if not np.any(sigma):
        return np.ones_like(sigma)
    floor = 1e-3 * np.min(sigma[sigma > 0])
    return 1.0 / np.maximum(sigma, floor) ** 2


def fit_parabola(
    estimates,
    field_threshold_mT: float,
    include_linear: bool = False,
) -> FitResult:
    """Weighted least squares of delta_t = a*H^2 (+ b*H) on high-field points.

    Only estimates with |field| >= field_threshold_mT enter; weights are
    1/sigma^2 (uniform when all sigmas vanish, as for noiseless data).
    """
    sel = [e for e in estimates if abs(e.field_mT) >= field_threshold_mT]
    if len(sel) < 3:
        raise InsufficientData(
            f"parabola fit needs >= 3 estimates with |H| >= {field_threshold_mT} mT, "
            f"got {len(sel)}"
        )
    h = np.array([e.field_mT for e in sel])
    y = np.array([e.delta_t for e in sel])
    w = _weights(np.array([e.sigma_delta_t for e in sel]))

    cols = [h * h]
    if include_linear:
        cols.append(h)
    x = np.stack(cols, axis=1)
    xtwx = x.T @ (w[:, None] * x)
    if np.linalg.matrix_rank(xtwx) < x.shape[1]:
        raise SingularFit("design matrix is rank deficient (degenerate field values)")
    xtwy = x.T @ (w * y)
    beta = np.linalg.solve(xtwx, xtwy)
    cov_small = np.linalg.inv(xtwx)

    resid = y - x @ beta
    rms = float(np.sqrt(np.mean(resid**2)))
    cov = np.zeros((2, 2))
    if include_linear:
        a, b = beta
        cov[:, :] = cov_small
    else:
        a, b = beta[0], 0.0
        cov[0, 0] = cov_small[0, 0]
    return FitResult(
        a=float(a),
        b=float(b),
        covariance=cov,
        rms_residual=rms,
        n_points=len(sel),
        field_threshold_mT=field_threshold_mT,
        include_linear=include_linear,
    )


def field_means(field_mT, y, sigma):
    """Inverse-variance weighted mean of y per unique field, sorted by field.

    Returns (fields, means, variances); a field whose sigmas all vanish
    gets the plain mean and variance 0.
    """
    field_mT, y, sigma = np.asarray(field_mT), np.asarray(y), np.asarray(sigma)
    # not np.unique, which imports numpy.ma (about 1.3 MB) on first use
    fields = np.array(sorted(set(field_mT.tolist())))
    means, variances = [], []
    for f in fields:
        sel = field_mT == f
        w = _weights(sigma[sel])
        means.append(np.sum(w * y[sel]) / np.sum(w))
        variances.append(1.0 / np.sum(w) if np.any(sigma[sel]) else 0.0)
    return fields, np.array(means), np.array(variances)


def differential_signal(
    film_fit: FitResult,
    cavity_estimates,
    tc0_K: float,
    n_grid: int = 241,
) -> DifferentialSignal:
    """Gap between the film parabola and the interpolated cavity data, in uK.

    The cavity curve is taken non-parametrically: per-field weighted means,
    linearly interpolated, so the analysis makes no assumption about the
    cavity model. Per-point uncertainty combines the fit covariance with the
    interpolated estimate variance.
    """
    if len(cavity_estimates) < 2:
        raise InsufficientData("differential signal needs >= 2 cavity estimates")
    fields, cav_dt, cav_var = field_means(
        [e.field_mT for e in cavity_estimates],
        [e.delta_t for e in cavity_estimates],
        [e.sigma_delta_t for e in cavity_estimates],
    )
    if len(fields) < 2:
        raise InsufficientData("differential signal needs >= 2 distinct fields")
    grid = np.linspace(fields.min(), fields.max(), n_grid)
    dt_cav = np.interp(grid, fields, cav_dt)
    var_cav = np.interp(grid, fields, cav_var)

    scale = tc0_K * 1e6
    gap = (film_fit.predict(grid) - dt_cav) * scale
    sigma = np.sqrt(film_fit.predict_var(grid) + var_cav) * scale
    imax = int(np.argmax(gap))
    return DifferentialSignal(
        field_mT=grid,
        gap_uK=gap,
        sigma_uK=sigma,
        max_gap_uK=float(gap[imax]),
        field_at_max_mT=float(grid[imax]),
        sigma_at_max_uK=float(sigma[imax]),
    )


def estimate_sensitivity(repeats, tc0_K: float) -> float:
    """Scatter (uK) of repeated shift estimates taken under identical conditions."""
    if len(repeats) < 3:
        raise InsufficientData("sensitivity estimate needs >= 3 repeats")
    shifts = np.array([e.delta_t for e in repeats]) * tc0_K * 1e6
    return float(np.std(shifts, ddof=1))
