"""Inverse pipeline: from measured sweeps back to the temperature-shift signal.

Implements monotone trace inversion, batched over the sweeps of a
campaign, Tc0 as the mean of T(R) over the resistance levels, the
averaged-difference shift estimator over the 0.2-0.8 R/RN window, triplet
drift correction, the high-field parabola fit, the film-cavity
differential signal with its gaps' covariance, significance (the largest
z over the fields) and global p-value, the template amplitude of a stated
cavity shift curve and the repeat-based sensitivity estimate. Each
sweep's level temperatures are computed once and kept on the sweep
(`_level_temperatures`); `pipeline.analyze_campaign` fills them for every
sweep in one `invert_trace` call, and the estimators read them.
One triplet cannot measure its own σ: `pipeline.sample_sigma` gives one per
sample, so the fit and the per-field means are unweighted, their variances
scaled by mean(σ²).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    IncompleteTransition,
    InsufficientData,
    NonFiniteResult,
    NonMonotonic,
    SingularFit,
)
from .simulate import SweepTrace, TripletRecord

# Fraction of the normal-state resistance bounding the averaging window.
WINDOW_LO = 0.2
WINDOW_HI = 0.8

DEFAULT_N_LEVELS = 50  # resistance levels of the shift estimate

# A point whose monotonized resistance moved by more than this fraction of
# RN is counted as discarded by the monotonization.
DISCARD_TOLERANCE = 0.05
DISCARD_LIMIT = 0.30

# Sweeps of one length are inverted together in chunks of at most this many
# points: one array of a whole campaign is slower than chunks that stay in cache.
# The trade, measured while invert_trace still stored each chunk's results at once
# (1355 minor page faults per null-scan analyze_campaign; see invert_trace): one
# chunk per sweep length cut null-scan analyze 12-16% but raised its peak RSS by
# 5 MB (11%) and slowed campaign-default analyze 7%; 2^12-point chunks took 2 faults
# and 4.5% less time on null-scan but slowed campaign-default analyze 26%.
INVERSION_CHUNK_POINTS = 2**14


@dataclass(frozen=True)
class ShiftEstimate:
    """Per-field reduced shift delta_t with its standard error."""

    field_mT: float
    delta_t: float
    sigma_delta_t: float
    sample_id: str
    kind: str = "film"
    replication: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.delta_t) and math.isfinite(self.field_mT)
                and math.isfinite(self.sigma_delta_t)):
            raise NonFiniteResult("shift, its uncertainty and field must be finite")
        if self.sigma_delta_t < 0:
            raise ValueError("shift uncertainty must be non-negative")

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
        if not (math.isfinite(self.a) and math.isfinite(self.b) and np.isfinite(cov).all()):
            raise NonFiniteResult("fit coefficients and covariance must be finite")
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
    """Film-fit minus cavity-data gap at each measured cavity field (ascending), in uK.

    max_gap_uK, field_at_max_mT and sigma_at_max_uK are those of the largest gap. The
    gaps' covariance is Σ = L Lᵀ + diag(v): the film fit's error, which every field
    shares, enters as L = film_factor_uK (one column per fitted coefficient), and each
    cavity mean's own variance as v = cavity_var_uK2; sigma_uK is √diag(Σ). Independent
    gaps have an L of no column, np.zeros((k, 0)), and v = sigma_uK².
    """

    field_mT: np.ndarray
    gap_uK: np.ndarray
    sigma_uK: np.ndarray
    max_gap_uK: float
    field_at_max_mT: float
    sigma_at_max_uK: float
    film_factor_uK: np.ndarray
    cavity_var_uK2: np.ndarray

    def __post_init__(self):
        k = len(self.gap_uK)
        if not len(self.field_mT) == len(self.sigma_uK) == len(self.cavity_var_uK2) == k:
            raise ValueError("differential signal arrays must have one length")
        if np.ndim(self.film_factor_uK) != 2 or len(self.film_factor_uK) != k:
            raise ValueError("film_factor_uK must have one row per field")
        if not np.isfinite([self.field_mT, self.gap_uK, self.sigma_uK]).all():
            raise NonFiniteResult("differential signal arrays must be finite")

    @property
    def z(self) -> np.ndarray:
        """gap/σ at each field; a zero σ gives inf for a positive gap and 0 otherwise."""
        return np.divide(self.gap_uK, self.sigma_uK, where=self.sigma_uK > 0,
                         out=np.where(self.gap_uK > 0, np.inf, 0.0))

    @property
    def significance(self) -> float:
        """The largest z over the measured fields."""
        return float(self.z.max())

    @property
    def covariance_uK2(self) -> np.ndarray:
        """Σ, in uK²."""
        return self.film_factor_uK @ self.film_factor_uK.T + np.diag(self.cavity_var_uK2)

    @property
    def p_global(self) -> float:
        """Probability that a campaign without cavity shift reads a significance this large.

        Given the film fit's error L u, u ~ N(0, I), the gaps are independent, so
        p = E_u[1 - ∏_k Φ((z σ_k - (L u)_k) / √v_k)] for z the significance: Dunnett's
        many-to-one structure (J. Amer. Statist. Assoc. 50, 1096 (1955)), the exact form
        of the look-elsewhere correction of Gross & Vitells (Eur. Phys. J. C 70, 525
        (2010)), integrated by Gauss-Hermite quadrature over u (QUADRATURE_NODES per
        column of L). Each term sums log1p(-q_k) and takes -expm1, so a tiny p keeps
        its digits.
        """
        z = self.significance
        if z == math.inf:
            return 0.0
        nodes, weights = _normal_quadrature()
        u, weight = np.zeros((1, 0)), np.ones(1)
        for _ in range(self.film_factor_uK.shape[1]):  # the tensor grid, one axis per column
            u = np.column_stack([np.repeat(u, len(nodes), axis=0), np.tile(nodes, len(u))])
            weight = np.repeat(weight, len(nodes)) * np.tile(weights, len(weight))
        sd = np.sqrt(self.cavity_var_uK2)
        with np.errstate(all="ignore"):  # a zero v_k is a step: q_k is 1 or 0
            x = z * self.sigma_uK - u @ self.film_factor_uK.T
            t = np.divide(x, sd * math.sqrt(2.0), where=sd > 0,
                          out=np.where(x > 0, np.inf, -np.inf))
            q = 0.5 * _erfc(t).astype(float)  # P(z_k >= z | u)
            return float(weight @ -np.expm1(np.log1p(-q).sum(axis=1)))


QUADRATURE_NODES = 32  # Gauss-Hermite nodes per axis of the p_global integral

_erfc = np.frompyfunc(math.erfc, 1, 1)


@functools.cache
def _normal_quadrature():
    """Nodes and weights of the QUADRATURE_NODES-point Gauss-Hermite rule for E[f(u)], u ~ N(0, 1).

    The eigenvalues of the Jacobi matrix of the probabilists' Hermite recurrence and the
    squared first components of its eigenvectors (Golub & Welsch, Math. Comp. 23, 221
    (1969)); the weights sum to 1.
    """
    off = np.sqrt(np.arange(1.0, QUADRATURE_NODES))
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def pav_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit: closest non-decreasing sequence to each row of y.

    Unweighted L2 projection of each row of a 2-D (sweep, point) array on
    its own; a 1-D y is one row. Adjacent violating blocks always end in the
    same pool (Best & Chakravarti, Math. Prog. 47, 1990), so each pass merges
    every maximal run of decreasing block means at once; passes repeat until
    no adjacent pair violates.

    The passes run over the span of rows that still pool: finished rows
    before and after it are set aside. A finished row inside the span is
    pooled block by block, which adds each sum to 0.0 and so changes none
    but a -0.0 (to 0.0). So each row's result is bit-identical to pooling
    that row alone, but for the sign of a zero in a row that never pooled.
    The last pass, which finds no violation, stops before it labels pools.
    """
    y = np.asarray(y, dtype=float)
    if not y.size:
        return y.copy()
    rows = y.reshape(1, -1) if y.ndim == 1 else y
    n_rows, n = rows.shape
    means = sums = rows.ravel()  # every count is 1.0, and x / 1.0 is x
    counts = np.ones(len(sums))
    first, starts = 0, np.arange(n_rows) * n  # the span's first row; each row's first block
    aside = []  # (first row, block means, block counts) of the rows set aside
    while True:
        # a block starts a pool unless it is lower than the block before it in its row
        new = np.empty(len(means), dtype=bool)
        np.greater(means[:-1], means[1:], out=new[1:])
        np.logical_not(new, out=new)
        new[starts] = True
        if new[1:].all():
            aside.append((first, means, counts))
            break
        new[0] = False
        labels = np.cumsum(new)
        pools = labels[starts]
        merged = starts - pools  # blocks merged away before each row
        total = len(means) - 1 - int(labels[-1])
        # rows a to b - 1 still pool
        a = merged.searchsorted(0, "right") - 1
        b = merged.searchsorted(total)
        if a or b < len(starts):
            lo, hi = starts[a], starts[b] if b < len(starts) else len(means)
            aside += [(first, means[:lo], counts[:lo]), (first + b, means[hi:], counts[hi:])]
            first += a
            labels, sums, counts = labels[lo:hi] - labels[lo], sums[lo:hi], counts[lo:hi]
            pools = pools[a:b] - pools[a]
        starts = pools
        sums = np.bincount(labels, weights=sums)
        counts = np.bincount(labels, weights=counts)
        means = sums / counts
    aside.sort(key=lambda part: part[0])
    means = np.concatenate([part[1] for part in aside])
    counts = np.concatenate([part[2] for part in aside])
    return np.repeat(means, counts.astype(int)).reshape(y.shape)


def _invert_chunk(sweeps, levels, rn_ohm: float):
    """invert_trace of sweeps of one length: (T rows, displaced fraction, first and last knot R,
    whether each row is finite).

    The rows are sorted and pooled together, then read off their own knots by np.interp.
    A row with a non-finite reading is inverted as zeros, so that it pollutes no arithmetic.
    The rows sort in one np.sort of 64-bit keys: the order-preserving integer image of T + 0.0
    (-0.0 reads as 0.0) less its row's lowest, shifted left by b = (n - 1).bit_length(), OR the
    point's index, which breaks ties as a stable sort does. A row whose image spans 2^(64 - b) or
    more (0 K beside 1.5 K, or mK of both signs) alone takes a stable argsort; simulated rows fit.
    """
    t = np.array([s.t_meas_K for s in sweeps], dtype=float)
    r = np.array([s.r_meas_ohm for s in sweeps], dtype=float)
    k, n = t.shape
    finite = np.isfinite(t).all(axis=1) & np.isfinite(r).all(axis=1)
    if not finite.all():
        t[~finite] = r[~finite] = 0.0
    # one flat gather of both arrays in each row's stable sort order, sorted as keys in place
    key = np.add(t, 0.0).view(np.int64)
    np.bitwise_xor(key, 2**63 - 1, out=key, where=key < 0)  # a negative T: reverse its order
    key -= key.min(axis=1, keepdims=True)  # wraps to the unsigned difference
    keys, b = key.view(np.uint64), (n - 1).bit_length()
    wide = np.flatnonzero(keys.max(axis=1) > 2**(64 - b) - 1)
    keys <<= b
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    keys &= 2**b - 1
    key += np.arange(0, k * n, n)[:, None]
    if len(wide):
        key[wide] = np.argsort(t[wide], axis=1, kind="stable") + (wide * n)[:, None]
    t, r = t.ravel()[key], r.ravel()[key]
    r_fit = pav_increasing(r)
    displaced = np.count_nonzero(np.abs(r_fit - r) > DISCARD_TOLERANCE * rn_ohm, axis=1) / n

    # one knot per pool: (pool R, mean T of the pool from its own row's cumsum)
    opens = np.empty((k, n), dtype=bool)  # a point that opens a pool
    opens[:, 0] = True
    np.greater(r_fit[:, 1:], r_fit[:, :-1], out=opens[:, 1:])
    start = np.flatnonzero(opens)
    knot_r = r_fit.ravel()[start]
    row = start // n
    firsts = np.flatnonzero(row[1:] != row[:-1]) + 1  # each row's first knot, but row 0's
    # flat positions in the (k, n + 1) cumsum: a pool ends where the next one begins,
    # or one short of it (at its row's end) when the next one opens a row
    sums = np.zeros((k, n + 1))
    np.cumsum(t, axis=1, out=sums[:, 1:])
    begin = start + row
    end = np.append(begin[1:], k * (n + 1))
    end[firsts - 1] -= 1
    end[-1] -= 1
    sums = sums.ravel()
    knot_t = (sums[end] - sums[begin]) / (end - begin)

    temps = np.empty((k, len(levels)))
    edges = [0, *firsts.tolist(), len(start)]
    for i in range(k):
        a, b = edges[i], edges[i + 1]
        temps[i] = np.interp(levels, knot_r[a:b], knot_t[a:b])
    return temps, displaced, r_fit[:, [0, -1]], finite


def invert_trace(sweeps, r_levels, rn_ohm: float) -> np.ndarray:
    """T(R) of each sweep at the levels: a (sweep, level) array, by monotone inversion.

    `sweeps` is a sequence of SweepTraces and r_levels a 1-D array. Each
    sweep's points are sorted by measured temperature, its resistances
    pooled into non-decreasing form (pav_increasing), and each pool gives
    one knot at its common R and the mean T of its points; T is read off the
    knots with np.interp, row by row.
    Sweeps of one length are inverted together, in chunks of at most
    INVERSION_CHUNK_POINTS points, bit-identical to inverting each alone.

    A level outside the (0.2, 0.8)*RN averaging window, a NaN level, fewer
    than 2 levels or an r_levels that is not 1-D raises ValueError. A sweep
    with a non-finite T or R reading raises DataError naming the column. A
    sweep whose pooling displaced more than DISCARD_LIMIT of its points
    raises NonMonotonic, and one whose monotone knots do not reach the
    lowest and the highest level raises IncompleteTransition instead of
    reading a clamped end knot. Of several faulty sweeps, the first in the
    sequence is named.
    """
    levels = np.asarray(r_levels, dtype=float)
    lo, hi = levels.min(), levels.max()
    if not (levels.ndim == 1 and len(levels) >= 2
            and lo > WINDOW_LO * rn_ohm and hi < WINDOW_HI * rn_ohm):
        raise ValueError("resistance levels must be a 1-D array of at least 2 levels inside "
                         "the (0.2, 0.8)*RN window")
    temps = np.empty((len(sweeps), len(levels)))
    displaced = np.empty(len(sweeps))
    knot_span = np.empty((len(sweeps), 2))
    finite = np.empty(len(sweeps), dtype=bool)
    by_length = {}
    for i, sweep in enumerate(sweeps):
        by_length.setdefault(len(sweep.r_meas_ohm), []).append(i)
    # Every chunk is inverted before any result is stored. _invert_chunk allocates its small
    # result arrays after its working arrays (about 1.3 MB of them in a 2^14-point chunk), so
    # while the results are kept here the freed working memory is not at the top of the heap:
    # glibc does not trim it, and the next chunk reuses its pages rather than faulting them
    # in again. Storing each chunk's results at once freed them with the working arrays; a
    # null-scan analyze_campaign (4 chunks) then took 1355 minor page faults, now 500-1100,
    # and 17% less time. The gain rests on that order of allocation in _invert_chunk.
    results = []
    for n, members in by_length.items():
        step = max(1, INVERSION_CHUNK_POINTS // n)
        for c in range(0, len(members), step):
            chunk = members[c:c + step]
            results.append((chunk, _invert_chunk([sweeps[i] for i in chunk], levels, rn_ohm)))
    for chunk, result in results:
        temps[chunk], displaced[chunk], knot_span[chunk], finite[chunk] = result

    faulty = np.flatnonzero(
        ~finite | (displaced > DISCARD_LIMIT) | (knot_span[:, 0] > lo) | (knot_span[:, 1] < hi))
    if len(faulty):
        i = faulty[0]
        trace = sweeps[i]
        if not finite[i]:
            column = "T_meas_K" if not np.isfinite(trace.t_meas_K).all() else "R_meas_ohm"
            raise DataError(
                f"{trace.kind} sweep {trace.sample_id} at {trace.field_mT} mT starting at "
                f"{trace.t_start_s} s has a non-finite {column}"
            )
        if displaced[i] > DISCARD_LIMIT:
            raise NonMonotonic(
                f"monotonization displaced {displaced[i]:.0%} of points "
                f"in sweep {trace.sample_id} at {trace.field_mT} mT"
            )
        raise IncompleteTransition(
            f"{trace.kind} sweep {trace.sample_id} at {trace.field_mT} mT starting at "
            f"{trace.t_start_s} s does not span the resistance levels: its monotone R covers "
            f"{knot_span[i, 0]:.6g} to {knot_span[i, 1]:.6g} ohm, the levels {lo:.6g} to "
            f"{hi:.6g} ohm"
        )
    return temps


def default_levels(rn_ohm: float) -> np.ndarray:
    """Even grid of DEFAULT_N_LEVELS resistance levels strictly inside (0.2, 0.8)*RN."""
    n = DEFAULT_N_LEVELS
    frac = WINDOW_LO + (WINDOW_HI - WINDOW_LO) * (np.arange(n) + 0.5) / n
    return frac * rn_ohm


def _level_temperatures(sweeps, rn_ohm: float) -> list:
    """T(R) of each sweep at the default levels, inverted once per sweep and rn_ohm.

    The sweeps of the sequence that lack them are inverted together, in one
    invert_trace call and in the order given, so the first faulty one is
    named. Each read-only row is kept on its sweep, in its instance __dict__
    as functools.cached_property keeps a value, so that Tc0 and the triplet
    shift share one inversion. A `dataclasses.replace` copy starts without
    it, and another rn_ohm replaces it. When a sweep raises, no row of that
    call is kept, so the next call raises again.
    """
    todo = {id(s): s for s in sweeps
            if s.__dict__.get("_level_temperatures", (None,))[0] != rn_ohm}
    if todo:
        temps = invert_trace(list(todo.values()), default_levels(rn_ohm), rn_ohm)
        temps.flags.writeable = False
        for sweep, row in zip(todo.values(), temps):
            sweep.__dict__["_level_temperatures"] = (rn_ohm, row)
    return [s.__dict__["_level_temperatures"][1] for s in sweeps]


def extract_tc0(trace: SweepTrace, rn_ohm: float) -> float:
    """Transition temperature: the mean of T(R) over the default levels.

    The levels are symmetric about RN/2 and a logistic T(R) is antisymmetric
    about its midpoint, so for the simulator's transitions the mean is the
    midpoint exactly. On an asymmetric transition it differs from the dR/dT
    peak; Tc0 only normalizes the shift. The level temperatures are read from
    the sweep when analyze_campaign has kept them there, and are kept for
    drift_corrected_shift otherwise. A sweep that does not reach the levels
    raises IncompleteTransition, as in invert_trace.
    """
    row = _level_temperatures([trace], rn_ohm)[0]
    return float(row.sum() / row.size)  # row.mean()'s steps, without its dispatch


def check_tc0(tc0_K: float) -> None:
    """Raise DataError unless 0 < tc0_K < inf: Tc0 scales every shift and its σ."""
    if not 0 < tc0_K < math.inf:
        raise DataError(f"Tc0 must be positive and finite, got {tc0_K} K")


def estimate_shift(t_zero, t_field, tc0_K: float) -> float:
    """Averaged-difference estimator: delta_t = mean_R [T(R,0) - T(R,H)] / Tc0.

    t_zero and t_field are T(R) of a zero-field and an in-field sweep at the
    same resistance levels. Returns delta_t as a Python float; the mean takes
    np.mean's steps, so it equals np.mean bit for bit. Fewer than 2 levels
    raise InsufficientData (as in invert_trace), a tc0_K outside (0, inf) or
    a non-finite result (from a NaN or infinite level temperature) DataError.
    """
    n = len(t_zero)
    if n < 2:
        raise InsufficientData(f"the shift estimate needs at least 2 levels, got {n}")
    check_tc0(tc0_K)
    with np.errstate(all="ignore"):  # a non-finite input shows in the result
        mean = (t_zero - t_field).sum() / n
    delta_t = float(mean) / tc0_K
    if not math.isfinite(delta_t):
        raise DataError("the shift estimate needs finite level temperatures")
    return delta_t


def drift_corrected_shift(triplet: TripletRecord, tc0_K: float, rn_ohm: float,
                          sigma_delta_t: float = 0.0) -> ShiftEstimate:
    """Mean of the pre-vs-mid and post-vs-mid estimates, with the given σ.

    Each sweep is inverted at the default levels at most once: the level
    temperatures kept on a sweep (by analyze_campaign or extract_tc0) are
    reused, and the sweeps that lack them are inverted in one batch. For
    drift linear in time and a symmetric triplet schedule the two one-sided
    biases are equal and opposite, so the mean is exactly drift-free.
    One triplet cannot measure its own scatter: sigma_delta_t is its
    sample's (pipeline.sample_sigma), and 0.0 when not given.
    """
    t_pre, t_mid, t_post = _level_temperatures([s for _, s in triplet.sweeps()], rn_ohm)
    return ShiftEstimate(
        field_mT=triplet.field_mT,
        delta_t=0.5 * (estimate_shift(t_pre, t_mid, tc0_K) + estimate_shift(t_post, t_mid, tc0_K)),
        sigma_delta_t=sigma_delta_t,
        sample_id=triplet.sample_id,
        kind=triplet.kind,
        replication=triplet.replication,
    )


def fit_parabola(
    estimates,
    field_threshold_mT: float,
    include_linear: bool = False,
) -> FitResult:
    """Ordinary least squares of delta_t = a*H^2 (+ b*H) on high-field points.

    Only estimates with |field| >= field_threshold_mT enter. The covariance
    is mean(sigma^2) * (X^T X)^-1, exact when every sigma is equal, as
    within one sample (pipeline.sample_sigma); it is 0 when all vanish.
    Degenerate fields raise SingularFit, a fit that overflows (shifts or
    sigmas near the float limit) NonFiniteResult.
    """
    sel = [e for e in estimates if abs(e.field_mT) >= field_threshold_mT]
    if len(sel) < 3:
        raise InsufficientData(
            f"parabola fit needs >= 3 estimates with |H| >= {field_threshold_mT} mT, "
            f"got {len(sel)}"
        )
    h = np.array([e.field_mT for e in sel])
    y = np.array([e.delta_t for e in sel])
    sigma = np.array([e.sigma_delta_t for e in sel])

    cols = [h * h]
    if include_linear:
        cols.append(h)
    x = np.stack(cols, axis=1)
    xtx = x.T @ x
    # or of full rank but so near zero (fields of 1e-80 mT) that its inverse overflows
    if np.linalg.matrix_rank(xtx) < x.shape[1] or not np.isfinite(inv := np.linalg.inv(xtx)).all():
        raise SingularFit("design matrix is rank deficient (degenerate field values)")
    with np.errstate(all="ignore"):  # an overflow shows in the result
        beta = np.linalg.solve(xtx, x.T @ y)
        cov = np.zeros((2, 2))
        cov[:len(beta), :len(beta)] = np.mean(sigma * sigma) * inv
        rms_residual = float(np.sqrt(np.mean((y - x @ beta) ** 2)))
    if not (np.isfinite(beta).all() and np.isfinite(cov).all() and math.isfinite(rms_residual)):
        raise NonFiniteResult("the parabola fit overflows: shifts or sigmas too large")
    a, b = np.append(beta, 0.0)[:2]
    return FitResult(
        a=float(a),
        b=float(b),
        covariance=cov,
        rms_residual=rms_residual,
        n_points=len(sel),
        field_threshold_mT=field_threshold_mT,
        include_linear=include_linear,
    )


def field_groups(field_mT) -> list:
    """[(field, indices)] of each distinct value of field_mT, fields ascending."""
    field_mT = np.asarray(field_mT)
    # not np.unique, which imports numpy.ma (about 1.3 MB) on first use
    return [(f, np.flatnonzero(field_mT == f)) for f in sorted(set(field_mT.tolist()))]


def field_means(field_mT, y, sigma):
    """Mean of y per distinct field, sorted by field, with variance mean(sigma^2)/n.

    Returns (fields, means, variances). The variance is that of the mean of
    n values of equal sigma, as within one sample (pipeline.sample_sigma).
    A NaN or infinite input, or a mean or variance that overflows, raises
    DataError.
    """
    y, sigma = np.asarray(y, dtype=float), np.asarray(sigma, dtype=float)
    if not np.isfinite([field_mT, y, sigma]).all():
        raise DataError("per-field means need finite fields, values and sigmas")
    groups = field_groups(field_mT)
    with np.errstate(all="ignore"):  # an overflow shows in the result
        means = np.array([y[idx].sum() / len(idx) for _, idx in groups])  # np.mean's steps
        variances = np.array([(sigma[idx] ** 2).sum() / len(idx) / len(idx) for _, idx in groups])
    if not (np.isfinite(means).all() and np.isfinite(variances).all()):
        raise DataError("per-field means overflow: values or sigmas too large")
    return np.array([f for f, _ in groups]), means, variances


def differential_signal(film_fit: FitResult, cavity_estimates, tc0_K: float) -> DifferentialSignal:
    """Gap between the film parabola and the cavity data at each measured cavity field, in uK.

    The cavity curve is its per-field means (`field_means`), so the
    analysis assumes no cavity model; each field's uncertainty combines the
    fit covariance with the variance of its mean. No field between two
    measured ones has a larger gap: for a film fit a*H^2 + b*H with a > 0,
    the gap to a straight line between them is convex. The film fit is the
    only error term the fields share: the record keeps it as the factor
    L = X F, with X's rows (H², H)·Tc0·1e6 over the fitted coefficients and
    F Fᵀ the fit covariance, beside the cavity means' variances. A gap or σ
    that overflows raises NonFiniteResult.
    """
    check_tc0(tc0_K)
    fields, cav_dt, cav_var = field_means(
        [e.field_mT for e in cavity_estimates],
        [e.delta_t for e in cavity_estimates],
        [e.sigma_delta_t for e in cavity_estimates],
    )
    if len(fields) < 2:
        raise InsufficientData("differential signal needs >= 2 distinct fields")

    scale = tc0_K * 1e6
    n = 2 if film_fit.include_linear else 1
    with np.errstate(all="ignore"):  # an overflow shows in DifferentialSignal's check
        gap = (film_fit.predict(fields) - cav_dt) * scale
        sigma = np.sqrt(film_fit.predict_var(fields) + cav_var) * scale
        eigenvalues, vectors = np.linalg.eigh(film_fit.covariance[:n, :n])
        design = np.stack([fields * fields, fields], axis=1)[:, :n] * scale
        factor = design @ (vectors * np.sqrt(np.maximum(eigenvalues, 0.0)))
    imax = int(np.argmax(gap))
    return DifferentialSignal(
        field_mT=fields,
        gap_uK=gap,
        sigma_uK=sigma,
        max_gap_uK=float(gap[imax]),
        field_at_max_mT=float(fields[imax]),
        sigma_at_max_uK=float(sigma[imax]),
        film_factor_uK=factor,
        cavity_var_uK2=cav_var * scale * scale,
    )


def template_amplitude(signal: DifferentialSignal, shape_uK) -> tuple:
    """(A, σ_A) in uK: the generalized least-squares fit of gap_k = A·shape_k under Σ.

    A = sᵀΣ⁻¹g / sᵀΣ⁻¹s and σ_A² = 1 / sᵀΣ⁻¹s, with Σ the gaps' covariance
    (`DifferentialSignal.covariance_uK2`): a matched filter for a stated shift
    curve s, beside the model-free significance. A Σ that cannot be inverted
    (every σ zero, a noiseless campaign) weighs the fields alike instead, with
    σ_A² = sᵀΣs / (sᵀs)². A non-finite A or σ_A raises NonFiniteResult.
    """
    shape = np.asarray(shape_uK, dtype=float)
    cov = signal.covariance_uK2
    try:
        weights = np.linalg.solve(cov, shape)
    except np.linalg.LinAlgError:
        weights = shape
    with np.errstate(all="ignore"):  # a non-finite result is caught below
        norm = weights @ shape
        amplitude = float(weights @ signal.gap_uK / norm)
        sigma = float(np.sqrt(weights @ cov @ weights) / abs(norm))
    if not (math.isfinite(amplitude) and math.isfinite(sigma)):
        raise NonFiniteResult("the template amplitude is not finite")
    return amplitude, sigma


def estimate_sensitivity(repeats, tc0_K: float) -> float:
    """Scatter (uK) of repeated shift estimates taken under identical conditions.

    A scatter that overflows (shifts near the float limit) raises DataError.
    """
    if len(repeats) < 3:
        raise InsufficientData("sensitivity estimate needs >= 3 repeats")
    check_tc0(tc0_K)
    with np.errstate(all="ignore"):  # an overflow shows in the result
        sensitivity = float(np.std(np.array([e.delta_t for e in repeats]) * tc0_K * 1e6, ddof=1))
    if not math.isfinite(sensitivity):
        raise DataError("the sensitivity estimate overflows: shifts too large")
    return sensitivity
