"""Estimator tests: inversion, shift estimation, drift correction, fits."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimirlab import (
    CavityParams,
    FilmParams,
    NoiseModel,
    ShiftEstimate,
    SweepTrace,
    differential_signal,
    drift_corrected_shift,
    estimate_sensitivity,
    estimate_shift,
    extract_tc0,
    fit_parabola,
    generate_sweep,
    invert_trace,
    run_campaign,
    run_triplet,
)
from casimirlab import analysis
from casimirlab.analysis import (
    default_levels,
    field_means,
    pav_increasing,
)
from casimirlab.config import (
    DEFAULT_DRIFT_UK_PER_HR,
    DEFAULT_SIGMA_FAST_UK,
    default_config,
    default_film,
)
from casimirlab.errors import (
    ConfigError,
    DataError,
    IncompleteTransition,
    InsufficientData,
    NonFiniteResult,
    NonMonotonic,
    NumericalError,
    SingularFit,
)
from casimirlab.physics import transition_midpoint, transition_width_e
from casimirlab.pipeline import analyze_campaign, sample_sigma, sample_tc0
from casimirlab.simulate import MIN_SWEEP_POINTS, _ramp


def make_trace(t, r, field=0.0, sample_id="s", kind="film", t_start=0.0):
    t = np.asarray(t, dtype=float)
    return SweepTrace(sample_id, kind, field, t_start, np.arange(len(t), dtype=float), t, np.asarray(r, dtype=float))


def translated(trace, dT):
    return dataclasses.replace(trace, t_meas_K=trace.t_meas_K + dT)


def logistic_trace(film, n=400, field=0.0, t_start=0.0):
    noise = NoiseModel(seed=0)
    return generate_sweep(film, field, noise, t_start, 1200.0, n)


def one_sided_shift(zero, field, tc0_K, rn_ohm, levels=None):
    """ShiftEstimate of one in-field sweep against one zero-field sweep."""
    levels = default_levels(rn_ohm) if levels is None else levels
    t_zero, t_field = invert_trace([zero, field], levels, rn_ohm)
    delta_t = estimate_shift(t_zero, t_field, tc0_K)
    return ShiftEstimate(field.field_mT, delta_t, 0.0, field.sample_id, field.kind)


def drift_corrected_shift_reference(triplet, tc0_K, rn_ohm):
    """The former two-call estimator: each one-sided estimate inverts both of
    its sweeps, so the mid sweep is inverted twice. Returns delta_t."""
    levels = default_levels(rn_ohm)
    sides = []
    for zero in (triplet.pre, triplet.post):
        t_zero, t_mid = invert_trace([zero, triplet.mid], levels, rn_ohm)
        sides.append(float(np.mean(t_zero - t_mid)) / tc0_K)
    before, after = sides
    return 0.5 * (before + after)


def pav_reference(y):
    """Pool-adjacent-violators by the classic one-point-at-a-time stack."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    means = np.empty(n)
    counts = np.empty(n, dtype=int)
    top = 0
    for v in y:
        means[top] = v
        counts[top] = 1
        top += 1
        while top > 1 and means[top - 2] > means[top - 1]:
            tot = counts[top - 2] + counts[top - 1]
            means[top - 2] = (
                means[top - 2] * counts[top - 2] + means[top - 1] * counts[top - 1]
            ) / tot
            counts[top - 2] = tot
            top -= 1
    return np.repeat(means[:top], counts[:top])


def assert_matches_pav_reference(y):
    fit = pav_increasing(y)
    # floor at the smallest normal float: subnormal pools round in absolute steps
    tol = 1e-12 * np.max(np.abs(y), initial=0.0) + np.finfo(float).tiny
    assert fit.shape == np.shape(y)
    np.testing.assert_allclose(fit, pav_reference(y), rtol=0.0, atol=tol)


def pav_by_passes(y):
    """Pooling of one row by whole passes, as pav_increasing did before it took
    2-D arrays: the bit-exact reference for each row."""
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


def invert_one_by_one(trace, levels, rn_ohm):
    """T at the levels of one sweep by np.interp on its pooled knots, as
    invert_trace computed it one sweep at a time."""
    order = np.argsort(trace.t_meas_K, kind="stable")
    t, r = trace.t_meas_K[order], trace.r_meas_ohm[order]
    r_fit = pav_by_passes(r)
    bounds = np.concatenate(([0], np.nonzero(np.diff(r_fit) > 0)[0] + 1, [len(r)]))
    sums = np.concatenate(([0.0], np.cumsum(t)))
    knot_t = (sums[bounds[1:]] - sums[bounds[:-1]]) / np.diff(bounds)
    return np.interp(levels, r_fit[bounds[:-1]], knot_t)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def bits_but_zero_sign(a):
    """bits() with -0.0 read as 0.0: a row that never pooled may lose the sign
    of a zero when it shares a batch with rows that do."""
    return bits(np.add(a, 0.0))


# readings drawn from a few values tie, and include both signed zeros
READINGS = st.floats(-10, 10) | st.sampled_from([-1.0, -0.0, 0.0, 1.0])


@st.composite
def row_batches(draw):
    """(rows, n) arrays whose rows are random, constant, or a ramp whose last
    reading lies far below the rest (one pass per pooled point)."""
    n = draw(st.integers(1, 40))
    rows = []
    for shape in draw(st.lists(st.sampled_from(["random", "constant", "low last"]),
                               min_size=1, max_size=6)):
        if shape == "random":
            rows.append(draw(st.lists(READINGS, min_size=n, max_size=n)))
        elif shape == "constant":
            rows.append([draw(READINGS)] * n)
        else:
            rows.append(np.append(np.linspace(0.0, 1.0, n - 1), -1e3))
    return np.array(rows, dtype=float)


def batch_sweep(shape, n, draw):
    """(t, r) of one n-point sweep of sweep_batches, of the given shape."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = 1.5 + np.linspace(-5e-3, 5e-3, n)
    if shape == "two knots":  # a step from 0 to RN
        r = np.where(np.arange(n) < draw(st.integers(1, n - 1)), 0.0, 300.0)
    elif shape == "flat":  # one knot, short of the levels
        r = np.full(n, 150.0)
    elif shape == "decreasing":  # one knot that displaces most points
        r = np.linspace(300.0, 0.0, n)
    else:
        r = 300.0 / (1.0 + np.exp(-(t - 1.5) / 1e-3))
        r = r + rng.normal(0.0, draw(st.sampled_from([0.0, 1.0, 10.0])), n)
        t = t + rng.normal(0.0, draw(st.sampled_from([0.0, 1e-5, 1e-4])), n)
        decimals = draw(st.sampled_from([None, 4, 3]))
        if decimals:
            t = np.round(t, decimals)  # tied temperatures, which keep their order in time
        if shape == "non-finite":
            column = t if draw(st.booleans()) else r
            column[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                        -math.inf]))
    return t, r


@st.composite
def sweep_batches(draw):
    """(sweeps of one length, sweeps per inversion chunk or None for the default):
    noisy logistic sweeps, some with tied temperatures, and sweeps of two knots,
    among which up to two faulty ones: of one knot, or with a non-finite reading."""
    n = draw(st.integers(MIN_SWEEP_POINTS, 90))
    # two noisy sweeps to one of two knots
    shapes = draw(st.lists(st.sampled_from(["noisy", "noisy", "two knots"]),
                           min_size=1, max_size=8))
    faults = st.lists(st.sampled_from(["flat", "decreasing", "non-finite"]), min_size=1, max_size=2)
    for fault in draw(faults) if draw(st.booleans()) else []:
        shapes.insert(draw(st.integers(0, len(shapes))), fault)
    sweeps = [SweepTrace(f"s{j}", "film", 0.0, 0.0, np.arange(n, dtype=float),
                         *batch_sweep(shape, n, draw))
              for j, shape in enumerate(shapes)]
    return sweeps, draw(st.sampled_from([1, 2, 3, None]))


@st.composite
def long_sweep_batches(draw):
    """(sweeps of 300, 1200 or 4800 points, sweeps per inversion chunk or None for the
    default): noisy logistic sweeps, tie-free or with temperatures rounded to 1e-4 K, one
    whose only tie is -0.0 against 0.0, and at times one with a non-finite reading, one too
    wide to sort as packed keys (a reading at 0 K) or one of negative temperatures."""
    n = draw(st.sampled_from([300, 1200, 4800]))
    shapes = draw(st.lists(st.sampled_from(["tie-free", "rounded"]), min_size=1, max_size=4))
    shapes.insert(draw(st.integers(0, len(shapes))), "signed zeros")
    for extra in ("non-finite", "wide", "negative"):
        if draw(st.booleans()):
            shapes.insert(draw(st.integers(0, len(shapes))), extra)
    sweeps = []
    for j, shape in enumerate(shapes):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        # the zeros sit in the transition; T < 0 reverses the order of its bits
        tc = {"signed zeros": 0.0, "negative": -1.5}.get(shape, 1.5)
        t = tc + np.linspace(-5e-3, 5e-3, n) + rng.normal(0.0, 2e-5, n)
        r = 300.0 / (1.0 + np.exp(-(t - tc) / 1e-3)) + rng.normal(0.0, 1.0, n)
        if shape == "rounded":
            t = np.round(t, 4)
        elif shape == "wide":
            t[rng.integers(n)] = 0.0
        elif shape == "signed zeros":
            t *= 1e-308  # subnormal, within +-6e-311 K: of both signs, yet narrow enough to pack
            i, k = sorted(rng.choice(n, 2, replace=False))
            t[i], t[k] = draw(st.sampled_from([(-0.0, 0.0), (0.0, -0.0)]))
        elif shape == "non-finite":
            column = t if draw(st.booleans()) else r
            column[rng.integers(n)] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        sweeps.append(SweepTrace(f"s{j}", "film", 0.0, 0.0, np.arange(n, dtype=float), t, r))
    return sweeps, draw(st.sampled_from([1, 2, None]))


@st.composite
def level_temperatures(draw):
    """(t_zero, t_field, tc0_K, exact): level temperatures at offsets up to 1e6 K
    whose differences are random or, when `exact`, one constant on a 2**-20 K
    grid, which every sum and mean of them keeps exactly."""
    n = draw(st.sampled_from([2, 50]) | st.integers(2, 60))
    zero_offset, field_offset = (draw(st.sampled_from([0.0, 1.5, 1e6, -1e6])) for _ in "zf")
    tc0_K = draw(st.floats(0.1, 10.0))
    if draw(st.booleans()):
        steps = draw(st.lists(st.integers(-2**15, 2**15), min_size=n, max_size=n))
        t_field = field_offset + np.array(steps) * 2.0**-20
        return t_field + draw(st.integers(-2**15, 2**15)) * 2.0**-20, t_field, tc0_K, True
    t_zero, t_field = (offset + np.array(draw(st.lists(st.floats(-1e-2, 1e-2),
                                                       min_size=n, max_size=n)))
                       for offset in (zero_offset, field_offset))
    return t_zero, t_field, tc0_K, False


class TestPav:
    def test_identity_on_monotone(self):
        y = np.linspace(0, 1, 50)
        assert np.array_equal(pav_increasing(y), y)

    def test_pools_single_violation(self):
        y = np.array([0.0, 2.0, 1.0, 3.0])
        assert np.array_equal(pav_increasing(y), [0.0, 1.5, 1.5, 3.0])

    def test_constant_on_decreasing(self):
        y = np.array([3.0, 2.0, 1.0])
        assert np.allclose(pav_increasing(y), 2.0)

    @pytest.mark.parametrize(
        "y",
        [
            np.array([1.0, 2.0, 2.0, 2.0, 2.0, 0.5, 3.0]),  # plateau, then a drop
            np.append(np.linspace(0.0, 1.0, 1199), 0.0),  # pools back one point per pass
            np.linspace(5.0, -5.0, 300),  # all decreasing
            np.array([]),
            np.array([4.2]),
        ],
        ids=["plateau-drop", "ramp-low-end", "all-decreasing", "empty", "single"],
    )
    def test_matches_reference(self, y):
        assert_matches_pav_reference(y)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=60))
    @settings(max_examples=200)
    def test_l2_projection_properties(self, ys):
        y = np.array(ys)
        fit = pav_increasing(y)
        assert np.all(np.diff(fit) >= -1e-12)
        # pool means preserve the overall mean
        assert np.mean(fit) == pytest.approx(np.mean(y), abs=1e-9)
        assert_matches_pav_reference(y)

    @given(row_batches())
    @settings(max_examples=300, deadline=None)
    def test_rows_pool_as_alone(self, rows):
        fit = pav_increasing(rows)
        assert fit.shape == rows.shape
        alone = [pav_by_passes(row) for row in rows]
        np.testing.assert_array_equal(bits_but_zero_sign(fit), bits_but_zero_sign(alone))
        # a 1-D array is one row, pooled as before
        for row, expected in zip(rows, alone):
            np.testing.assert_array_equal(bits(pav_increasing(row)), bits(expected))

    def test_long_pooling_row_among_finished_rows(self):
        # like an R = 0 dropout, the zeroed last reading of row 3 pools for 45
        # passes; the noisy rows around it finish within 2
        rng = np.random.default_rng(4)
        rows = np.linspace(0.0, 1.0, 1200) + rng.normal(0.0, 5e-4, (7, 1200))
        rows[3, -1] = 0.0
        fit = pav_increasing(rows)
        np.testing.assert_array_equal(bits_but_zero_sign(fit),
                                      bits_but_zero_sign([pav_by_passes(row) for row in rows]))


class TestExtractTc0:
    def test_noiseless_logistic(self, film):
        tr = logistic_trace(film, n=600)
        grid_step = 10 * film.width_mK * 1e-3 / 599
        assert abs(extract_tc0(tr, film.rn_ohm) - film.tc0_K) <= grid_step

    def test_translation_equivariance(self, film):
        tr = logistic_trace(film, n=400)
        c = 0.0123
        assert extract_tc0(translated(tr, c), film.rn_ohm) == pytest.approx(
            extract_tc0(tr, film.rn_ohm) + c, abs=1e-12
        )

    def test_incomplete_transition_rejected(self, film):
        tr = logistic_trace(film, n=400)
        top_half = tr.t_meas_K > film.tc0_K
        clipped = make_trace(tr.t_meas_K[top_half], tr.r_meas_ohm[top_half])
        with pytest.raises(IncompleteTransition):
            extract_tc0(clipped, film.rn_ohm)

    @pytest.mark.parametrize("n", [300, 600, 1200])
    def test_noiseless_sweep_exact(self, film, n):
        # a logistic T(R) is antisymmetric about RN/2, like the level grid
        assert abs(extract_tc0(logistic_trace(film, n=n), film.rn_ohm) - film.tc0_K) < 1e-12

    def test_sample_tc0_exact_under_drift(self):
        cfg = default_config(noise=NoiseModel(sigma_fast_uK=0.0, drift_uK_per_hr=-50.0, seed=1))
        triplets = run_campaign(cfg)
        for sample_id, tc0_K in [(cfg.film_sample_id, cfg.film.tc0_K),
                                 (cfg.cavity_sample_id, cfg.cavity.film.tc0_K)]:
            assert abs(sample_tc0(triplets, sample_id, cfg.film.rn_ohm) - tc0_K) < 1e-12

    def test_sweep_covering_only_the_levels(self, film):
        # R spans 0.15-0.85 RN: enough for the levels, short of 0.1-0.9 RN
        tr = logistic_trace(film, n=1200)
        keep = (tr.r_meas_ohm > 0.15 * film.rn_ohm) & (tr.r_meas_ohm < 0.85 * film.rn_ohm)
        cut = make_trace(tr.t_meas_K[keep], tr.r_meas_ohm[keep])
        assert abs(extract_tc0(cut, film.rn_ohm) - film.tc0_K) < 1e-12

    def test_mean_of_the_level_row_bit_for_bit(self, film):
        for seed in range(20):
            tr = generate_sweep(film, 0.0, NoiseModel(sigma_fast_uK=30.0, seed=seed),
                                0.0, 1200.0, 600)
            [row] = invert_trace([tr], default_levels(film.rn_ohm), film.rn_ohm)
            tc0 = extract_tc0(tr, film.rn_ohm)
            assert type(tc0) is float
            assert bits(tc0) == bits(float(row.mean()))

    def test_noisy_recovery_within_10uK(self, film):
        errs = []
        for seed in range(100):
            noise = NoiseModel(sigma_fast_uK=3.0, seed=seed)
            tr = generate_sweep(film, 0.0, noise, 0.0, 1200.0, 1200)
            errs.append(abs(extract_tc0(tr, film.rn_ohm) - film.tc0_K))
        assert np.percentile(errs, 95) < 10e-6


class Inversions(list):
    """The sweeps that analysis.invert_trace is called on, in call order;
    `batches` holds the sweeps of each call."""

    def __init__(self):
        super().__init__()
        self.batches = []


def counted_inversions(monkeypatch):
    """Record every sweep of each analysis.invert_trace call."""
    calls = Inversions()
    original = analysis.invert_trace

    def counting(sweeps, r_levels, rn_ohm):
        batch = list(sweeps)
        calls.extend(batch)
        calls.batches.append(batch)
        return original(sweeps, r_levels, rn_ohm)

    monkeypatch.setattr(analysis, "invert_trace", counting)
    return calls


class TestLevelTemperatures:
    """One inversion per sweep and rn_ohm, kept on the sweep for Tc0 and the shift."""

    def test_analyze_campaign_inverts_each_sweep_once(self, monkeypatch):
        calls = counted_inversions(monkeypatch)
        cfg = default_config(fields_mT=(2.0, 5.0, 7.2, 9.0, 10.0), points_per_sweep=300)
        triplets = run_campaign(cfg)
        analyze_campaign(triplets, rn_ohm=cfg.film.rn_ohm)
        sweeps = [s for t in triplets for _, s in t.sweeps()]
        assert sorted(map(id, calls)) == sorted(map(id, sweeps))
        assert len(calls.batches) == 1

    def test_first_faulty_sweep_in_visiting_order_is_named(self):
        # Tc0 reads each sample's zero-field sweeps (cav01 before film01), then
        # the shifts read the mids: a cut film mid is named only when no
        # zero-field sweep is faulty
        cfg = default_config(fields_mT=(2.0, 5.0, 7.2, 9.0, 10.0), points_per_sweep=300)

        def cut(sweep):
            keep = sweep.r_meas_ohm < 0.5 * cfg.film.rn_ohm
            return dataclasses.replace(sweep, tau_s=sweep.tau_s[keep],
                                       t_meas_K=sweep.t_meas_K[keep],
                                       r_meas_ohm=sweep.r_meas_ohm[keep])

        def message(sweep):
            with pytest.raises(IncompleteTransition) as exc:
                invert_trace([sweep], default_levels(cfg.film.rn_ohm), cfg.film.rn_ohm)
            return str(exc.value)

        triplets = run_campaign(cfg)
        film_mid = next(i for i, t in enumerate(triplets) if t.kind == "film")
        cavity_post = max(i for i, t in enumerate(triplets) if t.kind == "cavity")
        for cuts, named in [([(film_mid, "mid")], (film_mid, "mid")),
                            ([(film_mid, "mid"), (cavity_post, "post")], (cavity_post, "post"))]:
            damaged = list(triplets)
            for i, position in cuts:
                damaged[i] = dataclasses.replace(
                    damaged[i], **{position: cut(getattr(damaged[i], position))})
            with pytest.raises(IncompleteTransition) as exc:
                analyze_campaign(damaged, rn_ohm=cfg.film.rn_ohm)
            assert str(exc.value) == message(getattr(damaged[named[0]], named[1]))

    def test_copy_and_other_rn_recompute(self, film, monkeypatch):
        calls = counted_inversions(monkeypatch)
        tr = logistic_trace(film, n=600)
        tc0 = extract_tc0(tr, film.rn_ohm)
        assert extract_tc0(tr, film.rn_ohm) == tc0 and len(calls) == 1
        # a dataclasses.replace copy starts without the kept temperatures
        warmer = translated(tr, 1e-3)
        assert extract_tc0(warmer, film.rn_ohm) == pytest.approx(tc0 + 1e-3, abs=1e-12)
        assert len(calls) == 2
        other_rn = 1.1 * film.rn_ohm
        assert extract_tc0(tr, other_rn) != tc0 and len(calls) == 3
        assert extract_tc0(tr, other_rn) == extract_tc0(tr, other_rn) and len(calls) == 3

    def test_kept_temperatures_are_read_only(self, film):
        tr = logistic_trace(film)
        [temps] = analysis._level_temperatures([tr], film.rn_ohm)
        np.testing.assert_array_equal(
            temps, invert_trace([tr], default_levels(film.rn_ohm), film.rn_ohm)[0])
        with pytest.raises(ValueError):
            temps[0] = 0.0

    def test_cut_sweep_raises_on_every_call(self, film, monkeypatch):
        calls = counted_inversions(monkeypatch)
        tr = logistic_trace(film, n=400)
        keep = tr.r_meas_ohm < 0.5 * film.rn_ohm
        cut = make_trace(tr.t_meas_K[keep], tr.r_meas_ohm[keep])
        for _ in range(2):
            with pytest.raises(IncompleteTransition):
                extract_tc0(cut, film.rn_ohm)
        assert len(calls) == 2


class TestInvertTrace:
    def test_noiseless_matches_analytic_inverse(self, film):
        tr = logistic_trace(film, n=1200, field=3.0)
        levels = default_levels(film.rn_ohm)
        [t_at] = invert_trace([tr], levels, film.rn_ohm)
        w_e = transition_width_e(film)
        tc = transition_midpoint(film, 3.0)
        analytic = tc + w_e * np.log(levels / (film.rn_ohm - levels))
        grid_step = 10 * film.width_mK * 1e-3 / 1199
        assert np.max(np.abs(t_at - analytic)) < grid_step

    def test_midpoint_level_matches_tc0_extraction(self, film):
        tr = logistic_trace(film, n=1200)
        t_at = invert_trace([tr], [film.rn_ohm / 2] * 2, film.rn_ohm)[0, 0]
        assert t_at == pytest.approx(extract_tc0(tr, film.rn_ohm), abs=2e-5)

    def test_levels_outside_window_rejected(self, film):
        tr = logistic_trace(film)
        levels = default_levels(film.rn_ohm)
        # a scalar level, a grid of levels and one level are rejected as well as
        # levels outside the window
        for bad in ([0.1 * film.rn_ohm], [0.5 * film.rn_ohm, math.nan], levels[7],
                    levels.reshape(5, 10), [0.5 * film.rn_ohm]):
            with pytest.raises(ValueError, match="1-D array of at least 2 levels inside"):
                invert_trace([tr], bad, film.rn_ohm)

    def test_sweep_short_of_the_levels_rejected(self, film):
        # a clamped end knot would read T at the sweep's end, not at the level
        tr = logistic_trace(film, n=1200, field=3.0)
        levels = default_levels(film.rn_ohm)
        for keep in (slice(0, 540), slice(650, None)):  # ends below / starts above 0.2-0.8 R_N
            cut = SweepTrace(tr.sample_id, tr.kind, tr.field_mT, 600.0,
                             tr.tau_s[keep], tr.t_meas_K[keep], tr.r_meas_ohm[keep])
            with pytest.raises(IncompleteTransition,
                               match=rf"film sweep {tr.sample_id} at 3.0 mT starting at 600.0 s"):
                invert_trace([cut], levels, film.rn_ohm)

    def test_noisy_averaging_gain(self, film):
        # mean absolute deviation from the analytic inverse beats the raw noise
        sigma_uK = 20.0
        w_e = transition_width_e(film)
        devs = []
        for seed in range(30):
            noise = NoiseModel(sigma_fast_uK=sigma_uK, seed=seed)
            tr = generate_sweep(film, 0.0, noise, 0.0, 1200.0, 1200)
            levels = default_levels(film.rn_ohm)
            [t_at] = invert_trace([tr], levels, film.rn_ohm)
            analytic = film.tc0_K + w_e * np.log(levels / (film.rn_ohm - levels))
            devs.append(np.mean(np.abs(t_at - analytic)))
        assert np.mean(devs) < sigma_uK * 1e-6

    def test_sequence_matches_one_by_one(self):
        # the 300-point sweeps fill more than one chunk; mid sweeps cut just past
        # the top level share a length of their own, and their last knots enter
        # the interpolation
        cfg = default_config(points_per_sweep=300, replications=2,
                             fields_mT=(2.0, 5.0, 7.2, 9.0, 10.0))
        short = [s for t in run_campaign(cfg) for _, s in t.sweeps()]
        long_triplets = run_campaign(default_config(fields_mT=(2.0, 7.2)))
        long = [s for t in long_triplets for _, s in t.sweeps()]
        keep = slice(0, int(np.argmax(long[1].r_meas_ohm > 0.8 * 300.0)) + 1)
        cut = [SweepTrace(t.mid.sample_id, t.mid.kind, t.mid.field_mT, t.mid.t_start_s,
                          t.mid.tau_s[keep], t.mid.t_meas_K[keep], t.mid.r_meas_ohm[keep])
               for t in long_triplets]
        sweeps = short[:7] + cut[:2] + short[7:30] + long + cut[2:] + short[30:]
        assert len({len(s.t_meas_K) for s in sweeps}) == 3
        assert sum(len(s.t_meas_K) == 300 for s in sweeps) * 300 > analysis.INVERSION_CHUNK_POINTS
        levels = default_levels(300.0)
        temps = invert_trace(sweeps, levels, 300.0)
        assert temps.shape == (len(sweeps), len(levels))
        expected = [invert_one_by_one(s, levels, 300.0) for s in sweeps]
        np.testing.assert_array_equal(bits(temps), bits(expected))
        for sweep, row in zip(sweeps, temps):
            np.testing.assert_array_equal(bits(invert_trace([sweep], levels, 300.0)[0]), bits(row))

    @given(sweep_batches())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_batches_match_one_by_one(self, batch):
        # a batch is inverted as each sweep alone, in chunks of 1, 2, 3 or the
        # default number of sweeps, or fails as its first faulty sweep alone
        sweeps, per_chunk = batch
        levels = default_levels(300.0)
        errors = []
        for sweep in sweeps:
            try:
                invert_trace([sweep], levels, 300.0)
            except DataError as alone:
                errors.append(alone)
        with pytest.MonkeyPatch.context() as patch:
            if per_chunk:
                patch.setattr(analysis, "INVERSION_CHUNK_POINTS", per_chunk * sweeps[0].n_points)
            if errors:
                with pytest.raises(DataError) as batched:
                    invert_trace(sweeps, levels, 300.0)
                assert type(batched.value) is type(errors[0])
                assert str(batched.value) == str(errors[0])
                return
            temps = invert_trace(sweeps, levels, 300.0)
        expected = [invert_one_by_one(s, levels, 300.0) for s in sweeps]
        np.testing.assert_array_equal(bits(temps), bits(expected))

    @given(long_sweep_batches())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_long_batches_match_one_by_one(self, batch):
        # at lengths where numpy's default argsort is no insertion sort, rows with
        # tied temperatures are inverted as by a stable sort, and so are their
        # neighbours in the chunk; a non-finite sweep is named, and the rest of its
        # chunk is still inverted as each sweep alone
        sweeps, per_chunk = batch
        levels = default_levels(300.0)
        rows = []  # (sweep, T row) of every finite sweep, as its chunk returned it
        invert_chunk = analysis._invert_chunk

        def recording(chunk, chunk_levels, rn_ohm):
            out = invert_chunk(chunk, chunk_levels, rn_ohm)
            rows.extend((s, row) for s, row, finite in zip(chunk, out[0], out[3]) if finite)
            return out

        bad = [s for s in sweeps
               if not (np.isfinite(s.t_meas_K).all() and np.isfinite(s.r_meas_ohm).all())]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_invert_chunk", recording)
            if per_chunk:
                patch.setattr(analysis, "INVERSION_CHUNK_POINTS", per_chunk * sweeps[0].n_points)
            if bad:
                with pytest.raises(DataError, match=f"sweep {bad[0].sample_id} at .* non-finite"):
                    invert_trace(sweeps, levels, 300.0)
            else:
                temps = invert_trace(sweeps, levels, 300.0)
        assert [s for s, _ in rows] == [s for s in sweeps if s not in bad]
        expected = [invert_one_by_one(s, levels, 300.0) for s, _ in rows]
        np.testing.assert_array_equal(bits([row for _, row in rows]), bits(expected))
        if not bad:
            np.testing.assert_array_equal(bits(temps), bits(expected))

    def test_argsort_only_for_rows_too_wide_to_pack(self, monkeypatch):
        # tie-free, tied (1e-4 K) and signed-zero rows sort as packed keys; only a row whose
        # image spans 2^(64 - b), b = 11 at 1200 points (1 K to 4 K), takes a stable argsort,
        # and one a ulp narrower does not. Every row is inverted as when sorted alone.
        sweeps = [s for t in run_campaign(default_config(replications=1)) for _, s in t.sweeps()]
        assert all(len(np.unique(s.t_meas_K)) == s.n_points == 1200 for s in sweeps)
        rounded = [dataclasses.replace(s, t_meas_K=np.round(s.t_meas_K, 4)) for s in sweeps[:8]]
        zeros = (sweeps[8].t_meas_K - 1.5) * 1e-308  # subnormal, narrow enough to pack
        zeros[[100, 700]] = 0.0, -0.0
        t = sweeps[9].t_meas_K
        wide = 1.0 + 3.0 * (t - t.min()) / (t.max() - t.min())
        assert wide.min() == 1.0 and wide.max() == 4.0
        fits = np.where(wide == 4.0, np.nextafter(4.0, 0.0), wide)
        rows = [dataclasses.replace(s, t_meas_K=t) for s, t in zip(sweeps[8:], [zeros, fits])]
        batches = [sweeps, rounded + rows, rows + [dataclasses.replace(sweeps[9], t_meas_K=wide)]]
        levels = default_levels(300.0)
        expected = [[invert_one_by_one(s, levels, 300.0) for s in b] for b in batches]
        calls = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("kind")))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        for batch, alone in zip(batches, expected):
            np.testing.assert_array_equal(bits(invert_trace(batch, levels, 300.0)), bits(alone))
        assert calls == [((1, 1200), "stable")]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("attribute, column", [("t_meas_K", "T_meas_K"),
                                                   ("r_meas_ohm", "R_meas_ohm")])
    def test_non_finite_reading_rejected(self, film, attribute, column, value):
        tr = logistic_trace(film, n=400, field=3.0, t_start=600.0)
        readings = getattr(tr, attribute).copy()
        readings[200] = value
        sweep = dataclasses.replace(tr, **{attribute: readings})
        message = (rf"^film sweep {tr.sample_id} at 3.0 mT starting at 600.0 s "
                   rf"has a non-finite {column}$")
        with pytest.raises(DataError, match=message) as exc:
            invert_trace([sweep], default_levels(film.rn_ohm), film.rn_ohm)
        assert type(exc.value) is DataError
        with pytest.raises(DataError, match=message):
            extract_tc0(sweep, film.rn_ohm)

    def test_first_of_non_finite_and_non_monotonic_sweeps_named(self, film):
        clean = logistic_trace(film, n=400)
        t = clean.t_meas_K.copy()
        t[100] = math.nan
        nan_sweep = dataclasses.replace(clean, sample_id="nan", t_meas_K=t)
        backwards = dataclasses.replace(clean, sample_id="backwards",
                                        r_meas_ohm=clean.r_meas_ohm[::-1].copy())
        levels = default_levels(film.rn_ohm)
        with pytest.raises(NonMonotonic):
            invert_trace([backwards], levels, film.rn_ohm)
        with pytest.raises(DataError, match="sweep nan at") as exc:
            invert_trace([clean, nan_sweep, backwards], levels, film.rn_ohm)
        assert type(exc.value) is DataError
        with pytest.raises(NonMonotonic, match="sweep backwards at"):
            invert_trace([clean, backwards, nan_sweep], levels, film.rn_ohm)

    def test_garbage_trace_rejected(self, film):
        t = np.linspace(film.tc0_K - 5e-3, film.tc0_K + 5e-3, 200)
        r = np.linspace(film.rn_ohm, 0.0, 200)  # backwards transition
        with pytest.raises(NonMonotonic):
            invert_trace([make_trace(t, r)], [150.0, 160.0], film.rn_ohm)


class TestEstimateShift:
    @given(level_temperatures())
    @example((np.full(2, 1.5), np.full(2, 1.25), 1.5, True))
    @example((1e6 + np.linspace(0.0, 1e-3, 50), np.linspace(0.0, 1e-3, 50)[::-1], 1.5, False))
    @settings(max_examples=300, derandomize=True)
    def test_bits_of_numpy_mean(self, temperatures):
        t_zero, t_field, tc0_K, exact = temperatures
        diffs = t_zero - t_field
        delta_t = estimate_shift(t_zero, t_field, tc0_K)
        assert type(delta_t) is float
        np.testing.assert_array_equal(bits([delta_t]), bits([float(np.mean(diffs)) / tc0_K]))
        if exact:
            assert delta_t == float(diffs[0]) / tc0_K

    @pytest.mark.parametrize("t_zero, t_field, tc0_K, error", [
        (np.array([1.0]), np.array([0.0]), 1.5, InsufficientData),
        (np.array([]), np.array([]), 1.5, InsufficientData),
        (np.array([1.0]), np.array([0.0]), 0.0, InsufficientData),
        (np.ones(50), np.zeros(50), 0.0, DataError),
        (np.ones(50), np.zeros(50), -0.0, DataError),
        (np.ones(2), np.zeros(2), math.nan, DataError),
        (np.ones(2), np.zeros(2), math.inf, DataError),
        (np.ones(2), np.zeros(2), np.float64(-math.inf), DataError),
    ])
    def test_bad_input_rejected(self, t_zero, t_field, tc0_K, error):
        with pytest.raises(error) as exc:
            estimate_shift(t_zero, t_field, tc0_K)
        assert type(exc.value) is error

    def test_identical_traces_zero(self, film):
        tr = logistic_trace(film)
        est = one_sided_shift(tr, tr, film.tc0_K, rn_ohm=film.rn_ohm)
        assert est.delta_t == 0.0

    def test_translation_covariance_exact(self, film):
        tr = logistic_trace(film)
        dT = 81e-6
        est = one_sided_shift(tr, translated(tr, -dT), film.tc0_K, rn_ohm=film.rn_ohm)
        assert est.delta_t == pytest.approx(dT / film.tc0_K, rel=1e-12)

    def test_random_shapes_translation_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            film = FilmParams(
                thickness_nm=14.0,
                lambda0_nm=280.0,
                h0_mT=10.0,
                tc0_K=1.5,
                rn_ohm=float(rng.uniform(200, 350)),
                width_mK=float(rng.uniform(0.3, 3.0)),
            )
            n = int(rng.integers(60, 400))
            tr = logistic_trace(film, n=n)
            dT = float(rng.uniform(-300e-6, 300e-6))
            est = one_sided_shift(tr, translated(tr, -dT), film.tc0_K, rn_ohm=film.rn_ohm)
            assert abs(est.delta_t - dT / film.tc0_K) < 1e-10

    def test_window_insensitivity_noiseless(self, film):
        zero = logistic_trace(film, field=0.0)
        at_field = logistic_trace(film, field=7.2)
        # even grids of 20 and 200 levels strictly inside (0.2, 0.8)*RN
        a, b = (
            one_sided_shift(zero, at_field, film.tc0_K, film.rn_ohm,
                            film.rn_ohm * (0.2 + 0.6 * (np.arange(n) + 0.5) / n))
            for n in (20, 200)
        )
        grid_step = 10 * film.width_mK * 1e-3 / 399 / film.tc0_K
        assert abs(a.delta_t - b.delta_t) < grid_step

    def test_noiseless_81uK(self, film):
        zero = logistic_trace(film, field=0.0)
        at_field = logistic_trace(film, field=7.2)
        est = one_sided_shift(zero, at_field, film.tc0_K, rn_ohm=film.rn_ohm)
        assert est.shift_uK(film.tc0_K) == pytest.approx(81.0, abs=0.01)

    def test_brute_force_oracle(self, film):
        # independent re-implementation: insertion ordering, quadratic-time
        # PAV by repeated scanning, interpolation by exhaustive segment search
        def brute_invert(trace, levels, rn):
            pairs = sorted(zip(trace.t_meas_K, trace.r_meas_ohm))
            t = [p[0] for p in pairs]
            r = [p[1] for p in pairs]
            w = [1.0] * len(r)
            changed = True
            while changed:
                changed = False
                for i in range(len(r) - 1):
                    if r[i] > r[i + 1] + 1e-15:
                        m = (r[i] * w[i] + r[i + 1] * w[i + 1]) / (w[i] + w[i + 1])
                        r[i] = r[i + 1] = m
                        w[i] = w[i + 1] = w[i] + w[i + 1]
                        changed = True
            # collapse pools to knots (value, mean T)
            knots = []
            i = 0
            while i < len(r):
                j = i
                while j + 1 < len(r) and r[j + 1] <= r[i] + 1e-15:
                    j += 1
                knots.append((r[i], sum(t[i : j + 1]) / (j - i + 1)))
                i = j + 1
            out = []
            for lev in levels:
                if lev <= knots[0][0]:
                    out.append(knots[0][1])
                    continue
                if lev >= knots[-1][0]:
                    out.append(knots[-1][1])
                    continue
                for (r0, t0), (r1, t1) in zip(knots, knots[1:]):
                    if r0 <= lev <= r1:
                        frac = 0.0 if r1 == r0 else (lev - r0) / (r1 - r0)
                        out.append(t0 + frac * (t1 - t0))
                        break
            return out

        noise = NoiseModel(sigma_fast_uK=30.0, seed=17)
        zero = generate_sweep(film, 0.0, noise, 0.0, 1200.0, 64)
        at_field = generate_sweep(film, 7.2, noise, 1200.0, 1200.0, 64)
        levels = default_levels(film.rn_ohm)
        est = one_sided_shift(zero, at_field, film.tc0_K, rn_ohm=film.rn_ohm)
        t0 = brute_invert(zero, levels, film.rn_ohm)
        t1 = brute_invert(at_field, levels, film.rn_ohm)
        expected = float(np.mean(np.array(t0) - np.array(t1))) / film.tc0_K
        assert est.delta_t == pytest.approx(expected, abs=1e-12)


class TestDriftCorrection:
    def test_linear_drift_cancels_exactly(self, film):
        cfg = default_config(
            noise=NoiseModel(sigma_fast_uK=0.0, drift_uK_per_hr=-50.0, seed=5),
            fields_mT=(7.2,),
        )
        trip = run_triplet(cfg, "film", 7.2, 0.0)
        est = drift_corrected_shift(trip, film.tc0_K, rn_ohm=film.rn_ohm)
        assert est.shift_uK(film.tc0_K) == pytest.approx(81.0, abs=0.01)

    def test_one_sided_biases(self, film):
        drift = -50.0
        cfg = default_config(
            noise=NoiseModel(sigma_fast_uK=0.0, drift_uK_per_hr=drift, seed=5),
            fields_mT=(7.2,),
        )
        trip = run_triplet(cfg, "film", 7.2, 0.0)
        before = one_sided_shift(trip.pre, trip.mid, film.tc0_K, rn_ohm=film.rn_ohm)
        after = one_sided_shift(trip.post, trip.mid, film.tc0_K, rn_ohm=film.rn_ohm)
        bias = -drift * cfg.sweep_duration_s / 3600.0  # uK, sign per sweep order
        assert before.shift_uK(film.tc0_K) == pytest.approx(81.0 + bias, abs=0.01)
        assert after.shift_uK(film.tc0_K) == pytest.approx(81.0 - bias, abs=0.01)

    @pytest.mark.parametrize("kind", ["film", "cavity"])
    @pytest.mark.parametrize("points", [300, 1200])
    def test_matches_two_call_reference(self, kind, points):
        cfg = default_config(
            noise=NoiseModel(sigma_fast_uK=40.0, drift_uK_per_hr=-50.0, seed=11),
            points_per_sweep=points,
        )
        rn = cfg.film.rn_ohm
        for rep, field in enumerate((0.0, 2.0, 7.2, -9.0)):
            trip = run_triplet(cfg, kind, field, 3600.0 * rep, rep)
            est = drift_corrected_shift(trip, cfg.film.tc0_K, rn_ohm=rn)
            assert est.delta_t == drift_corrected_shift_reference(trip, cfg.film.tc0_K, rn)
            assert est.sigma_delta_t == 0.0

    def test_inverts_each_sweep_once(self, film, monkeypatch):
        calls = counted_inversions(monkeypatch)
        cfg = default_config(noise=NoiseModel(sigma_fast_uK=20.0, seed=3), fields_mT=(7.2,))
        trip = run_triplet(cfg, "film", 7.2, 0.0)
        drift_corrected_shift(trip, film.tc0_K, rn_ohm=film.rn_ohm)
        assert [id(c) for c in calls] == [id(trip.pre), id(trip.mid), id(trip.post)]

    def test_scatter_near_6uK(self, film):
        cfg = default_config(fields_mT=(7.2,), replications=50)
        trips = [t for t in run_campaign(cfg) if t.kind == "film"]
        ests = [drift_corrected_shift(t, film.tc0_K, rn_ohm=film.rn_ohm) for t in trips]
        scatter = np.std([e.shift_uK(film.tc0_K) for e in ests], ddof=1)
        assert 4.5 < scatter < 7.5


class TestFitParabola:
    def make_estimates(self, film, fields, sigma=0.0, seed=0, tilt=0.0):
        rng = np.random.default_rng(seed)
        out = []
        for h in fields:
            dt = (film.thickness_nm / (math.sqrt(24) * film.lambda0_nm * film.h0_mT)) ** 2 * h * h
            dt += math.sin(tilt) / film.h0_mT * h
            dt += rng.normal(0, sigma)
            out.append(
                ShiftEstimate(h, dt, sigma, "film01", "film")
            )
        return out

    def test_exact_parabola_recovery(self, film):
        a_true = 1.0416666666666667e-06
        ests = self.make_estimates(film, [4.0, 6.0, 8.0, 10.0])
        fit = fit_parabola(ests, 0.0)
        assert fit.a == pytest.approx(a_true, rel=1e-12)
        assert fit.rms_residual < 1e-18

    def test_linear_term_consistent_with_zero(self, film):
        ests = self.make_estimates(film, [-10, -8, -6, 6, 8, 10], sigma=4e-6, seed=3)
        fit = fit_parabola(ests, 0.0, include_linear=True)
        assert abs(fit.b) < 2 * math.sqrt(fit.covariance[1, 1])

    def test_tilt_recovery(self, film):
        theta = 5e-3
        ests = self.make_estimates(
            film, [-10, -8, -6, 6, 8, 10] * 5, sigma=4e-6, seed=4, tilt=theta
        )
        fit = fit_parabola(ests, 0.0, include_linear=True)
        b_true = math.sin(theta) / film.h0_mT
        assert abs(fit.b - b_true) < 2 * math.sqrt(fit.covariance[1, 1])

    def test_threshold_filters_points(self, film):
        ests = self.make_estimates(film, [1.0, 2.0, 6.0, 8.0, 10.0])
        fit = fit_parabola(ests, 5.0)
        assert fit.n_points == 3

    def test_insufficient_data(self, film):
        ests = self.make_estimates(film, [6.0, 8.0])
        with pytest.raises(InsufficientData):
            fit_parabola(ests, 0.0)

    def test_singular_fit(self, film):
        ests = self.make_estimates(film, [7.0, 7.0, 7.0])
        with pytest.raises(SingularFit):
            fit_parabola(ests, 0.0, include_linear=True)

    def test_fields_near_zero_singular(self, film):
        # X^T X of fields of 1e-80 mT is subnormal: its inverse overflows
        ests = [ShiftEstimate(h, 1e-4, 0.0, "f") for h in (1e-80, 2e-80, 3e-80)]
        with pytest.raises(SingularFit):
            fit_parabola(ests, 0.0)

    def test_convergence_rate(self, film):
        # coefficient error shrinks ~1/sqrt(n) with replication count
        a_true = 1.0416666666666667e-06
        errs = {}
        for n in (10, 40, 160):
            reps = []
            for seed in range(30):
                ests = self.make_estimates(film, list(np.linspace(6, 10, 5)) * n, sigma=4e-6, seed=seed + n)
                reps.append(fit_parabola(ests, 0.0).a - a_true)
            errs[n] = np.std(reps)
        assert errs[40] < errs[10]
        assert errs[160] < errs[40]
        assert errs[160] == pytest.approx(errs[10] / 4, rel=0.6)


class TestDifferentialAndSensitivity:
    def run_small_campaign(self, shift_max, seed=11, noise_uK=40.0, reps=6):
        from casimirlab import CavityParams, run_campaign
        from casimirlab.config import default_film
        from casimirlab.pipeline import analyze_campaign

        film = default_film()
        cfg = default_config(
            film=film,
            cavity=CavityParams(film=film, shift_max_uK=shift_max),
            noise=NoiseModel(sigma_fast_uK=noise_uK, drift_uK_per_hr=-50.0, seed=seed),
            fields_mT=(0.5, 1.0, 2.0, 3.0, 5.0, 7.2, 8.0, 9.0, 10.0),
            replications=reps,
        )
        trips = run_campaign(cfg)
        return analyze_campaign(trips, rn_ohm=film.rn_ohm)

    def test_noiseless_gap_is_plateau(self, film):
        res = self.run_small_campaign(7.0, noise_uK=0.0, reps=1)
        assert res.differential.max_gap_uK == pytest.approx(6.85, abs=0.3)

    def test_null_cavity_consistent_with_zero(self):
        res = self.run_small_campaign(0.0, seed=21)
        d = res.differential
        assert d.max_gap_uK < 2.0 * d.sigma_at_max_uK + 1e-9

    def test_signal_detected(self):
        res = self.run_small_campaign(7.0, seed=11)
        d = res.differential
        # the maximum over the measured fields is positively biased by the
        # per-field noise, so the band is wider than the true 6.85 uK plateau
        assert 4.0 < d.max_gap_uK < 12.0
        assert d.significance > 2.0

    @staticmethod
    def grid_max_gap_uK(res):
        """Largest gap on a 241-point field grid, the cavity means interpolated between fields."""
        cavity = [e for e in res.estimates if e.kind == "cavity"]
        fields, cav_dt, _ = field_means([e.field_mT for e in cavity], [e.delta_t for e in cavity],
                                        [e.sigma_delta_t for e in cavity])
        grid = np.linspace(fields.min(), fields.max(), 241)
        tc0_K = res.tc0_K[res.film_estimates()[0].sample_id]
        return float(np.max((res.film_fit.predict(grid) - np.interp(grid, fields, cav_dt))
                            * tc0_K * 1e6))

    @pytest.mark.parametrize("shift_max, seed", [(7.0, 11), (7.0, 12), (7.0, 13), (0.0, 21)])
    def test_grid_finds_no_larger_gap(self, shift_max, seed):
        res = self.run_small_campaign(shift_max, seed=seed)
        d = res.differential
        assert res.film_fit.a > 0
        assert self.grid_max_gap_uK(res) <= d.max_gap_uK + 1e-9
        assert d.field_at_max_mT in {e.field_mT for e in res.estimates if e.kind == "cavity"}

    def test_sensitivity_identical_repeats(self, film):
        e = ShiftEstimate(7.2, 5e-5, 1e-6, "film01")
        assert estimate_sensitivity([e, e, e], film.tc0_K) == 0.0

    def test_sensitivity_known_scatter(self, film):
        rng = np.random.default_rng(8)
        s_true = 6.0  # uK
        n = 40
        reps = [
            ShiftEstimate(7.2, 5e-5 + rng.normal(0, s_true * 1e-6 / film.tc0_K), 1e-6, "f")
            for _ in range(n)
        ]
        est = estimate_sensitivity(reps, film.tc0_K)
        # chi-square 95% band for the sample std with n-1 = 39 dof:
        # chi2.ppf(0.025, 39) = 23.654, chi2.ppf(0.975, 39) = 58.120
        from math import sqrt

        lo = s_true * sqrt(23.654 / (n - 1))
        hi = s_true * sqrt(58.120 / (n - 1))
        assert lo < est < hi

    def test_sensitivity_needs_repeats(self, film):
        e = ShiftEstimate(7.2, 5e-5, 1e-6, "f")
        with pytest.raises(InsufficientData):
            estimate_sensitivity([e, e], film.tc0_K)

    def test_differential_needs_data(self, film):
        fit = fit_parabola(
            [ShiftEstimate(h, 1e-6 * h * h, 0.0, "f") for h in (6.0, 8.0, 10.0)], 0.0
        )
        with pytest.raises(InsufficientData):
            differential_signal(fit, [], film.tc0_K)


@pytest.mark.parametrize("record, key, value", [
    ("shift", "delta_t", math.nan),
    ("shift", "delta_t", -math.inf),
    ("shift", "sigma_delta_t", math.nan),
    ("shift", "sigma_delta_t", math.inf),
    ("shift", "sigma_delta_t", -1e-9),
    ("fit", "a", math.nan),
    ("fit", "b", math.inf),
    ("fit", "covariance", np.full((2, 2), math.nan)),
    ("fit", "covariance", np.array([[1e-14, math.inf], [math.inf, 1e-14]])),
    ("signal", "field_mT", np.array([math.nan, 2.0])),
    ("signal", "gap_uK", np.array([1.0, math.nan])),
    ("signal", "sigma_uK", np.array([math.inf, 1.0])),
    ("signal", "gap_uK", np.array([1.0])),
    ("shift", "field_mT", math.nan),
    ("shift", "field_mT", -math.inf),
])
def test_records_reject_non_finite_values(record, key, value):
    base = {
        "shift": ShiftEstimate(7.2, 5e-5, 1e-6, "film01"),
        "fit": analysis.FitResult(a=1e-6, b=0.0, covariance=np.eye(2) * 1e-14,
                                  rms_residual=0.0, n_points=3, field_threshold_mT=5.0),
        "signal": analysis.DifferentialSignal(
            field_mT=np.array([1.0, 2.0]), gap_uK=np.array([1.0, 2.0]),
            sigma_uK=np.array([0.5, 0.5]), max_gap_uK=2.0, field_at_max_mT=2.0,
            sigma_at_max_uK=0.5),
    }[record]
    with pytest.raises(ValueError):
        dataclasses.replace(base, **{key: value})


@functools.cache
def triplet_pool():
    """(config, triplets): a small default campaign with a zero field among its fields."""
    cfg = default_config(fields_mT=(0.0, 2.0, 5.0, 7.2, 10.0), replications=2,
                         points_per_sweep=300)
    return cfg, run_campaign(cfg)


def film_pool_fit(include_linear=False):
    """A well-conditioned film fit: a parabola with a tilt, uniform sigma."""
    ests = [ShiftEstimate(h, 1e-6 * h * h + 1e-8 * h, 4e-6, "film01")
            for h in (-10.0, -8.0, 6.0, 8.0, 10.0)]
    return fit_parabola(ests, 5.0, include_linear)


class TestSampleSigma:
    def test_three_quarters_of_the_null_pair_variance(self):
        cfg, triplets = triplet_pool()
        rn, tc0 = cfg.film.rn_ohm, cfg.film.tc0_K
        for sample_id in (cfg.film_sample_id, cfg.cavity_sample_id):
            mine = [t for t in triplets if t.sample_id == sample_id]
            u = [np.mean(np.subtract(*invert_trace([t.pre, t.post], default_levels(rn), rn)))
                 for t in mine]
            expected = math.sqrt(0.75 * np.var(u, ddof=1)) / tc0
            assert sample_sigma(triplets, sample_id, rn, tc0) == pytest.approx(expected,
                                                                               rel=1e-12)

    def test_reads_the_kept_level_temperatures(self, monkeypatch):
        cfg, triplets = triplet_pool()
        rn = cfg.film.rn_ohm
        analysis._level_temperatures([s for t in triplets for _, s in t.sweeps()], rn)
        calls = counted_inversions(monkeypatch)
        sample_sigma(triplets, cfg.film_sample_id, rn, cfg.film.tc0_K)
        assert calls == []

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_3_triplets_rejected(self, n):
        cfg, triplets = triplet_pool()
        film = [t for t in triplets if t.kind == "film"][:n]
        # a cavity triplet among them does not count for the film
        with pytest.raises(InsufficientData, match=f"needs >= 3 triplets, got {n}"):
            sample_sigma(film + triplets[1:2], cfg.film_sample_id, cfg.film.rn_ohm,
                         cfg.film.tc0_K)

    def test_analyze_campaign_carries_each_sample_sigma(self):
        cfg, triplets = triplet_pool()
        res = analyze_campaign(triplets, rn_ohm=cfg.film.rn_ohm)
        for sample_id, tc0 in res.tc0_K.items():
            sigma = sample_sigma(triplets, sample_id, cfg.film.rn_ohm, tc0)
            assert {e.sigma_delta_t for e in res.estimates if e.sample_id == sample_id} == {sigma}
        film_tc0 = res.tc0_K[cfg.film_sample_id]
        assert res.sensitivity_uK == pytest.approx(
            sample_sigma(triplets, cfg.film_sample_id, cfg.film.rn_ohm, film_tc0) * film_tc0 * 1e6,
            rel=1e-15)

    def test_lone_drift_corrected_shift_has_zero_sigma(self):
        cfg, triplets = triplet_pool()
        est = drift_corrected_shift(triplets[0], cfg.film.tc0_K, cfg.film.rn_ohm)
        assert est.sigma_delta_t == 0.0
        given = drift_corrected_shift(triplets[0], cfg.film.tc0_K, cfg.film.rn_ohm,
                                      sigma_delta_t=3e-6)
        assert (given.delta_t, given.sigma_delta_t) == (est.delta_t, 3e-6)


@pytest.mark.parametrize("tc0_K", [-1.5, -0.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["estimate_shift", "sample_sigma", "differential_signal",
                                   "estimate_sensitivity"])
def test_tc0_outside_zero_to_inf_rejected(entry, tc0_K):
    cfg, triplets = triplet_pool()
    est = ShiftEstimate(7.2, 5e-5, 1e-6, "cav01", "cavity")
    call = {
        "estimate_shift": lambda: estimate_shift(np.ones(50), np.zeros(50), tc0_K),
        "sample_sigma": lambda: sample_sigma(triplets, cfg.film_sample_id, cfg.film.rn_ohm,
                                             tc0_K),
        "differential_signal": lambda: differential_signal(
            film_pool_fit(), [est, dataclasses.replace(est, field_mT=2.0)], tc0_K),
        "estimate_sensitivity": lambda: estimate_sensitivity([est] * 3, tc0_K),
    }[entry]
    with pytest.raises(DataError, match="Tc0 must be positive and finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: field_means([1.0, 1.0], [1e308, 1e308], [1.0, 1.0]),
    lambda: field_means([1.0, 1.0], [1.0, 1.0], [1e200, 1e200]),
    lambda: estimate_sensitivity(
        [ShiftEstimate(7.2, dt, 0.0, "film01") for dt in (1e300, -1e300, 1e300)], 1.5),
], ids=["field_means mean", "field_means sigma squared", "estimate_sensitivity square"])
def test_overflow_near_float_limit_rejected(call):
    # finite inputs whose sum or square overflows: a DataError, not a RuntimeWarning and inf
    with pytest.raises(DataError, match="overflow"):
        call()


@pytest.mark.parametrize("include_linear", [False, True])
def test_fit_overflow_near_float_limit_rejected(include_linear):
    # σ² overflows in the covariance: NonFiniteResult, a NumericalError (exit 4), not a warning
    estimates = [ShiftEstimate(h, 1e-6 * h * h, 1e200, "film01") for h in (6.0, 8.0, 10.0)]
    with pytest.raises(NonFiniteResult, match="overflow"):
        fit_parabola(estimates, 0.0, include_linear)


def film_triplets(points, field, count, seed):
    """count film triplets at one field, back to back, sharing one noiseless ramp per field."""
    cfg = default_config(fields_mT=(field,), points_per_sweep=points,
                         noise=NoiseModel(DEFAULT_SIGMA_FAST_UK, DEFAULT_DRIFT_UK_PER_HR, seed))
    ramp = functools.cache(_ramp)
    slot = 3.0 * cfg.sweep_duration_s
    return cfg, [run_triplet(cfg, "film", field, slot * rep, rep, ramp=ramp)
                 for rep in range(count)]


def null_campaign(seed):
    """A null campaign of the null-scan benchmark workload (perfbench/configs.null_config):
    no cavity shift, 3 replications of 300-point, 300-s sweeps."""
    film = default_film()
    return default_config(
        film=film, cavity=CavityParams(film=film, shift_max_uK=0.0),
        noise=NoiseModel(DEFAULT_SIGMA_FAST_UK, DEFAULT_DRIFT_UK_PER_HR, seed),
        replications=3, sweep_duration_s=300.0, points_per_sweep=300)


class TestSigmaCalibration:
    """The null-pair σ matches the scatter it stands for (default noise and drift)."""

    @pytest.mark.parametrize("field", [2.0, 7.2])
    @pytest.mark.parametrize("points", [300, 1200, 4800])
    def test_scatter_over_sample_sigma_near_one(self, points, field):
        # 600 triplets: the ratio's standard error is about 4%
        cfg, trips = film_triplets(points, field, 600, seed=24)
        rn, tc0 = cfg.film.rn_ohm, cfg.film.tc0_K
        scatter = np.std([drift_corrected_shift(t, tc0, rn).delta_t for t in trips], ddof=1)
        ratio = scatter / sample_sigma(trips, cfg.film_sample_id, rn, tc0)
        assert 0.9 <= ratio <= 1.1

    def test_null_z_spread_near_one(self):
        z = []
        for seed in range(200):
            cfg = null_campaign(seed)
            d = analyze_campaign(run_campaign(cfg), rn_ohm=cfg.film.rn_ohm).differential
            z += (d.gap_uK / d.sigma_uK).tolist()
        assert 0.9 <= np.std(z) <= 1.1


# A fresh interpreter inverts the 216 sweeps of each of 4 null campaigns, 20 times once warm,
# and prints the minor page faults per invert_trace call.
FAULT_PROBE = """
import resource
from casimirlab import run_campaign
from casimirlab.analysis import default_levels, invert_trace
from test_analysis import null_campaign

campaigns = [[s for t in run_campaign(null_campaign(seed)) for _, s in t.sweeps()]
             for seed in range(4)]
rn_ohm = null_campaign(0).film.rn_ohm
levels = default_levels(rn_ohm)
for sweeps in campaigns * 2:
    invert_trace(sweeps, levels, rn_ohm)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for sweeps in campaigns * 5:
    invert_trace(sweeps, levels, rn_ohm)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="counts glibc's page faults")
def test_inversion_reuses_its_working_memory():
    # invert_trace keeps every chunk's results until the last chunk, so that glibc does not
    # trim the freed working arrays (see its comment). With glibc 2.36 this probe read
    # 1280-1310 faults per call when each chunk's results were stored at once, and 280-440
    # with them kept, over several heap layouts; the bound lies midway.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 800


# -- every analysis entry point on any input: finite values out, or an error that the
# CLI maps to exit 2, 3 or 4. Fields lie on a 0.1 mT grid within +-10 mT or are 1e-80 mT;
# shifts and sigmas take any finite value (sigmas non-negative), so that a sum or square
# may overflow; NaN and infinities stand in for a bad reading, value or Tc0.

MAPPED_ERRORS = (ConfigError, DataError, NumericalError)
SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
TC0 = st.sampled_from([1.5, -1.5, -0.0, 0.0, math.nan, math.inf, -math.inf]) | st.floats(0.5, 5.0)
FIELDS = st.sampled_from([0.0, 1e-80, 2.0, 7.2, -7.2]) | st.integers(-100, 100).map(
    lambda k: k / 10)
SHIFTS = st.floats(allow_nan=False, allow_infinity=False)
SIGMAS = st.just(0.0) | st.floats(0.0, allow_infinity=False)
SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)


def finite(*values):
    return all(np.isfinite(np.asarray(v, dtype=float)).all() for v in values)


def outcome(call):
    """call()'s result, or None when it raises an error that the CLI maps."""
    try:
        return call()
    except MAPPED_ERRORS:
        return None


@st.composite
def spoiled_arrays(draw, n, elements):
    """n values, at times one of them NaN or infinite."""
    values = np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)
    if n and draw(st.booleans()):
        values[draw(st.integers(0, n - 1))] = draw(SPECIAL)
    return values


@st.composite
def estimate_lists(draw, max_size=10):
    """Finite ShiftEstimates; their sigmas all zero, all equal or any."""
    n = draw(st.integers(0, max_size))
    fields = draw(st.lists(FIELDS, min_size=n, max_size=n))
    shifts = draw(st.lists(SHIFTS, min_size=n, max_size=n))
    spread = draw(st.sampled_from(["zero", "uniform", "any"]))
    sigmas = {"zero": [0.0] * n, "uniform": [draw(SIGMAS)] * n,
              "any": draw(st.lists(SIGMAS, min_size=n, max_size=n))}[spread]
    kind = draw(st.sampled_from(["film", "cavity"]))
    return [ShiftEstimate(h, dt, s, "s", kind) for h, dt, s in zip(fields, shifts, sigmas)]


def spoil_sweep(draw, sweep, rn_ohm):
    how = draw(st.sampled_from(["T", "R", "cut", "offset"]))
    if how == "cut":
        keep = sweep.r_meas_ohm < 0.5 * rn_ohm
        return dataclasses.replace(sweep, tau_s=sweep.tau_s[keep], t_meas_K=sweep.t_meas_K[keep],
                                   r_meas_ohm=sweep.r_meas_ohm[keep])
    if how == "offset":
        return translated(sweep, draw(st.sampled_from([1e-3, -1e-3, 1.0, 1e6])))
    name = {"T": "t_meas_K", "R": "r_meas_ohm"}[how]
    values = getattr(sweep, name).copy()
    values[draw(st.integers(0, len(values) - 1))] = draw(SPECIAL)
    return dataclasses.replace(sweep, **{name: values})


@st.composite
def triplet_sets(draw, single=False):
    """(config, triplets): one, all or some of the pool's triplets, at times one sweep
    spoiled or every reading 3 K lower (a negative Tc0)."""
    cfg, pool = triplet_pool()
    index = st.integers(0, len(pool) - 1)
    picks = draw(st.lists(index, min_size=1, max_size=1) if single else
                 st.just(range(len(pool))) | st.lists(index, unique=True, max_size=len(pool)))
    triplets = [pool[i] for i in sorted(picks)]
    spoil = draw(st.sampled_from(["none", "none", "one sweep", "all 3 K lower"]))
    if triplets and spoil == "all 3 K lower":
        triplets = [dataclasses.replace(t, **{p: translated(s, -3.0) for p, s in t.sweeps()})
                    for t in triplets]
    elif triplets and spoil == "one sweep":
        i = draw(st.integers(0, len(triplets) - 1))
        position = draw(st.sampled_from(["pre", "mid", "post"]))
        sweep = spoil_sweep(draw, getattr(triplets[i], position), cfg.film.rn_ohm)
        triplets[i] = dataclasses.replace(triplets[i], **{position: sweep})
    return cfg, triplets


class TestEntryPointsOnAnyInput:
    @given(st.sampled_from([0, 1, 2, 50]).flatmap(
        lambda n: st.tuples(spoiled_arrays(n, st.floats(1.49, 1.51)),
                            spoiled_arrays(n, st.floats(1.49, 1.51)))), TC0)
    @SETTINGS
    def test_estimate_shift(self, temperatures, tc0_K):
        delta_t = outcome(lambda: estimate_shift(*temperatures, tc0_K))
        assert delta_t is None or finite(delta_t)

    @given(triplet_sets(single=True), TC0, SIGMAS)
    @SETTINGS
    def test_drift_corrected_shift(self, triplets, tc0_K, sigma):
        cfg, [trip] = triplets
        est = outcome(lambda: drift_corrected_shift(trip, tc0_K, cfg.film.rn_ohm,
                                                    sigma_delta_t=sigma))
        assert est is None or finite(est.delta_t, est.sigma_delta_t)

    @given(triplet_sets(), st.sampled_from(["film01", "cav01"]), TC0)
    @SETTINGS
    def test_sample_sigma(self, triplets, sample_id, tc0_K):
        cfg, trips = triplets
        sigma = outcome(lambda: sample_sigma(trips, sample_id, cfg.film.rn_ohm, tc0_K))
        assert sigma is None or (finite(sigma) and sigma >= 0)

    @given(estimate_lists(), st.sampled_from([0.0, 5.0, math.nan, math.inf]) | st.floats(0, 10),
           st.booleans())
    @SETTINGS
    def test_fit_parabola(self, estimates, threshold, include_linear):
        # FitResult itself rejects a non-finite coefficient or covariance
        fit = outcome(lambda: fit_parabola(estimates, threshold, include_linear))
        assert fit is None or finite(fit.rms_residual)

    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        spoiled_arrays(n, FIELDS), spoiled_arrays(n, SHIFTS), spoiled_arrays(n, SIGMAS))))
    @SETTINGS
    def test_field_means(self, arrays):
        means = outcome(lambda: field_means(*arrays))
        assert means is None or finite(*means)

    @given(estimate_lists(), TC0, st.booleans())
    @SETTINGS
    def test_differential_signal(self, cavity, tc0_K, include_linear):
        # DifferentialSignal itself rejects non-finite arrays
        d = outcome(lambda: differential_signal(film_pool_fit(include_linear), cavity, tc0_K))
        assert d is None or finite(d.max_gap_uK, d.sigma_at_max_uK)

    @given(estimate_lists(max_size=5), TC0)
    @SETTINGS
    def test_estimate_sensitivity(self, repeats, tc0_K):
        sens = outcome(lambda: estimate_sensitivity(repeats, tc0_K))
        assert sens is None or (finite(sens) and sens >= 0)

    @given(triplet_sets(), st.sampled_from([None, None, 0.0, 6.0, math.nan]), st.booleans())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_analyze_campaign(self, triplets, threshold, include_linear):
        cfg, trips = triplets
        res = outcome(lambda: analyze_campaign(trips, cfg.film.rn_ohm, threshold, include_linear))
        assert res is None or finite(
            [e.sigma_delta_t for e in res.estimates], list(res.tc0_K.values()),
            res.sensitivity_uK, res.film_fit.rms_residual)
