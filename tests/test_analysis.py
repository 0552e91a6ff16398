"""Estimator tests: inversion, shift estimation, drift correction, fits."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimirlab import (
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
    run_triplet,
)
from casimirlab import analysis
from casimirlab.analysis import (
    LEVEL_CORRELATION_FACTOR,
    _quadratic_fit,
    default_levels,
    pav_increasing,
)
from casimirlab.config import default_config
from casimirlab.errors import (
    IncompleteTransition,
    InsufficientData,
    NonMonotonic,
    SingularFit,
)
from casimirlab.physics import transition_midpoint, transition_width_e


def make_trace(t, r, field=0.0, sample_id="s", kind="film", t_start=0.0):
    t = np.asarray(t, dtype=float)
    return SweepTrace(sample_id, kind, field, t_start, np.arange(len(t), dtype=float), t, np.asarray(r, dtype=float))


def translated(trace, dT):
    return dataclasses.replace(trace, t_meas_K=trace.t_meas_K + dT)


def logistic_trace(film, n=400, field=0.0, t_start=0.0):
    noise = NoiseModel(seed=0)
    return generate_sweep("film", film, field, noise, t_start, 1200.0, n)


def one_sided_shift(zero, field, tc0_K, rn_ohm, levels=None):
    """ShiftEstimate of one in-field sweep against one zero-field sweep."""
    levels = default_levels(rn_ohm) if levels is None else levels
    t_zero, t_field = (invert_trace(s, levels, rn_ohm) for s in (zero, field))
    delta_t, sigma = estimate_shift(t_zero, t_field, tc0_K)
    return ShiftEstimate(field.field_mT, delta_t, sigma, field.sample_id, field.kind)


def drift_corrected_shift_reference(triplet, tc0_K, rn_ohm):
    """The former two-call estimator: each one-sided estimate inverts both of
    its sweeps, so the mid sweep is inverted twice. Returns (delta_t, sigma)."""
    levels = default_levels(rn_ohm)
    n_eff = max(1.0, len(levels) / LEVEL_CORRELATION_FACTOR)
    sides = []
    for zero in (triplet.pre, triplet.post):
        diffs = invert_trace(zero, levels, rn_ohm) - invert_trace(triplet.mid, levels, rn_ohm)
        sigma = float(np.std(diffs, ddof=1)) / np.sqrt(n_eff) / tc0_K
        sides.append((float(np.mean(diffs)) / tc0_K, sigma))
    (before, sigma_before), (after, sigma_after) = sides
    return 0.5 * (before + after), float(0.5 * np.hypot(sigma_before, sigma_after))


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


def tc0_lstsq_reference(trace, rn_ohm, window_frac=0.05):
    """extract_tc0 with one np.linalg.lstsq per window, for comparison."""
    order = np.argsort(trace.t_meas_K, kind="stable")
    t, r = trace.t_meas_K[order], trace.r_meas_ohm[order]
    n = len(t)
    w = max(5, int(round(window_frac * n)) | 1)
    half = w // 2
    cand = np.nonzero((r > 0.05 * rn_ohm) & (r < 0.95 * rn_ohm))[0]
    cand = cand[(cand >= half) & (cand < n - half)]

    def quadratic(x, y):
        return np.linalg.lstsq(np.vander(x, 3, increasing=True), y, rcond=None)[0]

    deriv = np.array(
        [quadratic(t[c - half:c + half + 1] - t[c], r[c - half:c + half + 1])[1] for c in cand]
    )
    peak = int(np.argmax(deriv))
    lo, hi = max(0, peak - half), min(len(cand), peak + half + 1)
    x = t[cand[lo:hi]] - t[cand[peak]]
    _, c1, c2 = quadratic(x, deriv[lo:hi])
    vertex = -c1 / (2.0 * c2)
    assert c2 < 0 and abs(vertex) <= 0.5 * np.ptp(x)
    return t[cand[peak]] + vertex


class TestQuadraticFit:
    def test_matches_polyfit_on_centred_windows(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(3, 80))
            scale = 10.0 ** rng.uniform(-6, 1)
            x = np.sort(rng.uniform(-scale, scale, k))
            y = rng.normal(0.0, 1.0, 3) @ np.vstack([np.ones(k), x / scale, (x / scale) ** 2])
            y += rng.normal(0.0, 0.1, k)
            got = np.array(_quadratic_fit(x, y))
            np.testing.assert_allclose(got, np.polyfit(x, y, 2)[::-1], rtol=1e-9)

    @pytest.mark.parametrize("n", [300, 1200])
    def test_extract_tc0_matches_lstsq_reference(self, film, n):
        for seed in range(5):
            noise = NoiseModel(sigma_fast_uK=3.0, seed=seed)
            tr = generate_sweep("film", film, 0.0, noise, 0.0, 1200.0, n)
            assert extract_tc0(tr, film.rn_ohm) == pytest.approx(
                tc0_lstsq_reference(tr, film.rn_ohm), abs=1e-12
            )


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

    def test_quantized_temperatures_singular(self):
        # 0.4 mK read-out steps put fewer than 3 distinct T in some windows
        t = np.repeat(1.5 + np.arange(-12, 12) * 4e-4, 25)
        r = 300.0 / (1.0 + np.exp(-(t - 1.5) / 1e-3))
        with pytest.raises(SingularFit):
            extract_tc0(make_trace(t, r), 300.0)

    def test_noisy_recovery_within_10uK(self, film):
        errs = []
        for seed in range(100):
            noise = NoiseModel(sigma_fast_uK=3.0, seed=seed)
            tr = generate_sweep("film", film, 0.0, noise, 0.0, 1200.0, 1200)
            errs.append(abs(extract_tc0(tr, film.rn_ohm) - film.tc0_K))
        assert np.percentile(errs, 95) < 10e-6


class TestInvertTrace:
    def test_noiseless_matches_analytic_inverse(self, film):
        tr = logistic_trace(film, n=1200, field=3.0)
        levels = default_levels(film.rn_ohm)
        t_at = invert_trace(tr, levels, film.rn_ohm)
        w_e = transition_width_e(film)
        tc = transition_midpoint(film, 3.0)
        analytic = tc + w_e * np.log(levels / (film.rn_ohm - levels))
        grid_step = 10 * film.width_mK * 1e-3 / 1199
        assert np.max(np.abs(t_at - analytic)) < grid_step

    def test_midpoint_level_matches_tc0_extraction(self, film):
        tr = logistic_trace(film, n=1200)
        t_at = invert_trace(tr, [film.rn_ohm / 2], film.rn_ohm)
        assert t_at[0] == pytest.approx(extract_tc0(tr, film.rn_ohm), abs=2e-5)

    def test_levels_outside_window_rejected(self, film):
        tr = logistic_trace(film)
        with pytest.raises(ValueError):
            invert_trace(tr, [0.1 * film.rn_ohm], film.rn_ohm)

    def test_noisy_averaging_gain(self, film):
        # mean absolute deviation from the analytic inverse beats the raw noise
        sigma_uK = 20.0
        w_e = transition_width_e(film)
        devs = []
        for seed in range(30):
            noise = NoiseModel(sigma_fast_uK=sigma_uK, seed=seed)
            tr = generate_sweep("film", film, 0.0, noise, 0.0, 1200.0, 1200)
            levels = default_levels(film.rn_ohm)
            t_at = invert_trace(tr, levels, film.rn_ohm)
            analytic = film.tc0_K + w_e * np.log(levels / (film.rn_ohm - levels))
            devs.append(np.mean(np.abs(t_at - analytic)))
        assert np.mean(devs) < sigma_uK * 1e-6

    def test_garbage_trace_rejected(self, film):
        t = np.linspace(film.tc0_K - 5e-3, film.tc0_K + 5e-3, 200)
        r = np.linspace(film.rn_ohm, 0.0, 200)  # backwards transition
        with pytest.raises(NonMonotonic):
            invert_trace(make_trace(t, r), [150.0], film.rn_ohm)


class TestEstimateShift:
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
        zero = generate_sweep("film", film, 0.0, noise, 0.0, 1200.0, 64)
        at_field = generate_sweep("film", film, 7.2, noise, 1200.0, 1200.0, 64)
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
            delta_t, sigma = drift_corrected_shift_reference(trip, cfg.film.tc0_K, rn)
            assert est.delta_t == delta_t and est.sigma_delta_t == sigma

    def test_inverts_each_sweep_once(self, film, monkeypatch):
        calls = []
        original = analysis.invert_trace

        def counting(trace, r_levels, rn_ohm):
            calls.append(trace)
            return original(trace, r_levels, rn_ohm)

        monkeypatch.setattr(analysis, "invert_trace", counting)
        cfg = default_config(noise=NoiseModel(sigma_fast_uK=20.0, seed=3), fields_mT=(7.2,))
        trip = run_triplet(cfg, "film", 7.2, 0.0)
        drift_corrected_shift(trip, film.tc0_K, rn_ohm=film.rn_ohm)
        assert [id(c) for c in calls] == [id(trip.pre), id(trip.mid), id(trip.post)]

    def test_scatter_near_6uK(self, film):
        cfg = default_config(fields_mT=(7.2,), replications=50)
        from casimirlab import run_campaign

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
        # max-over-grid is positively biased by the per-field noise, so the
        # band is wider than the true 6.85 uK plateau
        assert 4.0 < d.max_gap_uK < 12.0
        assert d.significance > 2.0

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
