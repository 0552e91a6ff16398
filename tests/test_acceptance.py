"""Acceptance gate: one numbered check per release criterion.

Each test prints a single ``criterion NN <label>: PASS/FAIL`` line (run
pytest with -s to see them on passing runs) and then asserts. The checks
exercise the shipped defaults end to end: closed-form anchors, estimator
exactness, drift cancellation, the calibrated Monte Carlo reproduction of
the target shift / sensitivity / differential-signal numbers, tilt
recovery and byte-level determinism of the CLI pipeline.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import casimirlab as cl
from casimirlab.analysis import (
    ShiftEstimate,
    default_levels,
    drift_corrected_shift,
    estimate_shift,
    estimate_sensitivity,
    invert_trace,
)
from casimirlab.cli import main
from casimirlab.config import default_config, default_film
from casimirlab.io import normalized_manifest_bytes
from casimirlab.physics import (
    FilmParams,
    ThermalEnvironment,
    cavity_energy_ratio,
    critical_field,
    delta_t_of_field,
    thermal_enhancement,
    thermal_enhancement_approx,
)
from casimirlab.pipeline import sample_tc0
from casimirlab.simulate import NoiseModel, SweepTrace, TripletRecord

RN = 300.0


def report(num, label, ok, detail=""):
    line = f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def one_sided_shift(zero, field, tc0_K, rn_ohm):
    """ShiftEstimate of one in-field sweep against one zero-field sweep."""
    levels = default_levels(rn_ohm)
    t_zero, t_field = invert_trace([zero, field], levels, rn_ohm)
    delta_t = estimate_shift(t_zero, t_field, tc0_K)
    return ShiftEstimate(field.field_mT, delta_t, 0.0, field.sample_id, field.kind)


def logistic_trace(tc_K, width_mK, rn_ohm, t_grid, field_mT=0.0, sample_id="s"):
    w_e = width_mK * 1e-3 / (2.0 * math.log(9.0))
    r = rn_ohm * 0.5 * (1.0 + np.tanh(0.5 * (t_grid - tc_K) / w_e))
    return SweepTrace(
        sample_id=sample_id,
        kind="film",
        field_mT=field_mT,
        t_start_s=0.0,
        tau_s=np.arange(len(t_grid), dtype=float),
        t_meas_K=t_grid,
        r_meas_ohm=r,
    )


def test_criterion_01_thermal_enhancement():
    env = ThermalEnvironment(t_env_K=300.0, x_eff=10.0)
    exact = thermal_enhancement(1.5, env)
    approx = thermal_enhancement_approx(1.5, env)
    ok = abs(exact - 39.01) <= 0.01 and abs(approx - 40.00) <= 0.005
    report(1, "thermal enhancement factor", ok, f"exact {exact:.4f}, approx {approx:.2f}")


def test_criterion_02_field_round_trip():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10_000):
        film = FilmParams(
            thickness_nm=rng.uniform(5, 50),
            lambda0_nm=rng.uniform(50, 500),
            h0_mT=rng.uniform(1, 100),
            tc0_K=rng.uniform(0.5, 10),
            rn_ohm=RN,
            width_mK=1.0,
        )
        t = rng.uniform(0.0, 0.999999)
        dt_back = delta_t_of_field(film, critical_field(film, t))
        worst = max(worst, abs(dt_back - (1.0 - t)) / (1.0 - t))
    ok = worst < 1e-12
    report(2, "critical-field round trip", ok, f"worst relative error {worst:.2e}")


def test_criterion_03_energy_ratio_anchors():
    half = cavity_energy_ratio(10.0, 10.0, 1.15)
    value = cavity_energy_ratio(6.0, 10.0, 1.15)
    ok = half == 0.5 and abs(value - 0.6428) <= 5e-4
    report(3, "cavity energy ratio anchors", ok, f"ratio(6,10) = {value:.6f}")


def test_criterion_04_estimator_exactness():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        tc = rng.uniform(0.5, 5.0)
        width = rng.uniform(0.2, 5.0)
        rn = rng.uniform(10, 1000)
        n = int(rng.integers(200, 2000))
        shift = rng.uniform(1e-6, 5e-4) * tc
        half = 6.0 * width * 1e-3
        grid = np.linspace(tc - half, tc + half, n)
        zero = logistic_trace(tc, width, rn, grid)
        moved = logistic_trace(tc - shift, width, rn, grid - shift, field_mT=5.0)
        est = one_sided_shift(zero, moved, tc, rn_ohm=rn)
        worst = max(worst, abs(est.delta_t - shift / tc))
    ok = worst < 1e-10
    report(4, "shift estimator exactness", ok, f"worst delta_t error {worst:.2e}")


def test_criterion_05_drift_cancellation():
    cfg = default_config(
        noise=NoiseModel(sigma_fast_uK=0.0, drift_uK_per_hr=-50.0, seed=0),
        fields_mT=(7.2,),
    )
    trip = cl.run_triplet(cfg, "film", 7.2, 0.0)
    tc0 = cfg.film.tc0_K
    true_uK = delta_t_of_field(cfg.film, 7.2) * tc0 * 1e6

    corrected = drift_corrected_shift(trip, tc0, rn_ohm=RN).shift_uK(tc0)
    before = one_sided_shift(trip.pre, trip.mid, tc0, rn_ohm=RN).shift_uK(tc0)
    after = one_sided_shift(trip.post, trip.mid, tc0, rn_ohm=RN).shift_uK(tc0)

    # one-sided bias: -drift * spacing (pre leads the field sweep, post trails)
    bias_uK = -cfg.noise.drift_uK_per_hr * cfg.sweep_duration_s / 3600.0
    ok = (
        abs(corrected - true_uK) < 0.01
        and abs(before - (true_uK + bias_uK)) < 0.01
        and abs(after - (true_uK - bias_uK)) < 0.01
    )
    report(
        5,
        "triplet drift cancellation",
        ok,
        f"corrected bias {corrected - true_uK:+.4f} uK, one-sided {before - true_uK:+.2f}/{after - true_uK:+.2f} uK",
    )


def test_criterion_06_target_shift_recovery():
    cfg = default_config(fields_mT=(7.2,))
    quiet = replace(cfg, noise=NoiseModel(seed=0))
    trip = cl.run_triplet(quiet, "film", 7.2, 0.0)
    noiseless = drift_corrected_shift(trip, cfg.film.tc0_K, rn_ohm=RN).shift_uK(cfg.film.tc0_K)

    shifts = []
    for seed in range(100):
        noisy = replace(cfg, noise=replace(cfg.noise, seed=seed))
        trip = cl.run_triplet(noisy, "film", 7.2, 0.0)
        trips = [trip]
        tc0 = sample_tc0(trips, trip.sample_id, RN)
        shifts.append(drift_corrected_shift(trip, tc0, rn_ohm=RN).shift_uK(tc0))
    mean = float(np.mean(shifts))
    ok = abs(noiseless - 81.0) < 0.1 and abs(mean - 80.0) <= 3.0
    report(6, "target shift recovery", ok, f"noiseless {noiseless:.2f} uK, noisy mean {mean:.2f} uK")


def test_criterion_07_sensitivity():
    cfg = default_config(fields_mT=(7.2,), replications=24)
    trips = [t for t in cl.run_campaign(cfg) if t.kind == "film"]
    tc0 = sample_tc0(trips, cfg.film_sample_id, RN)
    reps = [drift_corrected_shift(t, tc0, rn_ohm=RN) for t in trips]
    sens = estimate_sensitivity(reps, tc0)
    ok = abs(sens - 6.0) <= 1.5
    report(7, "single-measurement sensitivity", ok, f"{sens:.2f} uK over {len(reps)} repeats")


def test_criterion_08_differential_signal():
    # the signal campaign must be significant after the look-elsewhere correction and its
    # template amplitude must agree with the configured plateau; the null campaign must
    # be neither. The two campaigns share seed and schedule, so they draw the same noise:
    # their amplitudes' difference holds the pipeline's response to the stated shift
    # alone, to within 1% (a cavity shift off by 20% is 1.4 uK, only about 2 sigma_A).
    # The largest gap, biased upward by the maximum over the fields, is shown.
    cfg = default_config(replications=10)
    res = cl.analyze_campaign(cl.run_campaign(cfg), RN, config=cfg)
    d, (a, sigma_a, stated) = res.differential, res.amplitude_uK

    null_cfg = replace(cfg, cavity=replace(cfg.cavity, shift_max_uK=0.0))
    null_res = cl.analyze_campaign(cl.run_campaign(null_cfg), RN, config=null_cfg)
    null, (null_a, null_sigma_a, _) = null_res.differential, null_res.amplitude_uK

    ok = (
        d.p_global < 0.01
        and abs(a - stated) / sigma_a < 3.0
        and abs(a - null_a - stated) < 0.01 * stated
        and null.p_global >= 0.01
        and abs(null_a) / null_sigma_a < 3.0
    )
    report(
        8,
        "differential cavity signal",
        ok,
        f"p_global {d.p_global:.2g}, amplitude {a:.2f} +- {sigma_a:.2f} uK for {stated:g}; "
        f"null p_global {null.p_global:.2g}, amplitude {null_a:.2f} +- {null_sigma_a:.2f} uK; "
        f"difference {a - null_a:.4f} uK; "
        f"max gap {d.max_gap_uK:.2f} +- {d.sigma_at_max_uK:.2f} uK (largest z "
        f"{d.significance:.1f}), null {null.max_gap_uK:.2f} +- {null.sigma_at_max_uK:.2f} uK",
    )


def test_criterion_09_thermal_scenario():
    cfg = default_config(replications=10, thermal=ThermalEnvironment())
    d = cl.analyze_campaign(cl.run_campaign(cfg), RN).differential
    ok = 240.0 <= d.max_gap_uK <= 320.0
    report(9, "thermal-photon scenario", ok, f"max gap {d.max_gap_uK:.1f} uK at {d.field_at_max_mT:.1f} mT")


def test_criterion_10_tilt_recovery():
    fields = (-10.0, -9.0, -8.0, -7.2, -6.0, 6.0, 7.2, 8.0, 9.0, 10.0)
    theta = 5e-3

    def fitted_b(theta_rad):
        film = replace(default_film(), theta_rad=theta_rad)
        cfg = default_config(film=film, fields_mT=fields, replications=3)
        fit = cl.analyze_campaign(
            cl.run_campaign(cfg),
            RN,
            fit_threshold_mT=6.0,
            include_linear=True,
        ).film_fit
        return fit.b, math.sqrt(fit.covariance[1, 1])

    b, sigma_b = fitted_b(theta)
    b_true = math.sin(theta) / default_film().h0_mT
    b0, sigma_b0 = fitted_b(0.0)
    ok = abs(b - b_true) <= 2.0 * sigma_b and abs(b0) <= 2.0 * sigma_b0
    report(
        10,
        "tilt-term recovery",
        ok,
        f"pull {(b - b_true) / sigma_b:+.2f} at 5 mrad, null pull {b0 / sigma_b0:+.2f}",
    )


DETERMINISM_CONFIG = """
[film]
thickness_nm = 14
lambda0_nm = 280
h0_mT = 10
tc0_K = 1.5
rn_ohm = 300
width_mK = 1.0

[cavity]
shift_max_uK = 7.0
h_rise_mT = 1.0
h_merge_mT = 20.0

[noise]
sigma_fast_uK = 40
drift_uK_per_hr = -50
seed = 20260828

[campaign]
fields_mT = 2 5 7.2 9 10
replications = 2
points_per_sweep = 300
sweep_duration_s = 300
"""


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "campaign.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    runner = CliRunner()

    def pipeline(out):
        for args in (
            ["simulate", "--config", str(cfg), "--out", str(out)],
            ["analyze", str(out)],
            ["report", str(out)],
        ):
            result = runner.invoke(main, args, catch_exceptions=False)
            assert result.exit_code == 0, result.output
        chunks = [normalized_manifest_bytes(out), (out / "sweeps.npy").read_bytes()]
        for sub in ("analysis", "report"):
            for path in sorted((out / sub).iterdir()):
                chunks.append(path.name.encode() + path.read_bytes())
        return b"".join(chunks)

    ok = pipeline(tmp_path / "a") == pipeline(tmp_path / "b")
    report(11, "byte-identical determinism", ok, f"rerun {ok}")
