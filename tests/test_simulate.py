"""Simulator tests: determinism, drift, scheduling and campaign structure."""

import dataclasses
import math

import numpy as np
import pytest

from casimirlab import (
    CavityParams,
    NoiseModel,
    ThermalEnvironment,
    TripletRecord,
    delta_t_of_field,
    generate_sweep,
    run_campaign,
    run_triplet,
    simulate,
)
from casimirlab.config import default_config
from casimirlab.errors import ConfigError
from casimirlab.physics import transition_midpoint, transition_width_e
from casimirlab.simulate import campaign_schedule, sweep_rng


def invert_noiseless(trace, film, level_ohm):
    """Grid interpolation of T at one resistance level for a clean sweep."""
    return float(np.interp(level_ohm, trace.r_meas_ohm, trace.t_meas_K))


class TestGenerateSweep:
    def test_noiseless_on_model_sigmoid(self, film, quiet_noise):
        tr = generate_sweep(film, 3.0, quiet_noise, 0.0, 1200.0, 400)
        # invert at the midpoint level and recover Tc(H) within grid resolution
        tc = invert_noiseless(tr, film, film.rn_ohm / 2)
        grid_step = (tr.t_meas_K[-1] - tr.t_meas_K[0]) / (tr.n_points - 1)
        assert abs(tc - transition_midpoint(film, 3.0)) < grid_step

    def test_analytic_sigmoid_values(self, film, quiet_noise):
        tr = generate_sweep(film, 0.0, quiet_noise, 0.0, 1200.0, 400)
        w_e = transition_width_e(film)
        tc = transition_midpoint(film, 0.0)
        expected = film.rn_ohm / (1.0 + np.exp(-(tr.t_meas_K - tc) / w_e))
        assert np.allclose(tr.r_meas_ohm, expected, rtol=1e-12, atol=1e-12)

    def test_drift_shifts_apparent_temperature(self, film):
        noise = NoiseModel(sigma_fast_uK=0.0, drift_uK_per_hr=-50.0, seed=3)
        a = generate_sweep(film, 0.0, noise, 0.0, 1200.0, 200)
        b = generate_sweep(film, 0.0, noise, 3600.0, 1200.0, 200)
        # identical R values occur at apparent temperatures 50 uK apart
        assert np.allclose(a.r_meas_ohm, b.r_meas_ohm)
        np.testing.assert_allclose(b.t_meas_K - a.t_meas_K, -50e-6, rtol=1e-9)

    def test_same_seed_bit_identical(self, film):
        noise = NoiseModel(sigma_fast_uK=25.0, drift_uK_per_hr=-50.0, seed=99)
        a = generate_sweep(film, 3.0, noise, 0.0, 1200.0, 300, sample_id="s")
        b = generate_sweep(film, 3.0, noise, 0.0, 1200.0, 300, sample_id="s")
        assert np.array_equal(a.t_meas_K, b.t_meas_K)
        assert np.array_equal(a.r_meas_ohm, b.r_meas_ohm)

    def test_different_subseed_inputs_decorrelate(self, film):
        noise = NoiseModel(sigma_fast_uK=25.0, seed=99)
        a = generate_sweep(film, 3.0, noise, 0.0, 1200.0, 300, sample_id="s")
        b = generate_sweep(film, 3.0, noise, 0.0, 1200.0, 300, sample_id="t")
        c = generate_sweep(film, 3.0, noise, 60.0, 1200.0, 300, sample_id="s")
        assert not np.array_equal(a.t_meas_K, b.t_meas_K)
        assert not np.array_equal(a.t_meas_K[:50], c.t_meas_K[:50])

    def test_point_count_floor(self, film, quiet_noise):
        with pytest.raises(ConfigError):
            generate_sweep(film, 0.0, quiet_noise, 0.0, 1200.0, 10)

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_positive_and_finite(self, film, quiet_noise, duration_s):
        with pytest.raises(ConfigError, match="positive and finite"):
            generate_sweep(film, 0.0, quiet_noise, 0.0, duration_s, 100)

    def test_sample_record_sets_kind(self, film, cavity, quiet_noise):
        for sample, kind in ((film, "film"), (cavity, "cavity")):
            tr = generate_sweep(sample, 3.0, quiet_noise, 0.0, 1200.0, 100)
            assert (tr.kind, tr.sample_id) == (kind, kind)

    def test_signed_field_symmetry_noiseless(self, film, quiet_noise):
        plus = generate_sweep(film, 7.2, quiet_noise, 0.0, 1200.0, 200)
        minus = generate_sweep(film, -7.2, quiet_noise, 0.0, 1200.0, 200)
        # theta = 0: the quadratic term is even, transitions coincide
        assert np.allclose(plus.t_meas_K, minus.t_meas_K, rtol=0, atol=1e-15)
        assert np.allclose(plus.r_meas_ohm, minus.r_meas_ohm)

    def test_signed_field_tilt_offset(self, quiet_noise, film):
        tilted = dataclasses.replace(film, theta_rad=5e-3)
        plus = generate_sweep(tilted, 7.2, quiet_noise, 0.0, 1200.0, 200)
        minus = generate_sweep(tilted, -7.2, quiet_noise, 0.0, 1200.0, 200)
        expected = 2 * np.sin(5e-3) * 7.2 / film.h0_mT
        dt_plus = delta_t_of_field(tilted, 7.2)
        dt_minus = delta_t_of_field(tilted, -7.2)
        assert dt_plus - dt_minus == pytest.approx(expected, rel=1e-12)
        # windows track Tc(H), so the sweeps are rigidly displaced by the tilt term
        shift = plus.t_meas_K - minus.t_meas_K
        np.testing.assert_allclose(shift, -expected * film.tc0_K, rtol=1e-9)

    @pytest.mark.parametrize("column", ["tau_s", "t_meas_K", "r_meas_ohm"])
    def test_sweep_arrays_must_have_one_length(self, film, quiet_noise, column):
        # 200 readings in two columns and 150 in the third
        tr = generate_sweep(film, 0.0, quiet_noise, 0.0, 1200.0, 200)
        with pytest.raises(ValueError, match="^sweep arrays must have one length$"):
            dataclasses.replace(tr, **{column: getattr(tr, column)[:150]})


class TestRunTriplet:
    def test_schedule_symmetry(self, noiseless_config):
        trip = run_triplet(noiseless_config, "film", 7.2, 0.0)
        assert trip.mid.t_start_s - trip.pre.t_start_s == trip.post.t_start_s - trip.mid.t_start_s
        assert trip.pre.field_mT == trip.post.field_mT == 0.0

    def test_fig5_shift_80uK(self, noiseless_config, film):
        trip = run_triplet(noiseless_config, "film", 7.2, 0.0)
        mid_tc = invert_noiseless(trip.mid, film, film.rn_ohm / 2)
        pre_tc = invert_noiseless(trip.pre, film, film.rn_ohm / 2)
        assert (pre_tc - mid_tc) * 1e6 == pytest.approx(81.0, abs=0.5)

    def test_zero_field_triplet_flat(self, noiseless_config, film):
        trip = run_triplet(noiseless_config, "film", 0.0, 0.0)
        for _, tr in trip.sweeps():
            assert np.array_equal(tr.r_meas_ohm, trip.pre.r_meas_ohm)
            assert np.array_equal(tr.t_meas_K, trip.pre.t_meas_K)

    def test_cavity_sees_inhomogeneous_field(self, noiseless_config):
        trip = run_triplet(noiseless_config, "cavity", 7.2, 0.0)
        assert trip.mid.field_mT == pytest.approx(7.2 * (1 + 1e-4), rel=1e-12)
        assert trip.field_mT == 7.2

    @pytest.mark.parametrize("swap", [
        {"field_mT": 7.2}, {"kind": "cavity"}, {"sample_id": "cav01"},
    ])
    @pytest.mark.parametrize("position", ["pre", "post"])
    def test_rejects_inconsistent_zero_field_sweep(self, noiseless_config, position, swap):
        trip = run_triplet(noiseless_config, "film", 7.2, 0.0)
        sweeps = dict(trip.sweeps())
        sweeps[position] = dataclasses.replace(sweeps[position], **swap)
        with pytest.raises(ValueError, match="zero field|one sample_id and kind"):
            TripletRecord(**sweeps, field_mT=7.2)


class TestRunCampaign:
    def test_counts_and_kinds(self, quiet_noise):
        cfg = default_config(noise=quiet_noise, fields_mT=(0.0,), replications=1)
        trips = run_campaign(cfg)
        assert len(trips) == 2
        assert {t.kind for t in trips} == {"film", "cavity"}

    def test_clock_monotone(self, quiet_noise):
        cfg = default_config(noise=quiet_noise, fields_mT=(1.0, 2.0), replications=2)
        starts = [t0 for _, _, _, t0 in campaign_schedule(cfg)]
        assert starts == sorted(starts)

    def test_order_independent_results(self, quiet_noise):
        # run_campaign shares ramps through its memo; run_triplet alone
        # computes each sweep's ramp afresh: the bytes must agree
        noise = dataclasses.replace(quiet_noise, sigma_fast_uK=30.0, drift_uK_per_hr=-50.0)
        for fields, extra in (
            ((1.0, 4.0), {}),
            # 0.0 and -0.0 are one key of run_campaign's ramp memo
            ((-0.0, 0.0, -7.2, 7.2), {}),
            ((1.0, 4.0), {"thermal": ThermalEnvironment(), "homogeneity": 3e-3}),
        ):
            cfg = default_config(noise=noise, fields_mT=fields, replications=2,
                                 points_per_sweep=100, **extra)
            forward = run_campaign(cfg)
            backward = [
                run_triplet(cfg, kind, h, t0, rep)
                for kind, h, rep, t0 in reversed(campaign_schedule(cfg))
            ][::-1]
            assert len(forward) == len(backward) == 4 * len(fields)
            for a, b in zip(forward, backward):
                assert a.kind == b.kind and a.field_mT == b.field_mT
                for (_, ta), (_, tb) in zip(a.sweeps(), b.sweeps()):
                    assert math.copysign(1, ta.field_mT) == math.copysign(1, tb.field_mT)
                    for name in ("tau_s", "t_meas_K", "r_meas_ohm"):
                        assert getattr(ta, name).tobytes() == getattr(tb, name).tobytes()

    def test_each_distinct_ramp_computed_once_per_campaign(self, quiet_noise, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return resistance_curve(*args, **kwargs)

        resistance_curve = simulate.resistance_curve
        monkeypatch.setattr(simulate, "resistance_curve", counting)
        cfg = default_config(noise=quiet_noise, fields_mT=(1.0, 4.0), replications=2,
                             points_per_sweep=100)
        # 24 sweeps; ramps: zero field and two fields, per sample
        trips = run_campaign(cfg)
        assert len(trips) * 3 == 24 and len(calls) == 6
        # the memo lives for one call only
        run_campaign(cfg)
        assert len(calls) == 12
        for _, sweep in trips[0].sweeps():
            for array in (sweep.tau_s, sweep.r_meas_ohm):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0

    def test_cavity_film_must_be_campaign_film(self, film):
        # the manifest snapshot stores one film, which the cavity sweeps would
        # be re-simulated from
        other = CavityParams(film=dataclasses.replace(film, tc0_K=1.6))
        with pytest.raises(ValueError, match="campaign film"):
            default_config(film=film, cavity=other)

    def test_homogeneity_effect_is_tiny(self, quiet_noise, film):
        # 1e-4 relative field error at 7.2 mT moves delta_t*Tc0 by well
        # under 0.1 uK (2*a*H*dH through the quadratic law)
        d = (delta_t_of_field(film, 7.2 * (1 + 1e-4)) - delta_t_of_field(film, 7.2))
        assert 0 < d * film.tc0_K * 1e6 < 0.02

    def test_thermal_scenario_scales_cavity_gap(self, quiet_noise, film, cavity):
        from casimirlab import ThermalEnvironment, thermal_enhancement

        cfg = default_config(
            noise=quiet_noise,
            fields_mT=(3.0,),
            replications=1,
            thermal=ThermalEnvironment(),
        )
        assert cfg.enhancement == pytest.approx(39.0083, abs=1e-3)
        trips = {t.kind: t for t in run_campaign(cfg)}
        film_tc = invert_noiseless(trips["film"].mid, film, film.rn_ohm / 2)
        cav_tc = invert_noiseless(trips["cavity"].mid, film, film.rn_ohm / 2)
        gap_uK = (cav_tc - film_tc) * 1e6
        from casimirlab import cavity_shift

        expected = cavity_shift(cavity, 3.0, cfg.enhancement)
        assert gap_uK == pytest.approx(expected, abs=0.5)
        assert 240 < gap_uK < 320


@pytest.mark.parametrize("record, key, value", [
    *[("film", key, math.nan) for key in
      ("thickness_nm", "lambda0_nm", "h0_mT", "tc0_K", "rn_ohm", "width_mK", "theta_rad")],
    ("film", "tc0_K", math.inf),
    ("cavity", "shift_max_uK", math.nan),
    ("cavity", "shift_max_uK", math.inf),
    ("cavity", "h_rise_mT", math.nan),
    ("cavity", "h_merge_mT", math.nan),
    ("thermal", "t_env_K", math.nan),
    ("thermal", "t_env_K", math.inf),
    ("thermal", "x_eff", math.nan),
    ("noise", "sigma_fast_uK", math.nan),
    ("noise", "sigma_fast_uK", math.inf),
    ("noise", "drift_uK_per_hr", math.nan),
    ("noise", "drift_uK_per_hr", -math.inf),
    ("campaign", "fields_mT", (1.0, math.nan)),
    ("campaign", "fields_mT", (math.inf,)),
    ("campaign", "sweep_duration_s", math.nan),
    ("campaign", "sweep_duration_s", math.inf),
    ("campaign", "points_per_sweep", math.nan),
    ("campaign", "replications", math.nan),
    ("campaign", "homogeneity", math.nan),
    ("campaign", "homogeneity", math.inf),
])
def test_records_reject_non_finite_values(record, key, value):
    cfg = default_config()
    base = {"film": cfg.film, "cavity": cfg.cavity, "thermal": ThermalEnvironment(),
            "noise": cfg.noise, "campaign": cfg}[record]
    with pytest.raises(ValueError):
        dataclasses.replace(base, **{key: value})


class TestSubSeeding:
    def test_rng_is_pure_function(self):
        a = sweep_rng(5, "x", 7.2, 100.0).normal(size=4)
        b = sweep_rng(5, "x", 7.2, 100.0).normal(size=4)
        assert np.array_equal(a, b)

    def test_rng_sensitive_to_every_component(self):
        base = sweep_rng(5, "x", 7.2, 100.0).normal(size=4)
        for rng in (
            sweep_rng(6, "x", 7.2, 100.0),
            sweep_rng(5, "y", 7.2, 100.0),
            sweep_rng(5, "x", 7.3, 100.0),
            sweep_rng(5, "x", 7.2, 101.0),
        ):
            assert not np.array_equal(base, rng.normal(size=4))
