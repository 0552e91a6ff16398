"""CLI and file-format tests: config parsing, manifest, determinism, exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from casimirlab.cli import main
from casimirlab.config import config_from_dict, config_to_dict, default_config, load_config, write_example_config
from casimirlab.errors import ConfigError, IncompleteTriplet
from casimirlab.io import load_dataset, normalized_manifest_bytes, read_manifest

SMALL_CONFIG = """
[film]
thickness_nm = 14
lambda0_nm = 280
h0_mT = 10
tc0_K = 1.5
rn_ohm = 300
width_mK = 1.0

[cavity]
gap_nm = 6
shift_max_uK = 7.0
h_rise_mT = 1.0
h_merge_mT = 20.0

[noise]
sigma_fast_uK = 30
drift_uK_per_hr = -50
seed = 77

[campaign]
fields_mT = 7.2
replications = 1
points_per_sweep = 120
sweep_duration_s = 120
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "campaign.ini"
    path.write_text(SMALL_CONFIG)
    return path


def run_ok(runner, args, env=None):
    result = runner.invoke(main, args, env=env, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestConfig:
    def test_example_config_round_trip(self, tmp_path):
        path = write_example_config(tmp_path / "example.ini")
        cfg = load_config(path)
        assert cfg.film.thickness_nm == 14.0
        assert cfg.cavity.gap_nm == 6.0
        assert cfg.noise.drift_uK_per_hr == -50.0
        assert cfg.thermal is None
        assert len(cfg.fields_mT) == 12

    def test_dict_round_trip(self):
        cfg = default_config(replications=2)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[film]\nthickness_nm = 14\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(SMALL_CONFIG.replace("h0_mT = 10", "h0_mT = ten"))
        with pytest.raises(ConfigError, match="h0_mT"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


class TestSimulateCommand:
    def test_minimal_campaign_file_count(self, runner, small_config, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out)])
        sweeps = sorted((out / "sweeps").glob("*.csv"))
        assert len(sweeps) == 6  # 2 samples x 3 sweeps
        manifest = read_manifest(out)
        assert len(manifest["files"]) == 6
        assert manifest["master_seed"] == 77

    def test_seed_override(self, runner, small_config, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out), "--seed", "123"])
        assert read_manifest(out)["master_seed"] == 123

    def test_byte_identical_reruns(self, runner, small_config, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out)])
            outs.append(out)
        a, b = outs
        for fa in sorted((a / "sweeps").glob("*.csv")):
            fb = b / "sweeps" / fa.name
            assert fa.read_bytes() == fb.read_bytes()
        assert normalized_manifest_bytes(a) == normalized_manifest_bytes(b)

    def test_config_error_exit_code(self, runner, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[film]\n")
        result = runner.invoke(main, ["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_thermal_manifest_records_m(self, runner, small_config, tmp_path):
        cfg = tmp_path / "thermal.ini"
        cfg.write_text(SMALL_CONFIG + "\n[thermal]\nt_env_K = 300\nx_eff = 10\n")
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        m = read_manifest(out)["thermal_enhancement"]
        assert m == pytest.approx(39.01, abs=0.01)

    def test_sweep_csv_round_trip_exact(self, runner, small_config, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out)])
        config, triplets = load_dataset(out)
        from casimirlab import run_campaign

        by_key = {
            (t.sample_id, t.field_mT, t.replication): t for t in run_campaign(config)
        }
        for disk in triplets:
            mem = by_key[(disk.sample_id, disk.field_mT, disk.replication)]
            for (_, td), (_, tm) in zip(disk.sweeps(), mem.sweeps()):
                assert np.array_equal(td.t_meas_K, tm.t_meas_K)
                assert np.array_equal(td.r_meas_ohm, tm.r_meas_ohm)


class TestAnalyzeCommand:
    @pytest.fixture
    def run_dir(self, runner, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10")
            .replace("replications = 1", "replications = 3")
        )
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        return out

    def test_outputs_written(self, runner, run_dir):
        run_ok(runner, ["analyze", str(run_dir)])
        analysis = run_dir / "analysis"
        for name in ("shifts.csv", "fits.csv", "differential.csv", "summary.txt"):
            assert (analysis / name).exists()
        shifts = (analysis / "shifts.csv").read_text().splitlines()
        assert shifts[0].startswith("sample_id,kind,field_mT")
        assert len(shifts) == 1 + 2 * 5 * 3  # header + samples*fields*reps

    def test_zero_field_shifts_near_zero(self, runner, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 0 6 8 10"))
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        run_ok(runner, ["analyze", str(out)])
        rows = (out / "analysis" / "shifts.csv").read_text().splitlines()[1:]
        zero_rows = [r for r in rows if float(r.split(",")[2]) == 0.0]
        assert len(zero_rows) == 2
        for r in zero_rows:
            # single short sweeps at sigma_fast = 30 uK leave ~12 uK on the
            # triplet estimate; stay a few standard errors out
            assert abs(float(r.split(",")[6])) < 40.0

    def test_incomplete_triplet_exit_code(self, runner, run_dir):
        victim = next(iter((run_dir / "sweeps").glob("*_mid.csv")))
        victim.unlink()
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3

    def test_explicit_threshold_and_linear(self, runner, run_dir):
        run_ok(runner, ["analyze", str(run_dir), "--fit-threshold-mT", "6", "--include-linear"])
        fit_row = (run_dir / "analysis" / "fits.csv").read_text().splitlines()[1].split(",")
        assert float(fit_row[8]) == 6.0
        assert fit_row[9] == "1"


class TestReportCommand:
    @pytest.fixture
    def analyzed_run(self, runner, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10")
            .replace("replications = 1", "replications = 2")
            .replace("sigma_fast_uK = 30", "sigma_fast_uK = 5")
        )
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        run_ok(runner, ["analyze", str(out)])
        return out

    def test_report_files_and_schemas(self, runner, analyzed_run):
        run_ok(runner, ["report", str(analyzed_run)])
        report = analyzed_run / "report"
        parabola = (report / "fig_parabola.csv").read_text().splitlines()
        assert parabola[0] == "series,field_mT,delta_t,sigma_delta_t,shift_uK,sigma_uK"
        assert any(row.startswith("fit,") for row in parabola[1:])
        triplet = (report / "fig_triplet.csv").read_text().splitlines()
        assert triplet[0] == "position,field_mT,tau_s,T_meas_K,R_meas_ohm"
        assert not (report / "fig_thermal.csv").exists()

    def test_triplet_mid_offset_80uK(self, runner, analyzed_run):
        run_ok(runner, ["report", str(analyzed_run)])
        rows = (analyzed_run / "report" / "fig_triplet.csv").read_text().splitlines()[1:]
        by_pos = {}
        for row in rows:
            pos, _, _, t, r = row.split(",")
            by_pos.setdefault(pos, []).append((float(t), float(r)))
        # compare apparent temperature at mid-transition (R = RN/2)
        def t_at_mid(points):
            pts = sorted(points, key=lambda p: p[1])
            t = [p[0] for p in pts]
            r = [p[1] for p in pts]
            return float(np.interp(150.0, r, t))

        gap = 0.5 * (t_at_mid(by_pos["pre"]) + t_at_mid(by_pos["post"])) - t_at_mid(by_pos["mid"])
        assert gap * 1e6 == pytest.approx(81.0, abs=15.0)

    def test_fit_series_uses_tc0_when_zero_field_row_first(self, runner, tmp_path):
        # the first film row is the 0 mT triplet, whose noiseless delta_t is 0
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 0 2 5 7.2 9 10")
            .replace("sigma_fast_uK = 30", "sigma_fast_uK = 0")
            .replace("drift_uK_per_hr = -50", "drift_uK_per_hr = 0")
        )
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        run_ok(runner, ["analyze", str(out)])
        run_ok(runner, ["report", str(out)])
        shifts = (out / "analysis" / "shifts.csv").read_text().splitlines()
        first_film = next(row.split(",") for row in shifts[1:] if ",film," in row)
        assert float(first_film[2]) == 0.0 and float(first_film[4]) == 0.0
        fit_rows = [
            [float(v) for v in row.split(",")[1:]]
            for row in (out / "report" / "fig_parabola.csv").read_text().splitlines()[1:]
            if row.startswith("fit,")
        ]
        field, delta_t, _, shift_uK, _ = fit_rows[-1]
        assert field == 10.0
        assert shift_uK == pytest.approx(delta_t * 1.5e6, rel=1e-4)

    def test_report_requires_analysis(self, runner, tmp_path, small_config):
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out)])
        result = runner.invoke(main, ["report", str(out)])
        assert result.exit_code == 3

    def test_thermal_report_emitted(self, runner, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text(
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10")
            + "\n[thermal]\nt_env_K = 300\nx_eff = 10\n"
        )
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
        run_ok(runner, ["analyze", str(out)])
        run_ok(runner, ["report", str(out)])
        rows = (out / "report" / "fig_thermal.csv").read_text().splitlines()
        assert rows[0] == "kind,field_mT,shift_uK,sigma_uK"
        assert any(row.startswith("cavity,") for row in rows[1:])

