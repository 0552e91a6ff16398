"""CLI and file-format tests: config parsing, manifest, determinism, exit codes."""

import dataclasses
import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casimirlab import ShiftEstimate, analyze_campaign, fit_parabola, run_campaign
from casimirlab import cli as cli_module
from casimirlab import config as config_module
from casimirlab.analysis import field_means
from casimirlab.cli import main
from casimirlab.config import (
    EXAMPLE_CONFIG,
    SECTIONS,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    write_example_config,
)
from casimirlab.errors import ConfigError, IncompleteTriplet
from casimirlab.io import (
    SWEEP_COLUMNS,
    load_dataset,
    normalized_manifest_bytes,
    read_csv,
    read_manifest,
    read_sweep_csv,
    write_csv,
    write_sweep_csv,
)
from casimirlab.physics import cavity_shift, delta_t_of_field
from casimirlab.report import DIFFERENTIAL_COLUMNS, FITS_COLUMNS, SHIFTS_COLUMNS
from casimirlab.simulate import SweepTrace

SMALL_CONFIG = """
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
sigma_fast_uK = 30
drift_uK_per_hr = -50
seed = 77

[campaign]
fields_mT = 7.2
replications = 1
points_per_sweep = 120
sweep_duration_s = 120
"""


THERMAL_EXAMPLE = re.sub(r"(?m)^# (\[thermal\]|t_env_K|x_eff)", r"\1", EXAMPLE_CONFIG)

# the keys a config file must set
REQUIRED_KEYS = {
    "thickness_nm", "lambda0_nm", "h0_mT", "tc0_K", "rn_ohm", "width_mK",
    "shift_max_uK", "h_rise_mT", "h_merge_mT",
    "sigma_fast_uK", "drift_uK_per_hr", "seed", "fields_mT",
}


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


def simulate_run(runner, tmp_path, config_text, name="run"):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(config_text)
    out = tmp_path / name
    run_ok(runner, ["simulate", "--config", str(cfg), "--out", str(out)])
    return out


def write_sweep_reference(path, traces):
    """The sweep file spelled out, to pin its format: .npy version 1.0, a
    little-endian float64 (n_sweeps, n, 3) array in C order, row i holding
    traces[i]'s columns SWEEP_COLUMNS."""
    data = np.array([[t.tau_s, t.t_meas_K, t.r_meas_ohm] for t in traces], dtype="<f8")
    data = data.transpose(0, 2, 1).copy()
    header = "{'descr': '<f8', 'fortran_order': False, 'shape': (%d, %d, %d), }" % data.shape
    header += " " * (63 - (10 + len(header)) % 64) + "\n"  # the data starts 64-byte aligned
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                     + header.encode("latin1") + data.tobytes())


def find_entry(run_dir, sample_id, field_mT, replication, position):
    """(n, files[n]) of one sweep in a run's manifest."""
    key = (sample_id, field_mT, replication, position)
    return next((n, e) for n, e in enumerate(read_manifest(run_dir)["files"])
                if (e["sample_id"], e["field_mT"], e["replication"], e["position"]) == key)


def drop_sweep(run_dir, n):
    """Removes files[n] and its row from a run; the rows above it move down by one."""
    manifest = read_manifest(run_dir)
    row = manifest["files"].pop(n)["row"]
    for entry in manifest["files"]:
        entry["row"] -= entry["row"] > row
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    np.save(run_dir / "sweeps.npy", np.delete(np.load(run_dir / "sweeps.npy"), row, axis=0))


def write_csv_reference(path, columns, rows):
    """The per-cell table writer, kept to pin the file format."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(format(float(v), ".17g"))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


class TestConfig:
    def test_example_config_round_trip(self, tmp_path):
        path = write_example_config(tmp_path / "example.ini")
        cfg = load_config(path)
        assert cfg.film.thickness_nm == 14.0
        assert cfg.cavity.shift_max_uK == 7.0
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

    def test_not_text_is_config_error(self, tmp_path):
        path = tmp_path / "bin.ini"
        path.write_bytes(b"\xff\xfe[film]\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(path)

    def test_example_config_is_default_config(self, tmp_path):
        path = write_example_config(tmp_path / "e.ini")
        assert load_config(path) == default_config(replications=3)

    @pytest.mark.parametrize("typo, bad", [
        (("homogeneity = ", "homogenity = "), "homogenity"),
        (("[campaign]", "[campaign]\nrepetitions = 3"), "repetitions"),
        (("# [thermal]\n# t_env_K = ", "[thermel]\nt_env_K = "), "[thermel]"),
        # removed keys: a config written for an older version names them
        (("[cavity]", "[cavity]\ngap_nm = 6"), "gap_nm"),
        (("[campaign]", "[campaign]\nsettle_s = 0"), "settle_s"),
    ])
    def test_unknown_section_or_key_exits_2_naming_it(self, runner, tmp_path, typo, bad):
        path = tmp_path / "typo.ini"
        assert typo[0] in EXAMPLE_CONFIG
        path.write_text(EXAMPLE_CONFIG.replace(*typo))
        with pytest.raises(ConfigError, match=re.escape(bad)):
            load_config(path)
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert bad in result.stderr

    @pytest.mark.parametrize("setting, key", [
        (("homogeneity = 0.0001", "homogeneity = nan"), "homogeneity"),
        (("sweep_duration_s = 1200.0", "sweep_duration_s = inf"), "sweep_duration_s"),
        (("fields_mT = 0.5 ", "fields_mT = 7.2 nan 0.5 "), "fields_mT"),
    ])
    def test_non_finite_value_exits_2_naming_it(self, runner, tmp_path, setting, key):
        path = tmp_path / "nan.ini"
        assert setting[0] in EXAMPLE_CONFIG
        path.write_text(EXAMPLE_CONFIG.replace(*setting))
        with pytest.raises(ConfigError, match=rf"{key}: not a finite number"):
            load_config(path)
        result = runner.invoke(
            main, ["simulate", "--config", str(path), "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert key in result.stderr

    def test_keys_match_case_insensitively(self, tmp_path):
        path = tmp_path / "case.ini"
        path.write_text(EXAMPLE_CONFIG.replace("h0_mT = ", "H0_MT = "))
        assert load_config(path) == default_config(replications=3)

    @pytest.mark.parametrize("section, key", [
        (section, f.name)
        for section, record in SECTIONS.items()
        for f in dataclasses.fields(record)
        if f.name not in SECTIONS
    ])
    def test_each_key_required_or_defaulted(self, tmp_path, section, key):
        text = THERMAL_EXAMPLE if section == "thermal" else EXAMPLE_CONFIG
        path = tmp_path / "drop.ini"
        path.write_text(re.sub(rf"(?m)^{key} = .*\n", "", text, count=1))
        assert path.read_text() != text
        if key in REQUIRED_KEYS:
            missing = rf"missing option '{key}' in section \[{section}\]"
            with pytest.raises(ConfigError, match=missing):
                load_config(path)
            return
        cfg = load_config(path)
        params = cfg if section == "campaign" else getattr(cfg, section)
        default = next(f.default for f in dataclasses.fields(params) if f.name == key)
        assert getattr(params, key) == default

    def test_new_defaulted_field_needs_no_config_code(self, tmp_path, monkeypatch):
        @dataclasses.dataclass(frozen=True)
        class NoiseWithGain(config_module.NoiseModel):
            gain_drift_ppm: float = 2.5

        # stands in for a field added to NoiseModel itself
        monkeypatch.setitem(SECTIONS, "noise", NoiseWithGain)
        monkeypatch.setattr(config_module, "NoiseModel", NoiseWithGain)
        path = tmp_path / "gain.ini"
        path.write_text(EXAMPLE_CONFIG)
        assert load_config(path).noise.gain_drift_ppm == 2.5
        path.write_text(EXAMPLE_CONFIG.replace("[noise]", "[noise]\ngain_drift_ppm = 4"))
        cfg = load_config(path)
        assert cfg.noise.gain_drift_ppm == 4.0
        snapshot = config_to_dict(cfg)
        assert snapshot["noise"]["gain_drift_ppm"] == 4.0
        assert config_from_dict(json.loads(json.dumps(snapshot))) == cfg


class TestSimulateCommand:
    def test_minimal_campaign_file_count(self, runner, small_config, tmp_path):
        out = tmp_path / "run"
        run_ok(runner, ["simulate", "--config", str(small_config), "--out", str(out)])
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweeps.npy"]
        assert np.load(out / "sweeps.npy").shape == (6, 120, 3)  # 2 samples x 3 sweeps
        manifest = read_manifest(out)
        assert [e["row"] for e in manifest["files"]] == list(range(6))
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
        assert (a / "sweeps.npy").read_bytes() == (b / "sweeps.npy").read_bytes()
        assert normalized_manifest_bytes(a) == normalized_manifest_bytes(b)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_exits_2(self, runner, small_config, tmp_path, seed):
        result = runner.invoke(
            main, ["simulate", "--config", str(small_config), "--out", str(tmp_path / "o"),
                   "--seed", seed])
        assert result.exit_code == 2
        assert "--seed" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fields, clash, sample", [
        ("7.2 7.2", "7.2 and 7.2", "film01"),
        ("0 -0", "0.0 and -0.0", "film01"),
    ])
    def test_fields_sharing_a_sweep_file_exit_2(self, runner, tmp_path, fields, clash, sample):
        # one (sample, field, replication) key for two triplets: a reader could not
        # tell their sweeps apart
        cfg = tmp_path / "clash.ini"
        cfg.write_text(SMALL_CONFIG.replace("fields_mT = 7.2", f"fields_mT = {fields}"))
        out = tmp_path / "run"
        result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"fields {clash} mT are one field, so {sample} would have two triplets" in (
            result.stderr)
        assert not out.exists()

    def test_fields_a_fraction_of_a_uT_apart_are_two_fields(self, runner, tmp_path):
        out = simulate_run(runner, tmp_path,
                           SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 7.2004 9 10"))
        run_ok(runner, ["analyze", str(out), "--quiet"])
        shifts = read_csv(out / "analysis" / "shifts.csv", SHIFTS_COLUMNS, ("sample_id", "kind"))
        assert sorted(set(shifts["field_mT"].tolist())) == [2.0, 5.0, 7.2, 7.2004, 9.0, 10.0]
        assert len(shifts["field_mT"]) == 2 * 6

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


class TestSweepCsv:
    """write_sweep_csv / read_sweep_csv, which write a run's sweeps.npy and read rows of it."""

    @staticmethod
    def awkward_traces():
        rng = np.random.default_rng(5)
        n = 60
        traces = []
        for start in (0.0, 1500.0, 3000.0):
            tau = np.arange(n, dtype=float) * 20.0  # integer-valued times
            tau[7:] += 0.1 + 0.2  # 17 digits needed
            t = 1.5 + 1e-3 * rng.standard_normal(n)
            t[:6] = (-0.0, 5e-324, 1e300, -1e-300, 1 / 3, np.nextafter(1.5, 2.0))
            r = 300.0 * rng.random(n)
            r[:4] = (0.0, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308)
            traces.append(SweepTrace("film01", "film", 7.2, start, tau, t, r))
        return traces

    @staticmethod
    def entry(row, trace):
        return {"row": row, "sample_id": trace.sample_id, "kind": trace.kind,
                "applied_field_mT": trace.field_mT, "t_start_s": trace.t_start_s}

    def test_bytes_match_reference_writer(self, tmp_path):
        traces = self.awkward_traces()
        write_sweep_csv(tmp_path / "new.npy", traces)
        write_sweep_reference(tmp_path / "ref.npy", traces)
        assert (tmp_path / "new.npy").read_bytes() == (tmp_path / "ref.npy").read_bytes()

    def test_read_back_bit_exact(self, tmp_path):
        traces = self.awkward_traces()
        write_sweep_csv(tmp_path / "s.npy", traces)
        # rows in any order, each named by its own entry; a run of consecutive rows
        # is read at once, in and out of file order
        for rows in ((2, 0), (2, 0, 1), (1,), (), (0, 1, 2), (1, 2, 0), (2, 1)):
            picks = [(n, self.entry(row, traces[row])) for n, row in enumerate(rows)]
            back = read_sweep_csv(tmp_path / "s.npy", 3, picks)
            assert len(back) == len(rows)
            for trace, row in zip(back, rows):
                assert trace.t_start_s == traces[row].t_start_s
                for a, b in ((trace.tau_s, traces[row].tau_s),
                             (trace.t_meas_K, traces[row].t_meas_K),
                             (trace.r_meas_ohm, traces[row].r_meas_ohm)):
                    # array_equal treats -0.0 == 0.0; the bit patterns must agree too
                    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_existing_file_left_as_it_is(self, tmp_path):
        path = tmp_path / "s.npy"
        path.write_bytes(b"another run")
        with pytest.raises(FileExistsError):
            write_sweep_csv(path, self.awkward_traces())
        assert path.read_bytes() == b"another run"


class TestTableCsv:
    COLUMNS = ("name", "count", "flag", "x", "y", "z")
    ROWS = [
        ("film01", 3, True, np.float64(0.1), -0.0, 5e-324),
        ("cav01", -12, False, np.float64(-2.2250738585072014e-308), 1e300, 1.7976931348623157e308),
        ("film01", 0, True, np.float64(1 / 3), 0.0, -1.7976931348623157e308),
        ("x", 10**15, False, np.float64(np.nextafter(1.5, 2.0)), -1e-300, 4.9e-322),
    ]

    def test_bytes_match_reference_writer(self, tmp_path):
        write_csv(tmp_path / "new.csv", self.COLUMNS, self.ROWS)
        write_csv_reference(tmp_path / "ref.csv", self.COLUMNS, self.ROWS)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_read_back_bit_exact(self, tmp_path):
        write_csv(tmp_path / "t.csv", self.COLUMNS, self.ROWS)
        table = read_csv(tmp_path / "t.csv", self.COLUMNS, ("name",))
        assert list(table["name"]) == [row[0] for row in self.ROWS]
        for j, name in enumerate(self.COLUMNS[1:], 1):
            expected = np.array([float(row[j]) for row in self.ROWS])
            assert table[name].dtype == np.float64
            assert np.array_equal(table[name].view(np.uint64), expected.view(np.uint64))


def _edit_array(edit):
    """Edit of the sweep file: saves edit(array) in place of its array."""
    return lambda path: np.save(path, edit(np.load(path)))


def _set_element(point, column, value):
    def edit(sweep):
        sweep[point, column] = value
        return sweep
    return edit


def _swap_points(sweep):
    sweep[[5, 6]] = sweep[[6, 5]]
    return sweep


def _stall(cut):
    """Edit of a sweep: from point cut(sweep) on, R repeats its last reading while T ramps on."""
    def edit(sweep):
        k = cut(sweep)
        sweep[k:, 2] = sweep[k - 1, 2]
        return sweep
    return edit


def _non_numeric_cell(data):
    cells = data.astype("U32")
    cells[1, 3, 1] = "abc"
    return cells


def _cut_bytes(keep):
    """Edit of the sweep file: keeps its first keep(bytes, array) bytes."""
    def edit(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:keep(raw, np.load(path))])
    return edit


def _claim_shape(shape):
    """Edit of the sweep file: a well-formed header claiming shape(array), then the old data."""
    def edit(path):
        data = np.load(path)
        with open(path, "wb") as f:
            np.lib.format.write_array_header_1_0(
                f, {"descr": "<f8", "fortran_order": False, "shape": shape(data)})
            f.write(data.tobytes())
    return edit


def _version_3_header(path):
    """The array under a version 3.0 header, which numpy's own readers accept."""
    data = np.load(path)
    with open(path, "wb") as f:
        np.lib.format.write_array_header_2_0(
            f, {"descr": "<f8", "fortran_order": False, "shape": data.shape})
        f.write(data.tobytes())
    with open(path, "r+b") as f:
        f.seek(len(np.lib.format.MAGIC_PREFIX))
        f.write(bytes([3, 0]))


def _save_npz(path):
    """An .npz archive (np.load would return an NpzFile) under the sweep file's name."""
    data = np.load(path)
    with open(path, "wb") as f:
        np.savez(f, data)


def _array_edit(edit):
    """Mutation of sweeps.npy as a whole; the error names the file."""
    def mutate(run_dir):
        edit(run_dir / "sweeps.npy")
        return "sweeps.npy"
    return mutate


def _row_edit(edit, n=1):
    """Mutation of the row of files[n] in sweeps.npy; the error names files[n]."""
    def mutate(run_dir):
        row = read_manifest(run_dir)["files"][n]["row"]
        data = np.load(run_dir / "sweeps.npy")
        data[row] = edit(data[row])
        np.save(run_dir / "sweeps.npy", data)
        return f"files[{n}]"
    return mutate


def _stall_film_mid(cut):
    """Stalls the film mid sweep's R (_stall). The file still checks out, so the error
    names the sweep (kind, sample, field, start), which analysis knows, not the file."""
    def mutate(run_dir):
        entry = read_manifest(run_dir)["files"][1]
        assert (entry["kind"], entry["position"]) == ("film", "mid")
        _row_edit(_stall(cut))(run_dir)
        return (f"film sweep film01 at {entry['applied_field_mT']} mT "
                f"starting at {entry['t_start_s']} s")
    return mutate


def _manifest_edit(edit, named_file=None):
    """Mutation of the manifest; the error names files[named_file] or the manifest."""
    def mutate(run_dir):
        manifest = read_manifest(run_dir)
        manifest = edit(manifest)
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        return "manifest.json" if named_file is None else f"files[{named_file}]"
    return mutate


def _drop_entry_key(index, key):
    def edit(manifest):
        del manifest["files"][index][key]
        return manifest
    return edit


def _set_entry(index, key, value):
    def edit(manifest):
        manifest["files"][index][key] = value
        return manifest
    return edit


def _swap_pre_post_times(manifest):
    files = manifest["files"]
    pre = next(e for e in files if e["position"] == "pre")
    post = next(e for e in files if e["position"] == "post" and e["sample_id"] == pre["sample_id"])
    pre["t_start_s"], post["t_start_s"] = post["t_start_s"], pre["t_start_s"]
    return manifest


def _duplicate_pre(manifest):
    """A second pre entry for the first triplet, naming that triplet's post row."""
    files = manifest["files"]
    files.append({**files[0], "row": files[2]["row"]})
    return manifest


def _share_row(run_dir):
    """The film mid entry names the pre sweep's row."""
    manifest = read_manifest(run_dir)
    files = manifest["files"]
    files[1]["row"] = files[0]["row"]
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    return f"files[0] and files[1] both name row {files[0]['row']}"


def _set_role(role, select):
    """Sets role (None: deletes it) on the entries select(n, entry) picks; the first is named."""
    def mutate(run_dir):
        manifest = read_manifest(run_dir)
        picked = [n for n, e in enumerate(manifest["files"]) if select(n, e)]
        for n in picked:
            if role is None:
                del manifest["files"][n]["role"]
            else:
                manifest["files"][n]["role"] = role
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        return f"files[{picked[0]}] has role {role!r}"
    return mutate


def _set_config(edit):
    def edit_manifest(manifest):
        edit(manifest["config"])
        return manifest
    return edit_manifest


def _manifest_not_text(run_dir):
    (run_dir / "manifest.json").write_bytes(b"\xff\xfe{}")
    return "manifest.json"


def _manifest_a_directory(run_dir):
    (run_dir / "manifest.json").unlink()
    (run_dir / "manifest.json").mkdir()
    return "manifest.json"


# each mutation damages sweeps.npy or the manifest and returns the text the error
# must hold: the damaged file, the entry (files[n]) of a damaged row, or the
# damaged sweep's identity
MUTATIONS = {
    "non-numeric cell": _array_edit(_edit_array(_non_numeric_cell)),
    # the file ends inside its last row
    "short row": _array_edit(_cut_bytes(lambda raw, data: len(raw) - 12)),
    "extra column": _array_edit(_edit_array(lambda d: np.concatenate((d, d[..., :1]), axis=2))),
    "two columns throughout": _array_edit(_edit_array(lambda d: d[..., :2])),
    "one-dimensional array": _array_edit(_edit_array(np.ravel)),
    "header only": _array_edit(_cut_bytes(lambda raw, data: len(raw) - data.nbytes)),
    "truncated header": _array_edit(_cut_bytes(lambda raw, data: 40)),
    "empty file": _array_edit(_cut_bytes(lambda raw, data: 0)),
    "bad header": _array_edit(
        lambda p: p.write_bytes(p.read_bytes().replace(b"'descr'", b"'dexcr'"))),
    "header claims more rows than the file holds": _array_edit(
        _claim_shape(lambda d: (len(d) + 1, *d.shape[1:]))),
    # the reader checks the header against the manifest's row count and the file's
    # size before it allocates, so neither claim allocates what it names
    "header claims too many rows to allocate": _array_edit(
        _claim_shape(lambda d: (2**50, *d.shape[1:]))),
    "header claims too many points to allocate": _array_edit(
        _claim_shape(lambda d: (len(d), 2**50, d.shape[2]))),
    # numpy reads both, write_sweep_csv writes neither: a Fortran-order array's rows are
    # not contiguous, and version 3.0 exists for UTF-8 field names, which float64 lacks
    "Fortran-order array": _array_edit(_edit_array(np.asfortranarray)),
    "npy format version 3.0": _array_edit(_version_3_header),
    "wrong dtype": _array_edit(_edit_array(lambda d: d.astype(np.float32))),
    "pickled object array": _array_edit(_edit_array(lambda d: d.astype(object))),
    "npz archive": _array_edit(_save_npz),
    "missing file": _array_edit(lambda p: p.unlink()),
    # every sweep holds fewer than MIN_SWEEP_POINTS points
    "too few rows": _array_edit(_edit_array(lambda d: d[:, :21])),
    "fewer rows than entries": _array_edit(_edit_array(lambda d: d[:-1])),
    "times not increasing": _row_edit(_swap_points),
    "nan reading": _row_edit(_set_element(28, 1, np.nan)),
    "inf reading": _row_edit(_set_element(28, 2, -np.inf)),
    "not an npy file": _array_edit(lambda p: p.write_bytes(b"\xff\xfe\x00garbage")),
    # the averaging window's levels lie in 0.2-0.8 R_N
    "mid sweep ends below the levels": _stall_film_mid(lambda d: int(0.45 * len(d))),
    "mid sweep ends inside the levels": _stall_film_mid(
        lambda d: int(np.argmax(d[:, 2] > 0.6 * 300.0)) + 1),
    "entry lacks t_start_s": _manifest_edit(_drop_entry_key(1, "t_start_s"), named_file=1),
    "field_mT not a number": _manifest_edit(_set_entry(1, "field_mT", "7.2"), named_file=1),
    # json writes and reads these as Infinity and NaN
    "field_mT infinite": _manifest_edit(_set_entry(1, "field_mT", float("inf")), named_file=1),
    "field_mT NaN": _manifest_edit(_set_entry(1, "field_mT", float("nan")), named_file=1),
    "mid sweep applied_field_mT NaN": _manifest_edit(
        _set_entry(1, "applied_field_mT", float("nan")), named_file=1),
    # files[1] is a film mid sweep, simulated at its triplet's field
    "mid sweep at another field": _manifest_edit(
        _set_entry(1, "applied_field_mT", -40.0), named_file=1),
    "row missing": _manifest_edit(_drop_entry_key(1, "row"), named_file=1),
    "row not an integer": _manifest_edit(_set_entry(1, "row", 1.0), named_file=1),
    "row a boolean": _manifest_edit(_set_entry(1, "row", True), named_file=1),
    "row negative": _manifest_edit(_set_entry(1, "row", -1), named_file=1),
    "row out of range": _manifest_edit(
        lambda m: _set_entry(1, "row", len(m["files"]))(m), named_file=1),
    "triplet out of chronological order": _manifest_edit(_swap_pre_post_times, named_file=0),
    "duplicate sweep entry": _manifest_edit(_duplicate_pre, named_file=0),
    "two entries name one row": _share_row,
    # the three entries of the 7.2 mT film triplet: without them the run still analyzes
    "triplet entries without role": _set_role(
        None, lambda n, e: (e["kind"], e["field_mT"]) == ("film", 7.2)),
    "entry with another role": _set_role("calibration", lambda n, e: n == 1),
    "pre sweep in field": _manifest_edit(_set_entry(0, "applied_field_mT", 7.2), named_file=0),
    "pre sweep of other kind": _manifest_edit(_set_entry(0, "kind", "cavity"), named_file=0),
    "manifest not an object": _manifest_edit(lambda m: [m]),
    "no files list": _manifest_edit(lambda m: {**m, "files": None}),
    "file entry not an object": _manifest_edit(lambda m: {**m, "files": m["files"] + [7]}),
    "no config snapshot": _manifest_edit(lambda m: {k: v for k, v in m.items() if k != "config"}),
    "snapshot lacks film section": _manifest_edit(_set_config(lambda c: c.pop("film"))),
    "snapshot not an object": _manifest_edit(lambda m: {**m, "config": "film"}),
    "snapshot film not an object": _manifest_edit(_set_config(lambda c: c.update(film="film"))),
    "snapshot fields_mT an int": _manifest_edit(
        _set_config(lambda c: c["campaign"].update(fields_mT=7))),
    "snapshot seed not an integer": _manifest_edit(
        _set_config(lambda c: c["noise"].update(seed=1.5))),
    "snapshot unknown key": _manifest_edit(
        _set_config(lambda c: c["cavity"].update(gap_exponet=2.0))),
    "snapshot holds a removed key": _manifest_edit(
        _set_config(lambda c: c["noise"].update(sigma_r_ohm=0.0))),
    "snapshot replications a boolean": _manifest_edit(
        _set_config(lambda c: c["campaign"].update(replications=True))),
    "snapshot seed a boolean": _manifest_edit(_set_config(lambda c: c["noise"].update(seed=False))),
    "entry replication a boolean": _manifest_edit(_set_entry(1, "replication", False)),
    "snapshot NaN value": _manifest_edit(
        _set_config(lambda c: c["campaign"].update(homogeneity=float("nan")))),
    "manifest not text": _manifest_not_text,
    "manifest a directory": _manifest_a_directory,
}
# the mutations that leave the sweep entries intact and break only the config snapshot
SNAPSHOT_MUTATIONS = [m for m in MUTATIONS
                      if m == "no config snapshot" or m.startswith("snapshot ")]


class TestMalformedInput:
    @pytest.fixture
    def run_dir(self, runner, tmp_path):
        # enough fields for the parabola fit, so only the mutation can fail analyze
        return simulate_run(
            runner, tmp_path, SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10"))

    def test_unmutated_run_analyzes(self, runner, run_dir):
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_analyze_exits_3_naming_file(self, runner, run_dir, mutation):
        victim = MUTATIONS[mutation](run_dir)
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "data error" in result.stderr
        assert victim in result.stderr

    @pytest.mark.parametrize("command", ["analyze", "report"])
    @pytest.mark.parametrize("kind", ["film", "cavity"])
    def test_mid_sweep_at_another_field_exits_3(self, runner, run_dir, command, kind):
        run_ok(runner, ["analyze", str(run_dir)])  # report reads the analysis outputs
        manifest = read_manifest(run_dir)
        n, entry = next((n, e) for n, e in enumerate(manifest["files"])
                        if (e["kind"], e["position"]) == (kind, "mid"))
        # a cavity mid sweep is simulated at field_mT * (1 + homogeneity)
        applied = {"film": -40.0, "cavity": entry["field_mT"]}[kind]
        expected = entry["applied_field_mT"]
        entry["applied_field_mT"] = applied
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, [command, str(run_dir)])
        assert result.exit_code == 3, result.output
        assert f"files[{n}] is the mid sweep" in result.stderr
        assert f"must be {expected!r}, not {applied!r}" in result.stderr

    @pytest.mark.parametrize("mutation", SNAPSHOT_MUTATIONS)
    def test_report_exits_3_on_bad_snapshot(self, runner, run_dir, mutation):
        run_ok(runner, ["analyze", str(run_dir)])  # report reads the analysis outputs
        victim = MUTATIONS[mutation](run_dir)
        result = runner.invoke(main, ["report", str(run_dir)])
        assert result.exit_code == 3, result.output
        assert "data error" in result.stderr
        assert victim in result.stderr
        assert not (run_dir / "report").exists()

    def test_non_finite_message_names_row_and_column(self, runner, run_dir):
        victim = run_dir / "sweeps.npy"
        data = np.load(victim)
        # points count from 0, as in the array; the first bad element in file order is named
        for cells, named in [
            ([(2, 29, 0, np.nan)], "files[2] (row 2): point 29: non-finite tau_s"),
            ([(2, 29, 2, np.inf), (2, 40, 1, np.nan)],
             "files[2] (row 2): point 29: non-finite R_meas_ohm"),
            ([(2, 41, 0, -np.inf), (2, 40, 1, np.nan), (7, 3, 0, np.nan)],
             "files[2] (row 2): point 40: non-finite T_meas_K"),
        ]:
            damaged = data.copy()
            for row, point, column, value in cells:
                damaged[row, point, column] = value
            np.save(victim, damaged)
            result = runner.invoke(main, ["analyze", str(run_dir)])
            assert result.exit_code == 3
            assert f"{victim}: {named}" in result.stderr

    def test_negative_tc0_exits_3(self, runner, run_dir):
        # every temperature 3 K lower: the sweeps invert, but Tc0 comes out near -1.5 K
        data = np.load(run_dir / "sweeps.npy")
        data[:, :, 1] -= 3.0
        np.save(run_dir / "sweeps.npy", data)
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3, result.output
        assert "data error: Tc0 must be positive and finite, got -1.4" in result.stderr
        assert not (run_dir / "analysis").exists()

    def test_rows_follow_the_manifest(self, runner, run_dir):
        run_ok(runner, ["analyze", str(run_dir), "--quiet"])
        expected = (run_dir / "analysis" / "shifts.csv").read_bytes()
        # files[1] and files[4] trade rows, in the manifest and in the array
        manifest = read_manifest(run_dir)
        files = manifest["files"]
        files[1]["row"], files[4]["row"] = files[4]["row"], files[1]["row"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        data = np.load(run_dir / "sweeps.npy")
        data[[1, 4]] = data[[4, 1]]
        np.save(run_dir / "sweeps.npy", data)
        run_ok(runner, ["analyze", str(run_dir), "--quiet"])
        assert (run_dir / "analysis" / "shifts.csv").read_bytes() == expected
        # a NaN in row 4 is a fault of files[1]
        data[4, 10, 1] = np.nan
        np.save(run_dir / "sweeps.npy", data)
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3
        assert "sweeps.npy: files[1] (row 4): point 10: non-finite T_meas_K" in result.stderr


    def test_first_non_finite_sweep_in_manifest_order_named(self, runner, run_dir):
        # the cav01 pre sweeps at 2 and 5 mT trade rows, so that the later of the two
        # in the manifest (and in the order analyze reads them) comes first in the
        # array; both rows hold a NaN, and the manifest's first is named
        first, _ = find_entry(run_dir, "cav01", 2.0, 0, "pre")
        second, _ = find_entry(run_dir, "cav01", 5.0, 0, "pre")
        manifest = read_manifest(run_dir)
        files = manifest["files"]
        files[first]["row"], files[second]["row"] = files[second]["row"], files[first]["row"]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        data = np.load(run_dir / "sweeps.npy")
        data[[first, second]] = data[[second, first]]
        data[[first, second], 10, 1] = np.nan
        np.save(run_dir / "sweeps.npy", data)
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3
        assert (f"sweeps.npy: files[{first}] (row {second}): point 10: non-finite T_meas_K"
                in result.stderr)


# cell values for random damage to the analysis CSVs, element values for the sweep array
CELLS = st.sampled_from(["abc", "nan", "-inf", "1e999", "", " ", "1,2", "0x1p3", "-0"])
ELEMENTS = st.sampled_from([np.nan, np.inf, -np.inf, float("1e999")])
JSON_VALUES = st.sampled_from([None, "x", "", -1, 0, 1e300, -1e300, True, [], {}, [1, "a"]])
INDEX = st.integers(0, 10**6)  # taken modulo the number of candidates

# mutation kind -> strategy for its arguments; the sweep kinds edit one row of sweeps.npy
RANDOM_MUTATIONS = {
    "delete sweep": st.tuples(INDEX),
    # the file is cut inside or just after the row; a row has 2880 bytes
    "truncate sweep": st.tuples(INDEX, st.integers(0, 3000)),
    "inject cell": st.tuples(INDEX, st.integers(0, 130), st.integers(0, 3), ELEMENTS),
    "swap rows": st.tuples(INDEX, st.integers(0, 130), st.integers(0, 130)),
    "drop manifest key": st.tuples(INDEX, st.integers(-1, 10**6)),
    "corrupt snapshot": st.tuples(
        INDEX, INDEX,
        st.sampled_from(["drop section", "drop key", "set key", "set section", "add key"]),
        JSON_VALUES),
    "corrupt analysis csv": st.tuples(
        st.sampled_from(["shifts.csv", "fits.csv"]), st.integers(0, 40), st.integers(0, 10),
        CELLS | st.just(None)),
}


def _pick(items, index):
    return items[index % len(items)]


def _inject_cell(path, line, column, cell):
    lines = path.read_text().splitlines()
    cells = lines[line % len(lines)].split(",")
    cells[column % len(cells)] = cell
    lines[line % len(lines)] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _apply_random_mutation(run_dir, kind, args):
    sweeps = run_dir / "sweeps.npy"
    data = np.load(sweeps)
    row = args[0] % len(data) if kind.endswith((" sweep", " cell", " rows")) else None
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    if kind == "delete sweep":
        np.save(sweeps, np.delete(data, row, axis=0))
    elif kind == "truncate sweep":
        raw = sweeps.read_bytes()
        sweeps.write_bytes(raw[:len(raw) - data.nbytes + row * data[0].nbytes + args[1]])
    elif kind == "inject cell":
        point, column, value = args[1:]
        data[row, point % data.shape[1], column % data.shape[2]] = value
        np.save(sweeps, data)
    elif kind == "swap rows":
        i, j = args[1] % data.shape[1], args[2] % data.shape[1]
        data[row, [i, j]] = data[row, [j, i]]
        np.save(sweeps, data)
    elif kind == "drop manifest key":
        target = manifest if args[1] < 0 else _pick(manifest["files"], args[1])
        del target[_pick(sorted(target), args[0])]
    elif kind == "corrupt snapshot":
        section_index, key_index, action, value = args
        config = manifest["config"]
        section = _pick(sorted(config), section_index)
        key = _pick(sorted(config[section]), key_index)
        if action == "drop section":
            del config[section]
        elif action == "drop key":
            del config[section][key]
        elif action == "set key":
            config[section][key] = value
        elif action == "set section":
            config[section] = value
        else:
            config[section]["not_a_key"] = value
    else:
        name, line, column, cell = args
        path = run_dir / "analysis" / name
        if cell is None:
            lines = path.read_text().splitlines()
            del lines[line % len(lines)]
            path.write_text("\n".join(lines) + "\n")
        else:
            _inject_cell(path, line, column, cell)
    manifest_path.write_text(json.dumps(manifest))


class TestRandomMutations:
    """Random damage to a run directory ends in a documented exit code."""

    @pytest.fixture(scope="class")
    def analyzed_run(self, tmp_path_factory):
        runner = CliRunner()
        out = simulate_run(
            runner, tmp_path_factory.mktemp("base"),
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10"),
        )
        run_ok(runner, ["analyze", str(out)])
        return out

    @pytest.mark.parametrize("kind", list(RANDOM_MUTATIONS))
    @given(data=st.data())
    @settings(max_examples=15, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_never_a_traceback(self, analyzed_run, kind, data):
        args = data.draw(RANDOM_MUTATIONS[kind])
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            run_dir = Path(tmp) / "run"
            shutil.copytree(analyzed_run, run_dir)
            _apply_random_mutation(run_dir, kind, args)
            codes = {}
            for command in ("report", "analyze"):
                result = runner.invoke(main, [command, str(run_dir), "--quiet"])
                assert result.exit_code in (0, 2, 3, 4), (command, args, result.output)
                assert result.exception is None or isinstance(result.exception, SystemExit), (
                    command, args, result.exc_info)
                codes[command] = result.exit_code
            if kind == "corrupt snapshot":  # both commands parse it through io.open_run
                assert codes["report"] == codes["analyze"], (args, result.output)
            if result.exit_code == 0:  # analyze wrote finite shifts
                read_csv(run_dir / "analysis" / "shifts.csv", SHIFTS_COLUMNS, ("sample_id", "kind"))


class TestLibraryMatchesCli:
    def test_cli_shifts_match_in_process_analysis(self, runner, tmp_path):
        config_text = (
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10")
            .replace("replications = 1", "replications = 2")
        )
        out = simulate_run(runner, tmp_path, config_text)
        run_ok(runner, ["analyze", str(out)])
        from casimirlab import analyze_campaign, run_campaign

        config = load_config(tmp_path / "run.ini")
        result = analyze_campaign(run_campaign(config), rn_ohm=config.film.rn_ohm)
        lines = (out / "analysis" / "shifts.csv").read_text().splitlines()
        header = lines[0].split(",")
        cli = {}
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            cli[(row["sample_id"], float(row["field_mT"]), int(row["replication"]))] = row
        assert len(cli) == len(result.estimates) == 2 * 5 * 2
        for e in result.estimates:
            row = cli.pop((e.sample_id, e.field_mT, e.replication))
            assert float(row["delta_t"]) == pytest.approx(e.delta_t, rel=1e-12, abs=1e-300)
            assert float(row["sigma_delta_t"]) == pytest.approx(e.sigma_delta_t, rel=1e-12)
        assert not cli


def configured_shift_uK(config, h_mT):
    """The film-cavity gap a noiseless campaign must recover at nominal field h_mT.

    The cavity sees H*(1 + homogeneity), so the gap is the cavity shift there
    less the bare-film shift that the field offset itself adds.
    """
    h_cav = h_mT * (1.0 + config.homogeneity)
    offset = delta_t_of_field(config.film, h_cav) - delta_t_of_field(config.film, h_mT)
    return (cavity_shift(config.cavity, h_cav, config.enhancement)
            - offset * config.film.tc0_K * 1e6)


class TestEndToEndExactness:
    """Noiseless campaign, linear drift: at each measured cavity field the film fit
    minus the per-field cavity mean is the configured shift, in process and from
    the files `analyze` writes; the differential signal holds exactly those gaps."""

    BOUND_UK = 1e-6

    @pytest.fixture(params=["zero-point", "thermal"])
    def config_text(self, request):
        text = THERMAL_EXAMPLE if request.param == "thermal" else EXAMPLE_CONFIG
        assert "drift_uK_per_hr = -50.0" in text
        return re.sub(r"(?m)^sigma_fast_uK = .*$", "sigma_fast_uK = 0", text)

    @staticmethod
    def gap_errors_uK(config, predict, tc0_K, fields, delta_t, sigma):
        fields, cavity_mean, _ = field_means(fields, delta_t, sigma)
        gap = (predict(fields) - cavity_mean) * tc0_K * 1e6
        return np.abs(gap - [configured_shift_uK(config, h) for h in fields])

    @classmethod
    def check_differential(cls, config, cavity_fields, field_mT, gap_uK):
        assert field_mT.tolist() == sorted(set(cavity_fields))
        errors = np.abs(gap_uK - [configured_shift_uK(config, h) for h in field_mT])
        assert np.max(errors) < cls.BOUND_UK

    def test_in_process(self, tmp_path, config_text):
        path = tmp_path / "c.ini"
        path.write_text(config_text)
        config = load_config(path)
        result = analyze_campaign(run_campaign(config), rn_ohm=config.film.rn_ohm)
        cavity = [e for e in result.estimates if e.kind == "cavity"]
        errors = self.gap_errors_uK(
            config, result.film_fit.predict, result.tc0_K[config.film_sample_id],
            [e.field_mT for e in cavity], [e.delta_t for e in cavity],
            [e.sigma_delta_t for e in cavity])
        assert len(errors) == len(config.fields_mT)
        assert np.max(errors) < self.BOUND_UK
        d = result.differential
        self.check_differential(config, [e.field_mT for e in cavity], d.field_mT, d.gap_uK)

    def test_through_cli(self, runner, tmp_path, config_text):
        out = simulate_run(runner, tmp_path, config_text)
        run_ok(runner, ["analyze", str(out), "--quiet"])
        config = load_config(tmp_path / "run.ini")
        analysis = out / "analysis"
        shifts = read_csv(analysis / "shifts.csv", SHIFTS_COLUMNS, ("sample_id", "kind"))
        fits = read_csv(analysis / "fits.csv", FITS_COLUMNS, ("sample_id",))
        a, b = fits["a_per_mT2"][0], fits["b_per_mT"][0]
        tc0_K = float(re.search(r"Tc0\[film01\] = (\S+) K",
                                (analysis / "summary.txt").read_text()).group(1))
        cavity = shifts["kind"] == "cavity"
        errors = self.gap_errors_uK(
            config, lambda h: a * h * h + b * h, tc0_K, shifts["field_mT"][cavity],
            shifts["delta_t"][cavity], shifts["sigma_delta_t"][cavity])
        assert len(errors) == len(config.fields_mT)
        assert np.max(errors) < self.BOUND_UK
        diff = read_csv(analysis / "differential.csv", DIFFERENTIAL_COLUMNS)
        self.check_differential(config, shifts["field_mT"][cavity].tolist(),
                                diff["field_mT"], diff["gap_uK"])


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
        table = read_csv(analysis / "shifts.csv", SHIFTS_COLUMNS, ("sample_id", "kind"))
        assert np.all(table["n_levels"] == 50)

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
        drop_sweep(run_dir, find_entry(run_dir, "film01", 7.2, 1, "mid")[0])
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3
        assert "incomplete triplets: film01 at 7.2 mT rep 1" in result.stderr

    def test_explicit_threshold_and_linear(self, runner, run_dir):
        run_ok(runner, ["analyze", str(run_dir), "--fit-threshold-mT", "6", "--include-linear"])
        fit_row = (run_dir / "analysis" / "fits.csv").read_text().splitlines()[1].split(",")
        assert float(fit_row[8]) == 6.0
        assert fit_row[9] == "1"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2(self, runner, run_dir, threshold):
        result = runner.invoke(main, ["analyze", str(run_dir), "--fit-threshold-mT", threshold])
        assert result.exit_code == 2
        assert "--fit-threshold-mT" in result.stderr and "not a finite number" in result.stderr
        assert not (run_dir / "analysis").exists()

    def test_rank_deficient_fit_exits_4(self, runner, tmp_path):
        # above 10 mT only one field is left: H^2 and H are collinear
        out = simulate_run(runner, tmp_path, EXAMPLE_CONFIG)
        result = runner.invoke(
            main, ["analyze", str(out), "--fit-threshold-mT", "10", "--include-linear"])
        assert result.exit_code == 4
        assert "numerical failure: design matrix is rank deficient" in result.stderr

    def test_non_finite_result_exits_4(self, runner, run_dir, monkeypatch):
        def overflow(*args, **kwargs):
            fit_parabola([ShiftEstimate(h, 0.0, 1e200, "film01") for h in (6.0, 8.0, 10.0)], 0.0)
        monkeypatch.setattr(cli_module, "analyze_campaign", overflow)
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 4
        assert "numerical failure: the parabola fit overflows" in result.stderr

    def test_film_only_manifest_exits_3(self, runner, run_dir):
        manifest = read_manifest(run_dir)
        film = [e for e in manifest["files"] if e["kind"] == "film"]
        data = np.load(run_dir / "sweeps.npy")
        np.save(run_dir / "sweeps.npy", data[[e["row"] for e in film]])
        manifest["files"] = [{**e, "row": row} for row, e in enumerate(film)]
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["analyze", str(run_dir)])
        assert result.exit_code == 3
        assert "must contain both film and cavity triplets" in result.stderr

    def test_single_field_campaign_exits_3(self, runner, tmp_path):
        out = simulate_run(runner, tmp_path, SMALL_CONFIG.replace("replications = 1",
                                                                  "replications = 3"))
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 3
        assert "needs >= 2 distinct fields" in result.stderr


class TestExitCodeBoundary:
    """Every command maps its errors to one exit code, without a traceback."""

    def test_example_config_command(self, runner, tmp_path):
        path = tmp_path / "e.ini"
        result = run_ok(runner, ["example-config", "--out", str(path)])
        assert result.output == f"wrote {path}\n"
        assert path.read_text() == EXAMPLE_CONFIG

    def test_unwritable_output_paths_exit_2(self, runner, tmp_path, small_config):
        run_dir = simulate_run(runner, tmp_path, SMALL_CONFIG.replace("replications = 1",
                                                                      "replications = 3")
                               .replace("fields_mT = 7.2", "fields_mT = 2 5 7.2 9 10"))
        unanalyzed = shutil.copytree(run_dir, tmp_path / "unanalyzed")
        run_ok(runner, ["analyze", str(run_dir), "--quiet"])
        afile = tmp_path / "afile"
        for path in (afile, unanalyzed / "analysis", run_dir / "report"):
            path.write_text("not a directory\n")
        before = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        missing = tmp_path / "missing" / "x.ini"
        for args, path in [
            (["example-config", "--out", str(missing)], missing),
            (["simulate", "--config", str(small_config), "--out", str(afile / "sub")],
             afile / "sub"),
            # a second run into one directory would mix two runs' files
            (["simulate", "--config", str(small_config), "--out", str(run_dir)],
             run_dir / "sweeps.npy"),
            (["analyze", str(unanalyzed)], unanalyzed / "analysis"),
            (["report", str(run_dir)], run_dir / "report"),
        ]:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert isinstance(result.exception, SystemExit)
            assert result.stderr.startswith("file error: ") and str(path) in result.stderr
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == before


class TestOrderIndependence:
    """The analysis does not depend on the order in which fields are listed."""

    @pytest.mark.parametrize("fields", [
        "10 9 8 7.2 6 5 4 3 2 1.5 1 0.5",
        "0.5 1 1.5 2 3 4 5 6 -7.2 8 9 10",
    ])
    def test_cli_equals_library_bit_for_bit(self, runner, tmp_path, monkeypatch, fields):
        config_text = re.sub(r"(?m)^fields_mT = .*$", f"fields_mT = {fields}", EXAMPLE_CONFIG)
        written = []
        write_analysis = cli_module.write_analysis
        monkeypatch.setattr(cli_module, "write_analysis", lambda run_dir, result: (
            written.append(result), write_analysis(run_dir, result))[1])
        out = simulate_run(runner, tmp_path, config_text)
        run_ok(runner, ["analyze", str(out), "--quiet"])
        config = load_config(tmp_path / "run.ini")
        cli, lib = written[0], analyze_campaign(run_campaign(config), rn_ohm=config.film.rn_ohm)
        assert cli.sensitivity_uK == lib.sensitivity_uK
        assert cli.film_fit.field_threshold_mT == lib.film_fit.field_threshold_mT
        assert (cli.film_fit.a, cli.film_fit.b) == (lib.film_fit.a, lib.film_fit.b)
        shifts = [{(e.sample_id, e.field_mT, e.replication): (e.delta_t, e.sigma_delta_t)
                   for e in r.estimates} for r in (cli, lib)]
        assert shifts[0] == shifts[1]


def _ragged_row(blank_line):
    """Edit of an analysis CSV: one cell too many on a data row, optionally after an empty line."""
    def edit(text):
        lines = text.splitlines()
        lines[3] += ",1"
        if blank_line:
            lines.insert(2, "")
        return "\n".join(lines) + "\n"
    return edit


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

    def test_triplet_bytes_match_reference_writer(self, runner, tmp_path):
        # the field is written as one pre-formatted cell per sweep
        out = simulate_run(runner, tmp_path,
                           SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = -7.2 0.5 2 5 9 10"))
        run_ok(runner, ["analyze", str(out)])
        run_ok(runner, ["report", str(out)])
        data = np.load(out / "sweeps.npy")
        rows = []
        for position in ("pre", "mid", "post"):
            _, entry = find_entry(out, "film01", -7.2, 0, position)
            rows += [(position, float(entry["applied_field_mT"]), *point)
                     for point in data[entry["row"]].tolist()]
        assert {row[1] for row in rows} == {0.0, -7.2}
        write_csv_reference(tmp_path / "ref.csv",
                            ("position", "field_mT", "tau_s", "T_meas_K", "R_meas_ohm"), rows)
        assert (out / "report" / "fig_triplet.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.fixture
    def plus_minus_run(self, runner, tmp_path):
        out = simulate_run(
            runner, tmp_path,
            SMALL_CONFIG.replace("fields_mT = 7.2", "fields_mT = -7.2 2 7.2 9 10")
            .replace("replications = 1", "replications = 2"),
        )
        run_ok(runner, ["analyze", str(out)])
        return out

    def test_triplet_pick_prefers_negative_field_rep0(self, runner, plus_minus_run):
        run_ok(runner, ["report", str(plus_minus_run)])
        rows = [
            row.split(",")
            for row in (plus_minus_run / "report" / "fig_triplet.csv").read_text().splitlines()[1:]
        ]
        mid = [r for r in rows if r[0] == "mid"]
        assert {float(r[1]) for r in mid} == {-7.2}
        _, entry = find_entry(plus_minus_run, "film01", -7.2, 0, "mid")
        sweep = np.load(plus_minus_run / "sweeps.npy")[entry["row"]]
        assert [[float(v) for v in r[2:]] for r in mid] == sweep.tolist()

    def test_missing_unplotted_sweep_exits_3(self, runner, plus_minus_run):
        drop_sweep(plus_minus_run, find_entry(plus_minus_run, "cav01", 2.0, 1, "post")[0])
        result = runner.invoke(main, ["report", str(plus_minus_run)])
        assert result.exit_code == 3
        assert "incomplete triplets: cav01 at 2.0 mT rep 1" in result.stderr
        assert not (plus_minus_run / "report").exists()

    def test_corrupt_plotted_sweep_exits_3_writing_nothing(self, runner, plus_minus_run):
        n, _ = find_entry(plus_minus_run, "film01", -7.2, 0, "mid")
        _row_edit(_set_element(3, 1, np.nan), n)(plus_minus_run)
        result = runner.invoke(main, ["report", str(plus_minus_run)])
        assert result.exit_code == 3
        assert f"files[{n}] (row {n}): point 3: non-finite T_meas_K" in result.stderr
        assert not (plus_minus_run / "report").exists()

    def test_corrupt_unplotted_sweep_not_parsed_by_report(self, runner, plus_minus_run):
        # report copies out and checks only the plotted triplet's rows
        n, _ = find_entry(plus_minus_run, "cav01", 2.0, 1, "post")
        _row_edit(_set_element(3, 1, np.nan), n)(plus_minus_run)
        run_ok(runner, ["report", str(plus_minus_run)])
        result = runner.invoke(main, ["analyze", str(plus_minus_run)])
        assert result.exit_code == 3
        assert f"files[{n}] (row {n}): point 3: non-finite T_meas_K" in result.stderr

    # the last item is the text of the line the message must name, or None
    @pytest.mark.parametrize("name, edit, bad_line", [
        ("shifts.csv", lambda text: re.sub(r"(?m)^(film01,film,(?:[^,]*,){4})[^,]*", r"\1abc",
                                           text, count=1), "abc"),
        ("fits.csv", lambda text: text.splitlines()[0] + "\n", None),
        ("shifts.csv", lambda text: "\n".join(
            ",".join(c for i, c in enumerate(line.split(",")) if i != 4)
            for line in text.splitlines()) + "\n", None),
        ("shifts.csv", lambda text: "\n".join(
            line for line in text.splitlines() if ",film," not in line) + "\n", None),
        ("shifts.csv", _ragged_row(blank_line=False), ",50,1"),
        ("shifts.csv", _ragged_row(blank_line=True), ",50,1"),
    ], ids=["non-numeric shift_uK", "fits header only", "no delta_t column", "no film rows",
            "ragged row", "empty line and ragged row"])
    def test_malformed_analysis_csv_exits_3_naming_file(
        self, runner, analyzed_run, name, edit, bad_line
    ):
        path = analyzed_run / "analysis" / name
        text = path.read_text()
        path.write_text(edit(text))
        assert path.read_text() != text
        result = runner.invoke(main, ["report", str(analyzed_run)])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert name in result.stderr
        if bad_line is not None:
            lines = path.read_text().split("\n")
            line = next(n for n, row in enumerate(lines, 1) if bad_line in row)
            assert f"{name}: line {line}: " in result.stderr

    def test_empty_lines_skipped_in_every_table(self, runner, analyzed_run):
        run_ok(runner, ["report", str(analyzed_run)])
        report = analyzed_run / "report"
        expected = {p.name: p.read_bytes() for p in report.glob("*.csv")}
        shifts = analyzed_run / "analysis" / "shifts.csv"
        expected_shifts = shifts.read_bytes()
        for path in [shifts, analyzed_run / "analysis" / "fits.csv"]:
            header, *rows = path.read_text().splitlines()
            path.write_text("\n".join([header, "", *rows[:5], "", "", *rows[5:], ""]) + "\n")
        run_ok(runner, ["report", str(analyzed_run)])
        assert {p.name: p.read_bytes() for p in report.glob("*.csv")} == expected
        run_ok(runner, ["analyze", str(analyzed_run)])
        assert shifts.read_bytes() == expected_shifts

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

