"""On-disk formats: the sweep arrays, the run manifest and the analysis/report tables.

Each sweep is one .npy file, a float64 (n, 3) array of SWEEP_COLUMNS, so
it round-trips exactly. Every table under analysis/ and report/ is a CSV
written by `write_csv` and read by `read_csv`: a header row with a fixed
column order, then one row per line, numbers with 17 significant digits so
that they round-trip exactly. All metadata needed to regroup sweeps into
triplets lives in the manifest, not in filenames (the filenames merely
encode it readably).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from io import StringIO
from itertools import chain
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_from_dict, config_to_dict
from .errors import ConfigError, DataError, IncompleteTriplet
from .simulate import CampaignConfig, SweepTrace, TripletRecord

MANIFEST_NAME = "manifest.json"
SWEEP_DIR = "sweeps"

SWEEP_COLUMNS = ("tau_s", "T_meas_K", "R_meas_ohm")
# key -> type of every sweep entry (role "sweep") in the manifest's "files" list; no bool
SWEEP_ENTRY_TYPES = {
    "path": str,
    "sample_id": str,
    "kind": str,
    "field_mT": (int, float),
    "applied_field_mT": (int, float),
    "replication": int,
    "position": str,
    "t_start_s": (int, float),
}


def sweep_filename(trace: SweepTrace, field_mT: float, replication: int, position: str) -> str:
    """<sample>_<kind>_<sign><field uT>uT_rep<NNN>_<pos>.npy

    The field is the triplet's nominal field in uT (rounded, sign encoded
    as p/m), so the zero-field pre/post sweeps of different triplets get
    distinct names.
    """
    ut = int(round(field_mT * 1000.0))
    sign = "m" if ut < 0 else "p"
    return (
        f"{trace.sample_id}_{trace.kind}_{sign}{abs(ut):07d}uT_"
        f"rep{replication:03d}_{position}.npy"
    )


def write_sweep_csv(path, trace: SweepTrace) -> None:
    """Write one sweep as .npy: a float64 (n, 3) array of tau_s, T_meas_K, R_meas_ohm.

    The name predates the format. np.save appends ".npy" to a path that
    lacks it.
    """
    np.save(path, np.column_stack((trace.tau_s, trace.t_meas_K, trace.r_meas_ohm)))


def read_sweep_csv(path, sample_id: str, kind: str, field_mT: float, t_start_s: float) -> SweepTrace:
    """Load one `write_sweep_csv` file; any malformed content is a DataError naming it.

    The file must hold a float64 (n, 3) array, n >= 50, of finite numbers
    with strictly increasing times. It is read as np.load(allow_pickle=False)
    reads a .npy file, without np.load's zip and pickle branches.
    """
    try:
        with open(path, "rb") as f:
            data = np.lib.format.read_array(f, allow_pickle=False)
    # ValueError: bad magic or header, truncated data, an object array;
    # MemoryError: a header claiming more elements than can be allocated
    except (OSError, ValueError, MemoryError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if data.dtype != np.float64 or data.ndim != 2 or data.shape[1] != len(SWEEP_COLUMNS):
        raise DataError(f"{path}: holds a {data.dtype} array of shape {data.shape}, "
                        f"expected float64 (n, {len(SWEEP_COLUMNS)}): {', '.join(SWEEP_COLUMNS)}")
    finite = np.isfinite(data)
    if not finite.all():
        row, column = np.argwhere(~finite)[0]
        raise DataError(f"{path}: row {row}: non-finite {SWEEP_COLUMNS[column]}")
    try:
        return SweepTrace(sample_id, kind, field_mT, t_start_s, *data.T)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_csv(path, columns, rows) -> None:
    """Write a table: a header row, text cells as they are, numbers with %.17g.

    rows is an iterable of row tuples; one %-format renders the whole body.
    A column whose first cell is a str is written as it is, every other
    cell with %.17g.
    """
    cells = [*chain.from_iterable(rows)]
    first = cells[:len(columns)]
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
    body = (line * (len(cells) // len(columns))) % tuple(cells)
    Path(path).write_text(",".join(columns) + "\n" + body)


def _data_lines(body) -> list:
    """(file line, text) of each row loadtxt parses; it skips empty lines."""
    return [(n, line) for n, line in enumerate(body.split("\n"), 2) if line]


def read_csv(path, columns, text_columns=()) -> dict:
    """{column: array} of a `write_csv` table; text_columns stay str, the rest finite floats.

    Empty lines are skipped. Malformed content is a DataError naming the
    file (and line).
    """
    try:
        header, _, body = Path(path).read_text().partition("\n")
    except (OSError, ValueError) as exc:  # unreadable, or not text
        raise DataError(f"{path}: {exc}") from exc
    if header != ",".join(columns):
        raise DataError(f"{path}: missing or wrong header, expected {','.join(columns)}")
    if not body.strip():
        raise DataError(f"{path}: no data rows")
    parse = dict(dtype=[(c, object if c in text_columns else float) for c in columns],
                 delimiter=",", comments=None, ndmin=1)
    try:
        data = np.loadtxt(StringIO(body), **parse)
    except ValueError as exc:
        for n, line in _data_lines(body):  # the first line that fails on its own
            try:
                np.loadtxt([line], **parse)
            except ValueError as row_exc:
                raise DataError(f"{path}: line {n}: {str(row_exc).split(' at row')[0]}") from exc
        raise DataError(f"{path}: {exc}") from exc
    for name in columns:
        finite = name in text_columns or np.isfinite(data[name])
        if not np.all(finite):
            line = _data_lines(body)[np.argmin(finite)][0]
            raise DataError(f"{path}: line {line}: non-finite {name}")
    return {name: data[name] for name in columns}


def write_dataset(out_dir, config: CampaignConfig, triplets) -> Path:
    """Write one .npy array per sweep plus the run manifest; returns the manifest path.

    Every sweep is named before sweeps/ is created. Two fields that round to
    the same uT (7.2 and 7.2004, a field listed twice, 0 and -0) would give
    two sweeps one file name: a ConfigError naming both fields and the file,
    with nothing written.
    """
    out_dir = Path(out_dir)
    files, sweeps = [], {}  # path -> (triplet field, trace)
    for trip in triplets:
        for position, trace in trip.sweeps():
            path = f"{SWEEP_DIR}/{sweep_filename(trace, trip.field_mT, trip.replication, position)}"
            if path in sweeps:
                raise ConfigError(f"fields {sweeps[path][0]!r} and {trip.field_mT!r} mT round to "
                                  f"the same uT, so two sweeps would both be {path}")
            sweeps[path] = trip.field_mT, trace
            files.append(
                {
                    "path": path,
                    "role": "sweep",
                    "sample_id": trace.sample_id,
                    "kind": trace.kind,
                    "field_mT": trip.field_mT,
                    "applied_field_mT": trace.field_mT,
                    "replication": trip.replication,
                    "position": position,
                    "t_start_s": trace.t_start_s,
                }
            )
    (out_dir / SWEEP_DIR).mkdir(parents=True)  # an existing sweeps/ holds another run: refused
    for path, (_, trace) in sweeps.items():
        write_sweep_csv(out_dir / path, trace)

    manifest = {
        "tool": "casimirlab",
        "tool_version": __version__,
        "master_seed": config.noise.seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": config_to_dict(config),
        "files": files,
    }
    if config.thermal is not None:
        manifest["thermal_enhancement"] = config.enhancement
    path = out_dir / MANIFEST_NAME
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def read_manifest(run_dir) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise DataError(f"no {MANIFEST_NAME} found in {run_dir}")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or not text
        raise DataError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: not a JSON object")
    return manifest


def sweep_groups(run_dir, manifest: dict, homogeneity: float) -> list:
    """Group the manifest's sweep entries into triplets without reading them.

    Returns [((sample_id, field_mT, replication), {position: entry})] sorted
    by key. Every entry must be a sweep (role "sweep"). Raises DataError for
    a malformed entry or one of another role, a listed file that is
    missing, two entries for one sweep or for one file, or a mid sweep
    whose applied_field_mT is not the one simulate.run_triplet applies: the
    triplet's field_mT for a film, times (1 + homogeneity) for a cavity.
    Raises IncompleteTriplet naming the (sample, field, replication)
    combinations whose trio lacks members.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    entries = manifest.get("files")
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: no 'files' list")
    groups, paths = {}, {}
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: files[{n}] is not an object")
        if entry.get("role") != "sweep":
            raise DataError(f"{manifest_path}: files[{n}] ({entry.get('path', 'no path')}) "
                            f"has role {entry.get('role')!r}, not 'sweep'")
        bad = [k for k, want in SWEEP_ENTRY_TYPES.items()
               if not isinstance(entry.get(k), want) or isinstance(entry.get(k), bool)]
        if bad:
            raise DataError(
                f"{manifest_path}: files[{n}] ({entry.get('path', 'no path')}) "
                f"lacks or mistypes {', '.join(bad)}"
            )
        # json reads NaN, Infinity and 1e999 as non-finite floats
        bad = [k for k in SWEEP_ENTRY_TYPES
               if isinstance(entry[k], float) and not isfinite(entry[k])]
        if bad:
            raise DataError(
                f"{manifest_path}: files[{n}] ({entry['path']}) has non-finite {', '.join(bad)}"
            )
        if entry["position"] == "mid":
            applied = entry["field_mT"] * (1.0 + homogeneity if entry["kind"] == "cavity" else 1.0)
            if entry["applied_field_mT"] != applied:
                raise DataError(
                    f"{manifest_path}: files[{n}] ({entry['path']}) is the mid sweep of a "
                    f"{entry['kind']} triplet at {entry['field_mT']!r} mT, so its "
                    f"applied_field_mT must be {applied!r}, not {entry['applied_field_mT']!r}"
                )
        path = run_dir / entry["path"]
        if not path.exists():
            raise DataError(f"manifest lists missing file {path}")
        key = (entry["sample_id"], entry["field_mT"], entry["replication"])
        group, position = groups.setdefault(key, {}), entry["position"]
        if position in group:
            raise DataError(f"{manifest_path}: {group[position]['path']} and {entry['path']} are "
                            "both the {} sweep of {} at {} mT rep {}".format(position, *key))
        if path in paths:
            raise DataError(f"{manifest_path}: files[{paths[path]}] and files[{n}] both name "
                            f"{entry['path']}")
        group[position], paths[path] = entry, n

    incomplete = sorted(
        key for key, sweeps in groups.items() if set(sweeps) != {"pre", "mid", "post"}
    )
    if incomplete:
        listing = ", ".join(f"{s} at {f} mT rep {r}" for s, f, r in incomplete)
        raise IncompleteTriplet(f"incomplete triplets: {listing}")
    if not groups:
        raise DataError(f"no sweeps found in {run_dir}")
    return sorted(groups.items())


def read_triplet(run_dir, group) -> TripletRecord:
    """Parse the three sweep files of one group from `sweep_groups`."""
    run_dir = Path(run_dir)
    (_, field, rep), entries = group
    sweeps = {
        position: read_sweep_csv(
            run_dir / e["path"], e["sample_id"], e["kind"], e["applied_field_mT"], e["t_start_s"]
        )
        for position, e in entries.items()
    }
    try:
        return TripletRecord(**sweeps, field_mT=field, replication=rep)
    except ValueError as exc:
        paths = ", ".join(str(run_dir / entries[p]["path"]) for p in ("pre", "mid", "post"))
        raise DataError(f"{paths}: {exc}") from exc


def open_run(run_dir):
    """(config, sweep_groups) of a run: its manifest, config snapshot and sweep entries checked."""
    manifest = read_manifest(run_dir)
    manifest_path = Path(run_dir) / MANIFEST_NAME
    if "config" not in manifest:
        raise DataError(f"{manifest_path}: no 'config' snapshot")
    try:
        config = config_from_dict(manifest["config"])
    except ConfigError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    return config, sweep_groups(run_dir, manifest, config.homogeneity)


def load_dataset(run_dir):
    """Read a simulated dataset back from disk: open_run, then every sweep file.

    Returns (config, triplets), the triplets sorted by (sample, field,
    replication). Raises IncompleteTriplet naming the offending (sample,
    field, replication) combinations if any trio is missing members.
    """
    config, groups = open_run(run_dir)
    return config, [read_triplet(run_dir, group) for group in groups]


def normalized_manifest_bytes(run_dir) -> bytes:
    """Manifest content with the wall-clock field removed, for comparing runs."""
    manifest = read_manifest(run_dir)
    manifest.pop("created_utc", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()
