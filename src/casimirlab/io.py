"""On-disk formats: sweep CSVs, the run manifest and the analysis/report files.

Every CSV is written by `_write_table` and read by `_read_table`: a header
row with a fixed column order, then one row per line, numbers with 17
significant digits so that they round-trip exactly. All metadata needed to
regroup sweeps into triplets lives in the manifest, not in filenames (the
filenames merely encode it readably).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from io import StringIO
from itertools import chain
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
    """<sample>_<kind>_<sign><field uT>uT_rep<NNN>_<pos>.csv

    The field is the triplet's nominal field in uT (rounded, sign encoded
    as p/m), so the zero-field pre/post sweeps of different triplets get
    distinct names.
    """
    ut = int(round(field_mT * 1000.0))
    sign = "m" if ut < 0 else "p"
    return (
        f"{trace.sample_id}_{trace.kind}_{sign}{abs(ut):07d}uT_"
        f"rep{replication:03d}_{position}.csv"
    )


def _write_table(path, columns, rows) -> None:
    """Write the header row and the rows; one %-format renders the whole body.

    rows is a 2-D float array or an iterable of row tuples. A column whose
    first cell is a str is written as it is, every other cell with %.17g.
    """
    cells = rows.ravel().tolist() if isinstance(rows, np.ndarray) else [*chain.from_iterable(rows)]
    first = cells[:len(columns)]
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
    body = (line * (len(cells) // len(columns))) % tuple(cells)
    Path(path).write_text(",".join(columns) + "\n" + body)


def _data_lines(body) -> list:
    """(file line, text) of each row loadtxt parses; it skips empty lines."""
    return [(n, line) for n, line in enumerate(body.split("\n"), 2) if line]


def _read_table(path, columns, text_columns=()) -> dict:
    """Parse a table written by `_write_table` as {column: array}.

    Columns in text_columns stay str, the rest must be finite floats; empty
    lines are skipped. Malformed content is a DataError naming the file (and line).
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


def write_sweep_csv(path, trace: SweepTrace) -> None:
    """Write one sweep as tau_s,T_meas_K,R_meas_ohm rows."""
    data = np.column_stack((trace.tau_s, trace.t_meas_K, trace.r_meas_ohm))
    _write_table(path, SWEEP_COLUMNS, data)


def read_sweep_csv(path, sample_id: str, kind: str, field_mT: float, t_start_s: float) -> SweepTrace:
    """Parse one sweep file; any malformed content is a DataError naming it."""
    table = _read_table(path, SWEEP_COLUMNS)
    try:
        return SweepTrace(sample_id, kind, field_mT, t_start_s, *table.values())
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_csv(path, columns, rows) -> None:
    """Write a table: a header row, text cells as they are, numbers with %.17g."""
    _write_table(path, columns, rows)


def read_csv(path, columns, text_columns=()) -> dict:
    """{column: array} of a `write_csv` table; text_columns stay str, the rest finite floats."""
    return _read_table(path, columns, text_columns)


def write_dataset(out_dir, config: CampaignConfig, triplets) -> Path:
    """Write one CSV per sweep plus the run manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    sweep_dir = out_dir / SWEEP_DIR
    sweep_dir.mkdir(parents=True)  # an existing sweeps/ holds another run: refused

    files = []
    for trip in triplets:
        for position, trace in trip.sweeps():
            name = sweep_filename(trace, trip.field_mT, trip.replication, position)
            write_sweep_csv(sweep_dir / name, trace)
            files.append(
                {
                    "path": f"{SWEEP_DIR}/{name}",
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


def sweep_groups(run_dir, manifest: dict) -> list:
    """Group the manifest's sweep entries into triplets without reading them.

    Returns [((sample_id, field_mT, replication), {position: entry})] sorted
    by key. Raises DataError for a malformed entry or a listed file that is
    missing, and IncompleteTriplet naming the (sample, field, replication)
    combinations whose trio lacks members.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    entries = manifest.get("files")
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: no 'files' list")
    groups = {}
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: files[{n}] is not an object")
        if entry.get("role") != "sweep":
            continue
        bad = [k for k, want in SWEEP_ENTRY_TYPES.items()
               if not isinstance(entry.get(k), want) or isinstance(entry.get(k), bool)]
        if bad:
            raise DataError(
                f"{manifest_path}: files[{n}] ({entry.get('path', 'no path')}) "
                f"lacks or mistypes {', '.join(bad)}"
            )
        path = run_dir / entry["path"]
        if not path.exists():
            raise DataError(f"manifest lists missing file {path}")
        key = (entry["sample_id"], entry["field_mT"], entry["replication"])
        group, position = groups.setdefault(key, {}), entry["position"]
        if position in group:
            raise DataError(f"{manifest_path}: {group[position]['path']} and {entry['path']} are "
                            "both the {} sweep of {} at {} mT rep {}".format(position, *key))
        group[position] = entry

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


def load_dataset(run_dir):
    """Read a simulated dataset back from disk.

    Returns (config, triplets), the triplets sorted by (sample, field,
    replication). Raises IncompleteTriplet naming the offending (sample,
    field, replication) combinations if any trio is missing members.
    """
    manifest = read_manifest(run_dir)
    manifest_path = Path(run_dir) / MANIFEST_NAME
    if "config" not in manifest:
        raise DataError(f"{manifest_path}: no 'config' snapshot")
    try:
        config = config_from_dict(manifest["config"])
    except ConfigError as exc:
        raise DataError(f"{manifest_path}: {exc}") from exc
    triplets = [read_triplet(run_dir, group) for group in sweep_groups(run_dir, manifest)]
    return config, triplets


def normalized_manifest_bytes(run_dir) -> bytes:
    """Manifest content with the wall-clock field removed, for comparing runs."""
    manifest = read_manifest(run_dir)
    manifest.pop("created_utc", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()
