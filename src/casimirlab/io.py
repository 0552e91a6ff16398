"""On-disk formats: sweep CSVs, the run manifest and the analysis/report files.

Every CSV carries a header row with a fixed column order; floating-point
values are serialized with 17 significant digits so they round-trip
exactly. All metadata needed to regroup sweeps into triplets lives in the
manifest, not in filenames (the filenames merely encode it readably).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_from_dict, config_to_dict
from .errors import ConfigError, DataError, IncompleteTriplet
from .simulate import CampaignConfig, SweepTrace, TripletRecord

MANIFEST_NAME = "manifest.json"
SWEEP_DIR = "sweeps"

SWEEP_COLUMNS = ("tau_s", "T_meas_K", "R_meas_ohm")
# key -> type of every sweep entry (role "sweep") in the manifest's "files" list
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


def fmt(x: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    return format(float(x), ".17g")


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


def write_sweep_csv(path, trace: SweepTrace) -> None:
    """Write one sweep; the body is rendered by a single %-format in C."""
    data = np.column_stack((trace.tau_s, trace.t_meas_K, trace.r_meas_ohm))
    body = ("%.17g,%.17g,%.17g\n" * len(data)) % tuple(data.ravel().tolist())
    Path(path).write_text(",".join(SWEEP_COLUMNS) + "\n" + body)


def read_sweep_csv(path, sample_id: str, kind: str, field_mT: float, t_start_s: float) -> SweepTrace:
    """Parse one sweep file; any malformed content is a DataError naming it."""
    try:
        with open(path) as f:
            if f.readline().rstrip("\n") != ",".join(SWEEP_COLUMNS):
                raise DataError(f"{path}: missing or wrong sweep header")
            # loadtxt warns and returns no rows on a body without data
            start = f.tell()
            if not f.readline().strip():
                raise DataError(f"{path}: no data on line 2")
            f.seek(start)
            data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: malformed sweep data: {exc}") from exc
    if data.shape[1] != len(SWEEP_COLUMNS):
        raise DataError(
            f"{path}: {data.shape[1]} columns, expected {len(SWEEP_COLUMNS)}"
        )
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        # loadtxt skips empty lines, so map the data row back to its line
        body = Path(path).read_text().splitlines()[1:]
        lines = [n for n, line in enumerate(body, 2) if line]
        line = lines[int(np.argmin(finite))]
        raise DataError(f"{path}: line {line}: non-finite reading")
    try:
        return SweepTrace(
            sample_id=sample_id,
            kind=kind,
            field_mT=field_mT,
            t_start_s=t_start_s,
            tau_s=data[:, 0],
            t_meas_K=data[:, 1],
            r_meas_ohm=data[:, 2],
        )
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_csv(path, columns, rows) -> None:
    """Generic CSV writer; floats go through fmt(), everything else via str."""
    out = [",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, (float, np.floating)):
                cells.append(fmt(v))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    Path(path).write_text("\n".join(out) + "\n")


def read_csv(path, columns, text_columns=()) -> dict:
    """Read a table written by `write_csv` as {column: array}.

    Columns in text_columns stay strings, the rest parse as floats. A wrong
    header, a ragged row, a non-numeric or non-finite cell or a table
    without rows is a DataError naming the file.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read: {exc}") from exc
    if not lines or lines[0] != ",".join(columns):
        raise DataError(f"{path}: missing or wrong header, expected {','.join(columns)}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise DataError(f"{path}: no data rows")
    for n, row in enumerate(rows, 2):
        if len(row) != len(columns):
            raise DataError(f"{path}: line {n}: {len(row)} cells, expected {len(columns)}")
    table = {}
    for name, cells in zip(columns, zip(*rows)):
        if name in text_columns:
            table[name] = np.array(cells)
            continue
        try:
            table[name] = np.array(cells, dtype=float)
        except ValueError as exc:
            raise DataError(f"{path}: column {name}: {exc}") from exc
        finite = np.isfinite(table[name])
        if not finite.all():
            raise DataError(f"{path}: line {2 + int(np.argmin(finite))}: non-finite {name}")
    return table


def write_dataset(out_dir, config: CampaignConfig, triplets) -> Path:
    """Write one CSV per sweep plus the run manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    sweep_dir = out_dir / SWEEP_DIR
    sweep_dir.mkdir(parents=True, exist_ok=True)

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
    except json.JSONDecodeError as exc:
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
        bad = [k for k, want in SWEEP_ENTRY_TYPES.items() if not isinstance(entry.get(k), want)]
        if bad:
            raise DataError(
                f"{manifest_path}: files[{n}] ({entry.get('path', 'no path')}) "
                f"lacks or mistypes {', '.join(bad)}"
            )
        path = run_dir / entry["path"]
        if not path.exists():
            raise DataError(f"manifest lists missing file {path}")
        key = (entry["sample_id"], entry["field_mT"], entry["replication"])
        groups.setdefault(key, {})[entry["position"]] = entry

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
        return TripletRecord(
            pre=sweeps["pre"], mid=sweeps["mid"], post=sweeps["post"],
            field_mT=field, replication=rep,
        )
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
