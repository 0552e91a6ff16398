"""On-disk formats: the sweep array, the run manifest and the analysis/report tables.

A run's sweeps are one .npy file, sweeps.npy, a float64 (n_sweeps, n, 3)
array of SWEEP_COLUMNS that round-trips exactly; each sweep entry of the
manifest, which holds every sweep's metadata, names its row. Every table
under analysis/ and report/ is a CSV written by `write_csv` and read by
`read_csv`: a header row with a fixed column order, then one row per line,
numbers with 17 significant digits so that they round-trip exactly.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from io import StringIO
from itertools import chain
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_from_dict, config_to_dict
from .errors import ConfigError, DataError, IncompleteTriplet
from .simulate import MIN_SWEEP_POINTS, CampaignConfig, SweepTrace, TripletRecord

MANIFEST_NAME = "manifest.json"
SWEEPS_NAME = "sweeps.npy"

SWEEP_COLUMNS = ("tau_s", "T_meas_K", "R_meas_ohm")
# key -> exact JSON types (so a bool is no int) of every sweep entry in the manifest's "files"
SWEEP_ENTRY_TYPES = {
    "row": (int,),
    "sample_id": (str,),
    "kind": (str,),
    "field_mT": (int, float),
    "applied_field_mT": (int, float),
    "replication": (int,),
    "position": (str,),
    "t_start_s": (int, float),
}


def write_sweep_csv(path, traces) -> None:
    """Write a run's sweeps as one .npy file: a float64 (n_sweeps, n, 3) array, row i
    holding traces[i]'s tau_s, T_meas_K, R_meas_ohm.

    The name predates the format. The file is opened for exclusive creation,
    so an existing file (another run's) raises FileExistsError untouched.
    """
    data = np.empty((len(traces), traces[0].n_points, len(SWEEP_COLUMNS)))
    data.transpose(0, 2, 1)[...] = [(t.tau_s, t.t_meas_K, t.r_meas_ohm) for t in traces]
    with open(path, "xb") as f:
        np.save(f, data)


def _read_rows(f, n_rows: int, rows) -> np.ndarray:
    """The given rows of the open .npy file f, checked to hold a C-order float64
    (n_rows, points, 3) array with points >= MIN_SWEEP_POINTS; a ValueError names the fault.

    Rows are read straight into the returned (len(rows), points, 3) array,
    one read per run of consecutive rows. The file's size is checked before
    the array is allocated.
    """
    version = np.lib.format.read_magic(f)
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}.get(version)
    if read_header is None:  # version 3.0 only adds UTF-8 field names
        raise ValueError(f"npy format version {version[0]}.{version[1]}, expected 1.0 or 2.0")
    shape, fortran_order, dtype = read_header(f)
    if (dtype != np.float64 or len(shape) != 3 or shape[0] != n_rows
            or shape[1] < MIN_SWEEP_POINTS or shape[2] != len(SWEEP_COLUMNS)):
        raise ValueError(f"holds a {dtype} array of shape {shape}, expected "
                         f"float64 ({n_rows} sweeps, >= {MIN_SWEEP_POINTS} points, "
                         f"{len(SWEEP_COLUMNS)}): {', '.join(SWEEP_COLUMNS)}")
    if fortran_order:  # its rows are not contiguous, so no offset addresses one
        raise ValueError("holds a Fortran-order array, expected C order")
    start, row_bytes = f.tell(), shape[1] * shape[2] * dtype.itemsize
    size = os.fstat(f.fileno()).st_size
    if size < start + n_rows * row_bytes:
        raise ValueError(f"holds {size} bytes, but its header claims {n_rows} rows of "
                         f"{row_bytes} bytes after {start} bytes of header")
    block = np.empty((len(rows), *shape[1:]))
    firsts = [i for i in range(len(rows)) if i == 0 or rows[i] != rows[i - 1] + 1]
    for first, end in zip(firsts, firsts[1:] + [len(rows)]):
        f.seek(start + rows[first] * row_bytes)
        if f.readinto(block[first:end]) != (end - first) * row_bytes:
            raise ValueError(f"ends inside row {rows[end - 1]}")
    return block


def read_sweep_csv(path, n_rows: int, picks) -> list:
    """SweepTraces of the picked rows of a `write_sweep_csv` file; bad content is a DataError.

    picks lists (n, entry) pairs, entry being the checked files[n] of the
    manifest, whose "row" names its sweep's row. The file is opened once and
    its header read with numpy's .npy header readers, without np.load's zip
    and pickle branches. It must hold a C-order float64 (n_rows, points, 3)
    array with points >= MIN_SWEEP_POINTS, under a .npy version 1.0 or 2.0
    header: a Fortran-order array, whose rows are not contiguous, and a
    version 3.0 header, which only UTF-8 field names need, are refused. Only
    the picked rows are read, in picks order, straight into the returned
    sweeps' memory; of those that hold a non-finite number or times that do
    not strictly increase, the first in picks order is named by its files[n].
    """
    try:
        with open(path, "rb") as f:
            block = _read_rows(f, n_rows, [entry["row"] for _, entry in picks])
    # ValueError: bad magic, version or header, a wrong array, a file shorter
    # than its header claims
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    bad = ~np.isfinite(block)
    traces = []
    for (n, entry), sweep, bad_sweep, faulty in zip(picks, block, bad, bad.any(axis=(1, 2))):
        try:
            if faulty:
                point, column = np.argwhere(bad_sweep)[0]
                raise ValueError(f"point {point}: non-finite {SWEEP_COLUMNS[column]}")
            traces.append(SweepTrace(entry["sample_id"], entry["kind"],
                                     entry["applied_field_mT"], entry["t_start_s"], *sweep.T))
        except ValueError as exc:
            raise DataError(f"{path}: files[{n}] (row {entry['row']}): {exc}") from exc
    return traces


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
    """Write a run: its sweeps.npy (write_sweep_csv) and manifest; returns the manifest path.

    Two triplets with one (sample, field, replication) key (a field listed
    twice, or 0 and -0) would be one triplet to a reader: a ConfigError
    naming both fields, raised before anything is written.
    """
    out_dir = Path(out_dir)
    files, traces, fields = [], [], {}  # fields: triplet key -> field as configured
    for trip in triplets:
        key = (trip.sample_id, trip.field_mT, trip.replication)
        if key in fields:
            raise ConfigError(f"fields {fields[key]!r} and {trip.field_mT!r} mT are one field, so "
                              f"{trip.sample_id} would have two triplets there at replication "
                              f"{trip.replication}")
        fields[key] = trip.field_mT
        for position, trace in trip.sweeps():
            files.append(
                {
                    "row": len(traces),
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
            traces.append(trace)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(out_dir / SWEEPS_NAME, traces)  # an existing sweeps.npy is refused

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
    """Group the manifest's sweep entries into triplets without reading the sweeps.

    Returns [((sample_id, field_mT, replication), {position: (n, files[n])})]
    sorted by key. Every entry must be a sweep (role "sweep"). Raises
    DataError for a malformed entry or one of another role, a row outside
    0..len(files)-1, two entries for one sweep or for one row, or a mid
    sweep whose applied_field_mT is not the one simulate.run_triplet
    applies: the triplet's field_mT for a film, times (1 + homogeneity) for
    a cavity. Raises IncompleteTriplet naming the (sample, field,
    replication) combinations whose trio lacks members.
    """
    manifest_path = Path(run_dir) / MANIFEST_NAME
    entries = manifest.get("files")
    if not isinstance(entries, list):
        raise DataError(f"{manifest_path}: no 'files' list")
    groups, rows = {}, {}
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: files[{n}] is not an object")
        if entry.get("role") != "sweep":
            raise DataError(f"{manifest_path}: files[{n}] has role {entry.get('role')!r}, "
                            "not 'sweep'")
        bad = [k for k, want in SWEEP_ENTRY_TYPES.items() if type(entry.get(k)) not in want]
        if bad:
            raise DataError(f"{manifest_path}: files[{n}] lacks or mistypes {', '.join(bad)}")
        # json reads NaN, Infinity and 1e999 as non-finite floats
        bad = [k for k in SWEEP_ENTRY_TYPES
               if isinstance(entry[k], float) and not isfinite(entry[k])]
        if bad:
            raise DataError(f"{manifest_path}: files[{n}] has non-finite {', '.join(bad)}")
        if entry["position"] == "mid":
            applied = entry["field_mT"] * (1.0 + homogeneity if entry["kind"] == "cavity" else 1.0)
            if entry["applied_field_mT"] != applied:
                raise DataError(
                    f"{manifest_path}: files[{n}] is the mid sweep of a "
                    f"{entry['kind']} triplet at {entry['field_mT']!r} mT, so its "
                    f"applied_field_mT must be {applied!r}, not {entry['applied_field_mT']!r}"
                )
        row = entry["row"]
        if not 0 <= row < len(entries):
            raise DataError(f"{manifest_path}: files[{n}] names row {row}, but the "
                            f"{len(entries)} entries have rows 0 to {len(entries) - 1}")
        key = (entry["sample_id"], entry["field_mT"], entry["replication"])
        group, position = groups.setdefault(key, {}), entry["position"]
        if position in group:
            raise DataError(f"{manifest_path}: files[{group[position][0]}] and files[{n}] are "
                            "both the {} sweep of {} at {} mT rep {}".format(position, *key))
        if row in rows:
            raise DataError(f"{manifest_path}: files[{rows[row]}] and files[{n}] both name "
                            f"row {row}")
        group[position], rows[row] = (n, entry), n

    incomplete = sorted(
        key for key, sweeps in groups.items() if set(sweeps) != {"pre", "mid", "post"}
    )
    if incomplete:
        listing = ", ".join(f"{s} at {f} mT rep {r}" for s, f, r in incomplete)
        raise IncompleteTriplet(f"incomplete triplets: {listing}")
    if not groups:
        raise DataError(f"no sweeps found in {run_dir}")
    return sorted(groups.items())


def read_triplets(run_dir, groups, wanted=None) -> list:
    """TripletRecords of the `wanted` groups (default: all) of a run's `sweep_groups` list.

    sweep_groups puts every sweep entry of the run in one complete group, so
    sweeps.npy must hold 3 * len(groups) rows. The wanted sweeps are read
    in one read_sweep_csv call.
    """
    wanted = groups if wanted is None else wanted
    picks = [entries[p] for _, entries in wanted for p in ("pre", "mid", "post")]
    traces = read_sweep_csv(Path(run_dir) / SWEEPS_NAME, 3 * len(groups), picks)
    triplets = []
    for i, ((_, field, rep), entries) in enumerate(wanted):
        try:
            triplets.append(TripletRecord(*traces[3 * i:3 * i + 3], field, rep))
        except ValueError as exc:
            names = ", ".join(f"files[{n}]" for n, _ in sorted(entries.values()))
            raise DataError(f"{Path(run_dir) / MANIFEST_NAME}: {names}: {exc}") from exc
    return triplets


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
    """Read a simulated dataset back from disk: open_run, then every row of sweeps.npy.

    Returns (config, triplets), the triplets sorted by (sample, field,
    replication). Raises IncompleteTriplet naming the offending (sample,
    field, replication) combinations if any trio is missing members.
    """
    config, groups = open_run(run_dir)
    return config, read_triplets(run_dir, groups)


def normalized_manifest_bytes(run_dir) -> bytes:
    """Manifest content with the wall-clock field removed, for comparing runs."""
    manifest = read_manifest(run_dir)
    manifest.pop("created_utc", None)
    return json.dumps(manifest, indent=2, sort_keys=True).encode()
