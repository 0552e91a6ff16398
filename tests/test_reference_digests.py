"""Every output byte of three reference runs, pinned by sha256.

The example config (`casimirlab example-config`) at seeds 4242 and 7, and
the same config with its `[thermal]` section uncommented at seed 11, go
through simulate, analyze and report with click's CliRunner. The test
compares the sha256 of `sweeps.npy`, of the manifest without its wall-clock
field (`normalized_manifest_bytes`), of each file under `analysis/` and of
each file under `report/` with tests/reference_digests.json, and names every
file whose digest differs, is missing or is new.

The digests hold for numpy 2.4.6: another numpy may round a last bit of the
noise or of a sum differently, and every digest below it moves.

A change that moves outputs on purpose rewrites the table with

    PYTHONPATH=src python tests/test_reference_digests.py

(no PYTHONPATH once casimirlab is installed), which prints each file whose
digest moved; the change's CHANGES.md entry names them.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

from click.testing import CliRunner

from casimirlab.cli import main
from casimirlab.config import EXAMPLE_CONFIG
from casimirlab.io import normalized_manifest_bytes

TABLE = Path(__file__).with_name("reference_digests.json")

THERMAL_EXAMPLE = re.sub(r"(?m)^# (\[thermal\]|t_env_K|x_eff)", r"\1", EXAMPLE_CONFIG)

# run name -> (config text, seed)
RUNS = {
    "example_seed4242": (EXAMPLE_CONFIG, 4242),
    "example_seed7": (EXAMPLE_CONFIG, 7),
    "thermal_seed11": (THERMAL_EXAMPLE, 11),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(root: Path) -> dict:
    """{run: {file: sha256}} of the reference runs, made under root."""
    runner = CliRunner()
    digests = {}
    for name, (text, seed) in RUNS.items():
        config, out = root / f"{name}.ini", root / name
        config.write_text(text)
        for args in (["simulate", "--config", str(config), "--out", str(out), "--seed", str(seed)],
                     ["analyze", str(out)], ["report", str(out)]):
            result = runner.invoke(main, [*args, "--quiet"], catch_exceptions=False)
            assert result.exit_code == 0, f"{name}: {args[0]}: {result.output}"
        files = {"sweeps.npy": sha256((out / "sweeps.npy").read_bytes()),
                 "manifest.json (normalized)": sha256(normalized_manifest_bytes(out))}
        for sub in ("analysis", "report"):
            for path in sorted((out / sub).iterdir()):
                files[f"{sub}/{path.name}"] = sha256(path.read_bytes())
        digests[name] = files
    return digests


def moved(reference: dict, digests: dict) -> list:
    """'run/file' of every file whose digest differs, or that only one side has."""
    return [f"{run}/{name}"
            for run in sorted(reference.keys() | digests.keys())
            for name in sorted(reference.get(run, {}).keys() | digests.get(run, {}).keys())
            if reference.get(run, {}).get(name) != digests.get(run, {}).get(name)]


def test_outputs_match_reference_digests(tmp_path):
    differ = moved(json.loads(TABLE.read_text()), run_digests(tmp_path))
    assert not differ, f"outputs differ from {TABLE.name}: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_digests(Path(tmp))
    reference = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    TABLE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    changed = moved(reference, digests)
    print("\n".join(f"moved: {name}" for name in changed) or "no digest moved")
    print(f"wrote {TABLE}")
