"""The benchmark still runs: a traced run of each workload checks its outputs
and that every function it pins fires (perfbench/plan.json expected_spans)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, info["info"]["failures"]
