"""Smoke tests of the benchmark harness at its tiny --smoke size.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider bench/test_smoke.py

exp-exp is left out: its compare costs 15-30 s at any size (512
quadrature-backed cdf inversions), and the harness runs the same code for it
as for the two workloads tested here.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["exp-const", "rare-p01"])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["laplace.transform.calls"]["value"] > 0
        assert result["metrics"]["simulate.waves"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_the_package_fails_without_a_result():
    bare = Path(tempfile.mkdtemp(prefix=".bench-work-bare-", dir=ROOT))
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("exp-const", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
