"""Smoke test for the benchmark harness.

Runs every workload on its small instance, with tracing off and on, and
checks the result contract: every end-to-end and per-layer metric named in
BENCHMARK.json is present with its unit, every solve certified, and the
machine-independent counts repeat exactly across two runs with one seed.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the harness defines.
WORKLOADS = ("lcqp", "ev", "cluster", "ineq")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Counts that do not depend on the machine, so they must repeat exactly.
REPEATED = {0: ("oracle_grads",), 1: ("ialm.outer_iters", "ineq.outer_iters", "apg.iters")}


def run_bench(workload, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600, check=check)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_gated_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_contract_and_repeatability(workload, trace):
    key = "per_layer" if trace else "end_to_end"
    expected_units = {m["name"]: m["unit"] for m in SPEC[key]}
    first, second = (result_of(run_bench(workload, trace)) for _ in range(2))
    for result in (first, second):
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected_units
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for name in REPEATED[trace]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_sources(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run must
    fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
