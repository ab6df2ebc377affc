"""scripts/bench_record.py on canned perfbench/run.py output and a canned
sweep fingerprint: no solve runs."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"machine": "x86_64", "nproc": 2, "python": "3.11.9"}
FINGERPRINT = "\n".join([
    f"{'instance':<30}{'#Grad':>8}{'outer':>7}  {'success':<8}x sha256",
    "cluster(default_rng(0))            651      9  True    45e8736075ee",
    "#Grad by family: lcqp 79887  ev 10040  cluster 2463  ineq 6950",
    "",
])


def canned_run(workload, grads, solve_s=0.03, failed=0, attempted=40):
    """What perfbench/run.py --trace 0 prints: log lines, then one JSON line."""
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "oracle_grads": {"value": grads, "unit": "count"},
        },
    }
    return "\n".join([
        "# env " + json.dumps(ENV, sort_keys=True),
        f"# workload={workload} seed=11 seconds=25.0 trace=0",
        f"# fail_frac={failed / attempted:.4f} ({failed} of {attempted} solves not certified)",
        json.dumps(result),
        "",
    ])


def canned_record(cluster_grads=838.0, failed=0):
    runs = {
        "lcqp": canned_run("lcqp", 7163.0, 0.17),
        "cluster": canned_run("cluster", cluster_grads, failed=failed),
    }
    commit = {"commit": "a4fe93c", "dirty": True}
    return bench_record.record(commit, runs, FINGERPRINT, 1793)


class TestRecord:
    def test_fields_come_from_the_runs_and_the_sweep(self):
        rec = canned_record(failed=2)
        assert rec["commit"] == "a4fe93c" and rec["dirty"] is True
        assert rec["env"] == ENV
        cluster = rec["workloads"]["cluster"]
        assert cluster["metrics"]["oracle_grads"]["value"] == 838.0
        assert (cluster["failed"], cluster["attempted"], cluster["fail_frac"]) == (2, 40, 0.05)
        assert rec["workloads"]["lcqp"]["fail_frac"] == 0.0
        assert rec["sweep"] == {
            "sha256": hashlib.sha256(FINGERPRINT.encode()).hexdigest(),
            "family_sums": {"lcqp": 79887, "ev": 10040, "cluster": 2463, "ineq": 6950},
        }
        assert rec["code_lines"] == 1793
        # The record is what the script writes: plain JSON.
        assert json.loads(json.dumps(rec)) == rec

    def test_run_without_an_env_line_is_refused(self):
        out = canned_run("lcqp", 1.0).replace("# env", "# host")
        with pytest.raises(ValueError, match="env"):
            bench_record.env_line(out)


class TestPrevious:
    def test_newest_earlier_file(self, tmp_path):
        for name in ("BENCH_9.json", "BENCH_31.json", "BENCH_32.json", "BENCH_40.json",
                     "BENCH_x.json", "BENCH_30.json.bak"):
            (tmp_path / name).write_text("{}")
        assert bench_record.previous(tmp_path, 32).name == "BENCH_31.json"
        assert bench_record.previous(tmp_path, 31).name == "BENCH_9.json"
        assert bench_record.previous(tmp_path, 9) is None


class TestCompare:
    def test_reports_ratios_failures_sums_and_code_lines(self):
        old, new = canned_record(1005.0), canned_record(838.0, failed=1)
        new["sweep"] = {"sha256": "0" * 64, "family_sums": {"lcqp": 79887, "cluster": 2463}}
        old["sweep"]["family_sums"] = {"lcqp": 76077}
        new["code_lines"] = 1804
        lines = bench_record.compare(old, new)
        assert "cluster: failed 0 -> 1" in lines
        grads = next(x for x in lines if "oracle_grads" in x and "1005" in x)
        assert grads.endswith(f"ratio {838.0 / 1005.0:.4f}")
        assert "sweep fingerprint: changed" in lines
        assert any(x.split() == ["lcqp", "76077", "->", "79887"] for x in lines)
        assert any(x.split() == ["cluster", "n/a", "->", "2463"] for x in lines)
        assert lines[-1] == "code lines: 1793 -> 1804"

    def test_identical_records_read_ratio_one(self):
        rec = canned_record()
        lines = bench_record.compare(rec, rec)
        assert "sweep fingerprint: identical" in lines
        assert all(x.endswith("ratio 1.0000") for x in lines if "ratio" in x)

    def test_new_workload_is_named(self):
        old, new = canned_record(), canned_record()
        del old["workloads"]["cluster"]
        assert "cluster: new workload" in bench_record.compare(old, new)
