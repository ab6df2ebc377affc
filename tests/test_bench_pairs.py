"""scripts/bench_pairs.py on canned perfbench/run.py output: no solve runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def canned_output(solve_s, grads=1005.0, failed=0):
    """What perfbench/run.py --trace 0 prints: log lines, then one JSON line."""
    result = {
        "correct": failed == 0,
        "attempted": 8,
        "failed": failed,
        "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "oracle_grads": {"value": grads, "unit": "count"},
        },
    }
    return "\n".join(
        ['# env {"nproc": 2}', "# workload=cluster seed=11", "# solve_s 0.03", json.dumps(result), ""]
    )


def fake_runner(times, failed=None):
    """A ``run(side)`` that hands out each side's canned times in turn and
    records the order of the calls; ``failed`` maps a side to the failed
    solves each of its runs reports."""
    queues = {side: list(values) for side, values in times.items()}
    failed = failed or {}
    calls = []

    def run(side):
        calls.append(side)
        return canned_output(queues[side].pop(0), failed=failed.get(side, 0))

    return run, calls


def test_parse_run_reads_the_last_json_line():
    out = bench_pairs.parse_run(canned_output(0.5, failed=1))
    assert out["failed"] == 1 and out["metrics"]["solve_s"]["value"] == 0.5
    with pytest.raises(ValueError):
        bench_pairs.parse_run("\n\n")


def test_pairs_alternate_which_side_runs_first():
    run, calls = fake_runner({"parent": [1.0, 2.0, 3.0], "change": [4.0, 5.0, 6.0]})
    parent, change = bench_pairs.run_pairs(run, 3)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["metrics"]["solve_s"]["value"] for r in parent] == [1.0, 2.0, 3.0]
    assert [r["metrics"]["solve_s"]["value"] for r in change] == [4.0, 5.0, 6.0]


def test_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_nine_of_ten_wins_beyond_the_parents_iqr_holds():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 1.05]
    row = bench_pairs.compare(parent, change)
    assert row["wins"] == 9 and row["verdict"] == "gain"
    assert row["ratio"] == pytest.approx(0.90)


def test_eight_wins_or_a_median_gap_inside_the_iqr_fails():
    parent = [1.0] * 10
    change = [0.9] * 8 + [1.1] * 2
    assert bench_pairs.compare(parent, change)["wins"] == 8
    assert bench_pairs.compare(parent, change)["verdict"] == "within bound"
    # Ten wins, but by less than the parent's interquartile range.
    parent = [1.0, 1.2] * 5
    change = [p - 0.01 for p in parent]
    row = bench_pairs.compare(parent, change)
    assert row["wins"] == 10 and row["verdict"] == "within bound"
    # Nine pairs are too few, however clear.
    row = bench_pairs.compare([1.0] * 9, [0.5] * 9)
    assert row["wins"] == 9 and row["verdict"] == "within bound"


def test_more_failed_solves_on_the_change_side_is_no_gain():
    parent, change = [1.0] * 10, [0.5] * 10
    assert bench_pairs.compare(parent, change, failed=(1, 1))["verdict"] == "gain"
    assert bench_pairs.compare(parent, change, failed=(0, 1))["verdict"] == "within bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 1.4] * 5  # IQR 0.4 on a median of 1.2: beyond a 15% bound
    change = [1.5, 0.9] * 5
    row = bench_pairs.compare(parent, change, bound=0.15)
    assert row["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    row = bench_pairs.compare(parent, [0.95] * 8 + [2.0] * 2, bound=0.15)
    assert row["verdict"] == "unresolved"
    row = bench_pairs.compare(parent, [0.9, 0.95] * 5, bound=0.15)
    assert row["verdict"] == "within bound"


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    assert bench_pairs.compare([1.0] * 10, [1.2] * 10, bound=0.15)["verdict"] == "regression"
    assert bench_pairs.compare([1.0] * 10, [1.1] * 10, bound=0.15)["verdict"] == "within bound"
    row = bench_pairs.compare([1.0] * 10, [0.8] * 10, better="higher", bound=0.15)
    assert row["verdict"] == "regression"


def test_higher_is_better_flips_the_wins():
    row = bench_pairs.compare([1.0] * 10, [2.0] * 10, better="higher")
    assert row["wins"] == 10 and row["verdict"] == "gain"
    assert bench_pairs.compare([1.0] * 10, [2.0] * 10)["wins"] == 0


def test_table_reports_every_metric_and_failed_solves():
    metrics = bench_pairs.end_to_end(json.loads(bench_pairs.BENCHMARK.read_text()))
    run, _ = fake_runner({"parent": [0.036] * 10, "change": [0.032] * 10})
    parent, change = bench_pairs.run_pairs(run, 10)
    lines = bench_pairs.table(parent, change, metrics)
    assert lines[0] == "failed solves: parent 0, change 0"
    solve, grads = lines[2], lines[3]
    assert solve.startswith("solve_s") and solve.endswith("10/10   gain")
    # Equal counts on every pair: no win, so no gain.
    assert grads.startswith("oracle_grads") and "0/10" in grads
    assert grads.endswith("within bound")


def test_table_refuses_a_gain_when_the_change_fails_more_solves():
    metrics = bench_pairs.end_to_end(json.loads(bench_pairs.BENCHMARK.read_text()))
    run, _ = fake_runner(
        {"parent": [0.036] * 10, "change": [0.032] * 10}, failed={"change": 1}
    )
    parent, change = bench_pairs.run_pairs(run, 10)
    lines = bench_pairs.table(parent, change, metrics)
    assert lines[0] == "failed solves: parent 0, change 10"
    assert lines[2].startswith("solve_s") and lines[2].endswith("10/10   within bound")


def test_the_benchmark_declares_each_end_to_end_metric():
    metrics = bench_pairs.end_to_end(json.loads(bench_pairs.BENCHMARK.read_text()))
    for name in ("solve_s", "campaign_s", "oracle_grads", "setup_s", "peak_rss_mb"):
        assert metrics[name]["better"] == "lower" and metrics[name]["bound"] > 0
