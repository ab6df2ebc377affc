#!/usr/bin/env python3
"""Alternated benchmark pairs: this checkout against another revision.

Runs ``perfbench/run.py --trace 0`` on one workload, in turn from a
temporary ``git worktree`` of REV (the parent side) and from the checkout
this script sits in (the change side), for N pairs.  Which side runs first
swaps from pair to pair, so a drift in the host's speed weighs on both.
Each run prints one JSON line of end-to-end metrics; for each metric the
script prints both sides' median and quartiles, the ratio of the medians,
the pairs the change won, and a verdict:

- ``gain``: at least ten pairs, better in at least nine pairs of ten,
  better in the median by more than the parent's interquartile range, and
  no more failed solves than the parent;
- ``unresolved``: no gain, and the parent's interquartile range is wider
  than the metric's bound, unless every change run beats every parent run;
- ``regression``: the change's median is worse by more than the bound;
- ``within bound`` otherwise.

Each run lasts BENCHMARK.json's ``run_seconds`` on both sides; each
metric's direction ("lower" or "higher" is better) and bound come from the
same file.  Timings are host-dependent, so this is a report, not a gate.

    python3 scripts/bench_pairs.py --workload cluster --against HEAD~1 --pairs 10

REV is anything ``git worktree add`` accepts; the worktree is removed on
exit.  Uncommitted edits in this checkout are part of the change side.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"

# The gain rule needs at least this many pairs, and the change must win
# at least nine tenths of them.
MIN_PAIRS = 10


def parse_run(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(
    parent: list,
    change: list,
    better: str = "lower",
    bound: float = math.inf,
    failed: tuple = (0, 0),
) -> dict:
    """Pair-by-pair comparison of one metric; ``parent[i]`` and
    ``change[i]`` come from pair i.  ``bound`` is the relative worsening
    the benchmark allows, ``failed`` the (parent, change) failed solves."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    scale = abs(pmed)
    if (
        len(parent) >= MIN_PAIRS
        and 10 * wins >= 9 * len(parent)
        and sign * (pmed - cmed) > p3 - p1
        and failed[1] <= failed[0]
    ):
        verdict = "gain"
    elif p3 - p1 > bound * scale and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        verdict = "unresolved"
    elif sign * (cmed - pmed) > bound * scale:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "parent": (p1, pmed, p3),
        "change": (c1, cmed, c3),
        "ratio": cmed / pmed if pmed else math.nan,
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def run_pairs(run: Callable[[str], str], pairs: int) -> tuple[list, list]:
    """Call ``run("parent")`` and ``run("change")`` once per pair, the
    parent first in even pairs and the change first in odd ones; return
    each side's parsed results in pair order."""
    results = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(parse_run(run(side)))
    return results["parent"], results["change"]


def end_to_end(spec: dict) -> dict:
    """End-to-end metric name -> its declaration in the benchmark ("better"
    is "lower" or "higher", "bound" the relative worsening allowed)."""
    return {m["name"]: m for m in spec["end_to_end"]}


def table(parent: list, change: list, metrics: dict) -> list:
    """Report lines: failed solves per side, then one row per metric."""
    failed = tuple(sum(r["failed"] for r in side) for side in (parent, change))
    lines = [
        "failed solves: parent {}, change {}".format(*failed),
        f"{'metric':14s} {'parent median [q1, q3]':>38s} {'change median [q1, q3]':>38s}"
        f" {'ratio':>7s} {'wins':>7s}  verdict",
    ]
    for name in parent[0]["metrics"]:
        declared = metrics.get(name, {})
        row = compare(
            [r["metrics"][name]["value"] for r in parent],
            [r["metrics"][name]["value"] for r in change],
            declared.get("better", "lower"),
            declared.get("bound", math.inf),
            failed,
        )
        cells = [
            "{1:.6g} [{0:.6g}, {2:.6g}]".format(*row[side]) for side in ("parent", "change")
        ]
        lines.append(
            f"{name:14s} {cells[0]:>38s} {cells[1]:>38s} {row['ratio']:7.4f}"
            f" {row['wins']:>3d}/{row['pairs']:<3d}  {row['verdict']}"
        )
    return lines


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_dir = Path(tmp) / "parent"
        git("worktree", "add", "--detach", str(parent_dir), args.against)
        try:
            roots = {"parent": parent_dir, "change": ROOT}

            def run(side: str) -> str:
                cmd = [
                    sys.executable, str(roots[side] / "perfbench" / "run.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                out = subprocess.run(
                    cmd, cwd=roots[side], check=True, capture_output=True, text=True
                ).stdout
                print(f"# {side}: {json.dumps(parse_run(out)['metrics'])}", flush=True)
                return out

            print(
                f"# workload {args.workload}, seed {args.seed}, {seconds:g} s per run, "
                f"{args.pairs} pairs: parent {git('rev-parse', '--short', args.against)}, "
                f"change {git('rev-parse', '--short', 'HEAD')} (this checkout)",
                flush=True,
            )
            parent, change = run_pairs(run, args.pairs)
        finally:
            git("worktree", "remove", "--force", str(parent_dir))
    print("\n".join(table(parent, change, end_to_end(spec))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
