#!/usr/bin/env python3
"""Record this checkout's benchmark state in BENCH_<N>.json.

Runs ``perfbench/run.py --trace 0`` once per workload of BENCHMARK.json, at
seed 11 for BENCHMARK.json's ``run_seconds``, then the
certification sweep (``scripts/sweep_fingerprint.py``) and the code-line
count (``scripts/code_lines.py``), and writes ``BENCH_<N>.json`` at the
repository root with:

- ``commit``: HEAD, and ``dirty``: whether ``src/``, ``scripts/`` or
  ``perfbench/`` had uncommitted edits (a file recorded before its change
  is committed names the parent commit, dirty);
- ``env``: the host description from the runs' ``# env`` line;
- ``workloads``: each run's JSON result line, as ``bench_pairs.parse_run``
  reads it, with its ``fail_frac`` (failed over attempted solves);
- ``sweep``: the sha256 of the fingerprint's output and its #Grad sums by
  family;
- ``code_lines``: the code lines of ``src/almkit``.

It then prints a comparison with the newest earlier ``BENCH_<M>.json``
(M < N), if one exists: each workload's end-to-end metrics and failed
solves, the sweep's family sums and the code lines, old and new.  Timings
depend on the host, so compare files recorded on one machine; the
comparison is a report, not a gate.

    python3 scripts/bench_record.py --pr 32
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import parse_run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
FAMILY_SUMS = "#Grad by family: "
# The seed of the benchmark pairs recorded in CHANGES.md.
SEED = 11


def env_line(stdout: str) -> dict:
    """The host description a run prints as ``# env {...}``."""
    for line in stdout.splitlines():
        if line.startswith("# env "):
            return json.loads(line[len("# env "):])
    raise ValueError("run printed no '# env' line")


def workload_entry(stdout: str) -> dict:
    """A run's JSON result with its share of failed solves."""
    result = parse_run(stdout)
    return result | {"fail_frac": result["failed"] / result["attempted"]}


def family_sums(fingerprint: str) -> dict:
    """The fingerprint's last line, ``#Grad by family: lcqp 76077  ev ...``,
    as {family: #Grad}."""
    line = next(x for x in fingerprint.splitlines() if x.startswith(FAMILY_SUMS))
    pairs = re.findall(r"(\S+) (\d+)", line[len(FAMILY_SUMS):])
    return {family: int(grads) for family, grads in pairs}


def record(commit: dict, runs: dict, fingerprint: str, code_lines: int) -> dict:
    """The BENCH file's content; ``runs`` maps each workload to its run's
    standard output."""
    return {
        **commit,
        "env": env_line(next(iter(runs.values()))),
        "workloads": {name: workload_entry(out) for name, out in runs.items()},
        "sweep": {
            "sha256": hashlib.sha256(fingerprint.encode()).hexdigest(),
            "family_sums": family_sums(fingerprint),
        },
        "code_lines": code_lines,
    }


def previous(root: Path, pr: int) -> Optional[Path]:
    """The newest ``BENCH_<M>.json`` in ``root`` with M < ``pr``."""
    found = {}
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) < pr:
            found[int(match.group(1))] = path
    return found[max(found)] if found else None


def compare(old: dict, new: dict) -> list:
    """Report lines: each workload's metrics and failed solves, the sweep's
    family sums and the code lines, old -> new."""
    lines = []
    for name, run in new["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            lines.append(f"{name}: new workload")
            continue
        lines.append(f"{name}: failed {before['failed']} -> {run['failed']}")
        for metric, entry in run["metrics"].items():
            if metric not in before["metrics"]:
                continue
            a, b = before["metrics"][metric]["value"], entry["value"]
            ratio = f"{b / a:.4f}" if a else "n/a"
            lines.append(f"  {metric:14s} {a:14.6g} -> {b:<14.6g} ratio {ratio}")
    same = old["sweep"]["sha256"] == new["sweep"]["sha256"]
    lines.append("sweep fingerprint: " + ("identical" if same else "changed"))
    old_sums = old["sweep"]["family_sums"]
    for family, grads in new["sweep"]["family_sums"].items():
        lines.append(f"  {family:8s} {old_sums.get(family, 'n/a')!s:>8} -> {grads}")
    lines.append(f"code lines: {old['code_lines']} -> {new['code_lines']}")
    return lines


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def script_output(*args: str) -> str:
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, check=True, capture_output=True, text=True
    ).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())

    commit = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "scripts", "perfbench")),
    }
    runs = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs[name] = script_output(
            "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        )
        print(f"# {name}: {json.dumps(parse_run(runs[name])['metrics'])}", flush=True)
    fingerprint = script_output("scripts/sweep_fingerprint.py")
    lines = int(script_output("scripts/code_lines.py"))
    new = record(commit, runs, fingerprint, lines)

    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    before = previous(ROOT, args.pr)
    if before is not None:
        print(f"against {before.name}:")
        print("\n".join(compare(json.loads(before.read_text()), new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
