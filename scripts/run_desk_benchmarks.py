#!/usr/bin/env python3
"""Desk-scale benchmark campaigns: the configurations the acceptance suite
checks, runnable standalone.

Writes per-trial trajectories and summary CSVs under results/ (override
with --out) and prints each campaign's summary, which the campaign
re-verified from its trial files; exits nonzero when a campaign fails.
"""

import argparse
import sys
from pathlib import Path

from almkit import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--trials", type=int, default=10)
    args = parser.parse_args()

    out = Path(args.out)
    campaigns = {
        "lcqp_m10_n200": [
            "bench-lcqp", "--m", "10", "--n", "200", "--rho", "1.0",
            "--trials", str(args.trials), "--out", str(out / "lcqp_m10_n200"),
        ],
        "lcqp_m10_n200_penalty": [
            "bench-lcqp", "--m", "10", "--n", "200", "--rho", "1.0", "--policy", "penalty",
            "--trials", str(args.trials), "--out", str(out / "lcqp_m10_n200_penalty"),
        ],
        "ev_n200": [
            "bench-ev", "--n", "200",
            "--trials", str(args.trials), "--out", str(out / "ev_n200"),
        ],
    }

    # Exit status: the worst campaign exit code (0 ok, 1 a trial failed,
    # 2 a usage error or unreadable input).
    worst = 0
    for name, argv in campaigns.items():
        print(f"== {name}")
        rc = cli.main(argv)
        if rc != 2:
            print((out / name / "summary.csv").read_text())
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
