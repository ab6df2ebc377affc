#!/usr/bin/env python3
"""Opt-in long-running campaigns at the large benchmark sizes (LCQP with
m=100, n=1000; generalized eigenvalue with n=1000; clustering from a points
CSV).  The default families (lcqp, ev; 10 trials each) took 3.6 minutes
on a 2-core Intel Xeon box with one BLAS thread; they emit the same
certificates as the desk-scale runs but carry no numeric acceptance
thresholds.

Clustering needs a numeric CSV of data points (--points).  If scikit-learn
is installed, --points iris uses its bundled 150-point flower measurements.
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from almkit import cli


def resolve_points(spec: str) -> str:
    if spec != "iris":
        return spec
    try:
        from sklearn.datasets import load_iris
    except ImportError:
        raise SystemExit("--points iris requires scikit-learn; pass a CSV path instead")
    pts = load_iris().data
    path = Path(tempfile.mkdtemp()) / "iris.csv"
    np.savetxt(path, pts, delimiter=",")
    return str(path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results_large")
    parser.add_argument(
        "--families",
        default="lcqp,ev",
        help="comma list from {lcqp, ev, cluster} (default: lcqp,ev)",
    )
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--points", default="iris", help="clustering points CSV or 'iris'")
    parser.add_argument("--r", type=int, default=6)
    parser.add_argument("--s", type=float, default=100.0)
    args = parser.parse_args()

    out = Path(args.out)
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    # Exit status: the worst campaign exit code (0 ok, 1 a trial failed,
    # 2 a usage error or unreadable input).
    worst = 0
    for family in families:
        print(f"== {family}")
        if family == "lcqp":
            name = "lcqp_m100_n1000"
            argv = [
                "bench-lcqp", "--m", "100", "--n", "1000", "--rho", "1.0",
                "--trials", str(args.trials), "--max-outer", "50",
            ]
        elif family == "ev":
            name = "ev_n1000"
            argv = [
                "bench-ev", "--n", "1000",
                "--trials", str(args.trials), "--max-outer", "50",
            ]
        elif family == "cluster":
            name = "cluster"
            argv = [
                "bench-cluster", "--points", resolve_points(args.points),
                "--r", str(args.r), "--s", str(args.s), "--trials", "1", "--max-outer", "50",
            ]
        else:
            raise SystemExit(f"unknown family {family!r}")
        target = out / name
        rc = cli.main(argv + ["--out", str(target)])
        if rc != 2:
            print((target / "summary.csv").read_text())
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(main())
