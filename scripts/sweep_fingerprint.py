#!/usr/bin/env python3
"""Fingerprint of the certification sweep: one line per solve.

Solves the sweep with the default configuration and prints, for each
instance, #Grad (real calls into the smooth gradient), the outer-iteration
count, ``success`` and the first 12 hex digits of the sha256 of the returned
``x``.  The sweep is `gen_lcqp(10, 200, 1, s)` for s = 0..9, `gen_ev(200, s)`
for s = 0..4, and the clusterings of 12 standard-normal points in the plane
drawn by `default_rng(0..3)` (r = 3, s = 100) at eps 1e-2.

Two runs print the same lines exactly when every solve returns the same
iterate after the same number of gradients, so diffing the output of two
versions of the code shows whether a change left the trajectories
bit-identical.  BLAS is pinned to one thread, as in `perfbench/run.py`,
because the reduction order decides the last bits.  The script is a
report, not a gate: it always exits 0.

    PYTHONPATH=src python3 scripts/sweep_fingerprint.py
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from almkit.ialm import IalmConfig, ialm_solve  # noqa: E402
from almkit.problems import gen_clustering, gen_ev, gen_lcqp  # noqa: E402


def sweep():
    """(label, problem, config) for every solve of the sweep."""
    for s in range(10):
        yield f"gen_lcqp(10,200,1,{s})", gen_lcqp(10, 200, 1.0, s).to_problem(), IalmConfig()
    for s in range(5):
        yield f"gen_ev(200,{s})", gen_ev(200, s).to_problem(), IalmConfig()
    for s in range(4):
        points = np.random.default_rng(s).standard_normal((12, 2))
        problem = gen_clustering(points, r=3, s=100.0).to_problem()
        yield f"cluster(default_rng({s}))", problem, IalmConfig(eps=1e-2)


def main() -> int:
    print(f"{'instance':<26}{'#Grad':>8}{'outer':>7}  {'success':<8}x sha256")
    for label, problem, config in sweep():
        report = ialm_solve(problem, config)
        digest = hashlib.sha256(np.ascontiguousarray(report.x).tobytes()).hexdigest()[:12]
        print(
            f"{label:<26}{report.grad_evals:>8}{len(report.records):>7}"
            f"  {str(report.success):<8}{digest}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
