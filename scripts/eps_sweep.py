#!/usr/bin/env python3
"""How #Grad grows as the tolerance tightens.

Solves `gen_lcqp(10, 200, 1, 0)`, `gen_ev(100, 0)`, the clustering of
12 standard-normal points in the plane drawn by `default_rng(1)` (r = 3,
s = 100; the nonconvex-constraint family) and the hinge family, the
`gen_lcqp(10, 200, 1, 0)` split into 5 equalities and 5 inequality rows
(`lcqp_split(0)` of `sweep_fingerprint.py`), at eps 1e-2, 1e-3 and 1e-4
with the default configuration, prints #Grad (real calls into
the smooth gradient), the outer-iteration count and success for each, and
the least-squares slope of log #Grad against log(1/eps) per family.  The
paper's analysis bounds the growth polynomially in 1/eps; a slope well
below 1 means the solver is far from that worst case.  The sweep is a
report, not a gate: it always exits 0.

    PYTHONPATH=src python3 scripts/eps_sweep.py
"""

import sys

import numpy as np

from almkit.ialm import IalmConfig, ialm_solve
from almkit.problems import gen_clustering, gen_ev, gen_lcqp
from sweep_fingerprint import lcqp_split

EPS = (1e-2, 1e-3, 1e-4)
FAMILIES = {
    "lcqp": lambda: gen_lcqp(10, 200, 1.0, 0).to_problem(),
    "ev": lambda: gen_ev(100, 0).to_problem(),
    "cluster": lambda: gen_clustering(
        np.random.default_rng(1).standard_normal((12, 2)), r=3, s=100.0
    ).to_problem(),
    "hinge": lambda: lcqp_split(0),
}


def main() -> int:
    print(f"{'family':<8}{'eps':>8}{'#Grad':>9}{'outer':>7}  success")
    for name, make in FAMILIES.items():
        problem = make()
        grads = []
        for eps in EPS:
            report = ialm_solve(problem, IalmConfig(eps=eps))
            grads.append(report.grad_evals)
            print(
                f"{name:<8}{eps:>8.0e}{report.grad_evals:>9,}{len(report.records):>7}"
                f"  {report.success}"
            )
        slope = np.polyfit(np.log(1.0 / np.array(EPS)), np.log(grads), 1)[0]
        print(f"{name:<8}slope of log #Grad against log(1/eps): {slope:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
