#!/usr/bin/env python3
"""How #Grad grows as the tolerance tightens.

Solves `gen_lcqp(10, 200, 1, 0)` and `gen_ev(100, 0)` at eps 1e-2, 1e-3
and 1e-4 with the default configuration, prints #Grad (real calls into
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
from almkit.problems import gen_ev, gen_lcqp

EPS = (1e-2, 1e-3, 1e-4)
FAMILIES = {
    "lcqp": lambda: gen_lcqp(10, 200, 1.0, 0).to_problem(),
    "ev": lambda: gen_ev(100, 0).to_problem(),
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
