#!/usr/bin/env python3
"""Fingerprint of the certification sweep: one line per solve.

Solves the sweep and prints, for each solve, #Grad (real calls into the
smooth gradient), the outer-iteration count, ``success`` and the first 12
hex digits of the sha256 of the returned ``x``.  The sweep is
`gen_lcqp(10, 200, 1, s)` for s = 0..9, `gen_ev(200, s)` for s = 0..4, and
the clusterings of 12 standard-normal points in the plane drawn by
`default_rng(0..3)` (r = 3, s = 100) at eps 1e-2.  Inequality rows are
covered by `gen_lcqp(10, 200, 1, s)` for s = 0..2 split as the `ineq`
benchmark workload splits it: a `ProblemSpec` whose first 5 rows are the
equalities `A x = b` held as data, and whose last 5 are the inequalities
of a two-callback `ConstraintOracle` given as its `ineq`.  One more line solves the slack-variable
reformulation of the s = 0 split.  These 23 solves use
the default configuration, except the clusterings' eps.  The last four
cover the other dual policies: `gen_ev(200, 0)` under
`TheoreticalDual(w0=1)`, `PracticalDual(M=0.5, q=2)` and `PenaltyDual()`,
and the s = 0 split under `TheoreticalDual(w0=1)`, 27 solves in all.  A
last line sums #Grad by family: `lcqp`, `ev`, `cluster`, `ineq`, `slack`
and `policy` (the last four lines).

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

from almkit.core import ConstraintOracle, ProblemSpec  # noqa: E402
from almkit.ialm import (  # noqa: E402
    IalmConfig,
    PenaltyDual,
    PracticalDual,
    TheoreticalDual,
    ialm_solve,
)
from almkit.ineq import slack_reformulate  # noqa: E402
from almkit.problems import gen_clustering, gen_ev, gen_lcqp  # noqa: E402


def lcqp_split(seed: int) -> ProblemSpec:
    """`gen_lcqp(10, 200, 1, seed)` with rows 0-4 as equalities held as data
    and rows 5-9 as inequalities a_i'x <= b_i through two callbacks."""
    inst = gen_lcqp(10, 200, 1.0, seed)
    base = inst.to_problem()
    A_in, b_in = inst.A[5:], inst.b[5:]
    ineq = ConstraintOracle(
        evaluate_fn=lambda x: A_in @ x - b_in,
        jacobian_t_apply_fn=lambda x, v: A_in.T @ v,
        n_constraints=5,
    )
    return ProblemSpec(
        smooth=base.smooth,
        nonsmooth=base.nonsmooth,
        constraints=ConstraintOracle.affine(inst.A[:5], inst.b[:5]),
        constants=None,
        x0=inst.x0,
        ineq=ineq,
    )


def sweep():
    """(family, label, problem, config) for every solve of the sweep."""
    for s in range(10):
        problem = gen_lcqp(10, 200, 1.0, s).to_problem()
        yield "lcqp", f"gen_lcqp(10,200,1,{s})", problem, IalmConfig()
    for s in range(5):
        yield "ev", f"gen_ev(200,{s})", gen_ev(200, s).to_problem(), IalmConfig()
    for s in range(4):
        points = np.random.default_rng(s).standard_normal((12, 2))
        problem = gen_clustering(points, r=3, s=100.0).to_problem()
        yield "cluster", f"cluster(default_rng({s}))", problem, IalmConfig(eps=1e-2)
    for s in range(3):
        yield "ineq", f"ineq(gen_lcqp(10,200,1,{s}))", lcqp_split(s), IalmConfig()
    slack = slack_reformulate(lcqp_split(0)).problem
    yield "slack", "slack(gen_lcqp(10,200,1,0))", slack, IalmConfig()
    theoretical = IalmConfig(policy=TheoreticalDual(w0=1.0))
    yield "policy", "gen_ev(200,0) theoretical", gen_ev(200, 0).to_problem(), theoretical
    growing = IalmConfig(policy=PracticalDual(M=0.5, q=2))
    yield "policy", "gen_ev(200,0) practical(.5,2)", gen_ev(200, 0).to_problem(), growing
    penalty = IalmConfig(policy=PenaltyDual())
    yield "policy", "gen_ev(200,0) penalty", gen_ev(200, 0).to_problem(), penalty
    yield "policy", "ineq(gen_lcqp s=0) theoretical", lcqp_split(0), theoretical


def main() -> int:
    print(f"{'instance':<30}{'#Grad':>8}{'outer':>7}  {'success':<8}x sha256")
    sums = {}
    for family, label, problem, config in sweep():
        report = ialm_solve(problem, config)
        digest = hashlib.sha256(np.ascontiguousarray(report.x).tobytes()).hexdigest()[:12]
        print(
            f"{label:<30}{report.grad_evals:>8}{len(report.records):>7}"
            f"  {str(report.success):<8}{digest}"
        )
        sums[family] = sums.get(family, 0) + report.grad_evals
    print("#Grad by family: " + "  ".join(f"{f} {n}" for f, n in sums.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
