"""The benchmark's four workloads and how each instance is built.

Every workload solves one fixed reference instance per family (generator
seed ``BASE_SEED``, acceptance scale).  The benchmark seed does not pick a
different reference instance, because instance difficulty varies about 2x
between generator seeds and would drown every timing comparison.  Instead
each (seed, variant) pair draws a random symmetry of the reference instance:
a signed permutation of the variables for the quadratic-program and
eigenvalue families, and a permutation plus rotation of the data points for
clustering.  The solver therefore receives different input arrays on every
seed, while the problem it solves, and so the work it should do, is the same.

``build`` returns a fresh ``ProblemSpec`` (or ``IneqProblemSpec``) for each
solve, because the quadratic-program curvature schedule caches its
eigenvalue work per instance.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from almkit import (
    ConstraintOracle,
    IalmConfig,
    IneqConstants,
    IneqProblemSpec,
    ialm_ineq_solve,
    ialm_solve,
    kkt_residual,
    kkt_residual_ineq,
)
from almkit.problems import gen_clustering, gen_ev, gen_lcqp, lcqp_row_bounds
from almkit.prox import BoxSet
from pace import SEGMENT_GRADS, PaceClock

BASE_SEED = 0

# Relative tolerance for agreement between the solver's reported residuals and
# the benchmark's re-measurement.  Both evaluate the same oracles at the same
# point, so anything beyond rounding is a disagreement.
AGREE_RTOL = 1e-9

# Tolerance of the small instances used for warm-up and the smoke test.
SMALL_EPS = 0.1


@dataclass
class Built:
    """One instance ready to solve, with its set-up timings."""

    problem: object
    config: IalmConfig
    gen_s: float
    to_problem_s: float
    # Calls into the instance's own smooth-gradient callable so far.
    grad_calls: list
    # Takes a reference timing every SEGMENT_GRADS of those calls, if set.
    clock: PaceClock | None


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str  # "ialm" or "ineq": which public entry point solves it
    # Instances in one campaign: 10-20 s of solving on a 2-core x86 box with
    # one BLAS thread, so a 25 s run holds one or two campaigns.
    campaign: int
    make: Callable  # (rng, small) -> (problem, config, gen_s, to_problem_s)

    def build(self, seed: int, variant: int, small: bool = False, clock=None) -> Built:
        rng = np.random.Generator(np.random.Philox(key=[seed, variant]))
        problem, config, gen_s, to_problem_s = self.make(rng, small)
        if small:
            config = dataclasses.replace(config, eps=SMALL_EPS)
        calls = count_user_gradient(problem, clock)
        return Built(problem, config, gen_s, to_problem_s, calls, clock)

    @property
    def entry(self):
        """The public solver entry point for this workload."""
        return ialm_solve if self.solver == "ialm" else ialm_ineq_solve

    def solve(self, built: Built, entry=None):
        return (entry or self.entry)(built.problem, built.config)

    def remeasure(self, built: Built, report):
        """Residuals re-measured from the oracles at the returned point."""
        if self.solver == "ialm":
            kkt = kkt_residual(report.x, report.y, built.problem)
            return {"pres": kkt.pres, "dres": kkt.dres}
        kkt = kkt_residual_ineq(report.x, report.y, report.z, built.problem)
        return {"pres": kkt.pres, "dres": kkt.dres, "compl": kkt.compl}

    def certified(self, built: Built, report) -> tuple[bool, dict]:
        """Whether the solve certified: the solver claims success, every
        re-measured residual is within eps, and each agrees with the report."""
        eps = built.config.eps
        measured = self.remeasure(built, report)
        within = all(v <= eps for v in measured.values())
        agree = all(
            math.isclose(v, getattr(report.kkt, name), rel_tol=AGREE_RTOL)
            for name, v in measured.items()
        )
        return bool(report.success and within and agree), measured


def count_user_gradient(problem, clock=None) -> list:
    """Count calls into the instance's own gradient callable, and have
    ``clock`` take a reference timing at every SEGMENT_GRADS-th call.

    The count is taken at the callable the generator attached to the smooth
    oracle, below every validating wrapper, so it is exact and unaffected by
    how the solver books its #Grad.
    """
    calls = [0]
    smooth = problem.smooth
    user_gradient = smooth._gradient_fn

    def counted(x):
        calls[0] += 1
        if clock is not None and calls[0] % SEGMENT_GRADS == 0:
            clock.mark()
        return user_gradient(x)

    smooth._gradient_fn = counted
    return calls


def _signed_permutation(rng, n):
    return rng.permutation(n), rng.choice([-1.0, 1.0], size=n)


def _lcqp_variant(inst, rng):
    """x -> S P x: the box is symmetric, so this is an exact symmetry."""
    perm, sign = _signed_permutation(rng, inst.Q.shape[0])
    Q = (sign[:, None] * inst.Q * sign[None, :])[np.ix_(perm, perm)]
    return dataclasses.replace(
        inst,
        Q=Q,
        c=(sign * inst.c)[perm],
        A=(inst.A * sign[None, :])[:, perm],
        x0=(sign * inst.x0)[perm],
    )


def _lcqp_size(small):
    return (4, 40) if small else (10, 200)


def _make_lcqp(rng, small):
    m, n = _lcqp_size(small)
    t0 = time.perf_counter()
    inst = gen_lcqp(m=m, n=n, rho=1.0, seed=BASE_SEED)
    gen_s = time.perf_counter() - t0
    inst = _lcqp_variant(inst, rng)
    t0 = time.perf_counter()
    problem = inst.to_problem()
    return problem, IalmConfig(), gen_s, time.perf_counter() - t0


def _make_ev(rng, small):
    n = 40 if small else 200
    t0 = time.perf_counter()
    inst = gen_ev(n=n, seed=BASE_SEED)
    gen_s = time.perf_counter() - t0
    perm, sign = _signed_permutation(rng, n)

    def conj(M):
        return (sign[:, None] * M * sign[None, :])[np.ix_(perm, perm)]

    inst = dataclasses.replace(inst, Q=conj(inst.Q), B=conj(inst.B), x0=(sign * inst.x0)[perm])
    t0 = time.perf_counter()
    problem = inst.to_problem()
    return problem, IalmConfig(), gen_s, time.perf_counter() - t0


def mixture_points(n_points: int) -> np.ndarray:
    """Seeded 3-component 2-D Gaussian mixture (unit spread, centres ~N(0, 4^2))."""
    rng = np.random.Generator(np.random.Philox(key=[BASE_SEED, 7]))
    centres = rng.normal(0.0, 4.0, size=(3, 2))
    labels = np.arange(n_points) % 3
    return centres[labels] + rng.normal(0.0, 1.0, size=(n_points, 2))


def _make_cluster(rng, small):
    n_points, r = (6, 3) if small else (30, 3)
    points = mixture_points(n_points)
    perm = rng.permutation(n_points)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    t0 = time.perf_counter()
    inst = gen_clustering(points[perm] @ rot.T, r=r, s=100.0, seed=BASE_SEED)
    gen_s = time.perf_counter() - t0
    # The generator's start point does not depend on the points; move its
    # rows with the points so that every variant starts from the same state.
    inst = dataclasses.replace(inst, x0=inst.x0.reshape(n_points, r)[perm].ravel())
    t0 = time.perf_counter()
    problem = inst.to_problem()
    return problem, IalmConfig(eps=1e-2), gen_s, time.perf_counter() - t0


def _sym_norm(M):
    w = np.linalg.eigvalsh(M)
    return float(max(abs(w[0]), abs(w[-1])))


def _make_ineq(rng, small):
    """The LCQP instance with its first half of rows kept as equalities and the
    second half turned into inequalities a_i'x <= b_i (feasible, since b = A xhat
    for an interior xhat), solved by the hinge-penalized solver."""
    m, n = _lcqp_size(small)
    t0 = time.perf_counter()
    inst = gen_lcqp(m=m, n=n, rho=1.0, seed=BASE_SEED)
    gen_s = time.perf_counter() - t0
    inst = _lcqp_variant(inst, rng)
    t0 = time.perf_counter()
    base = inst.to_problem()
    box = BoxSet(inst.lower, inst.upper)
    half = m // 2
    A_eq, b_eq = inst.A[:half], inst.b[:half]
    A_in, b_in = inst.A[half:], inst.b[half:]
    ineq = ConstraintOracle(
        evaluate_fn=lambda x: A_in @ x - b_in,
        jacobian_t_apply_fn=lambda x, v: A_in.T @ v,
        n_constraints=m - half,
        component_smoothness=np.zeros(m - half),
        component_weak_convexity=np.zeros(m - half),
        component_bounds=lcqp_row_bounds(A_in, b_in, box),
        jacobian_norm_bound=float(np.linalg.norm(A_in, 2)),
    )
    problem = IneqProblemSpec(
        smooth=base.smooth,
        nonsmooth=base.nonsmooth,
        A=A_eq,
        b=b_eq,
        ineq=ineq,
        constants=IneqConstants(
            B0=base.constants.B0,
            B_f=float(np.linalg.norm(ineq.component_bounds)),
            B_bar_c=float(np.linalg.norm(lcqp_row_bounds(A_eq, b_eq, box))),
            AtA_norm=float(np.linalg.norm(A_eq.T @ A_eq, 2)),
            D=box.diameter,
        ),
        rho0=inst.rho,
        x0=inst.x0,
    )
    # Exact AL curvature: the hinge part's Hessian is A_in' D A_in with
    # 0 <= D <= beta I, so ||Q + beta A'A|| over all rows bounds the smoothness.
    Q, AtA, rho = inst.Q, inst.A.T @ inst.A, inst.rho
    cache: dict[float, float] = {}

    def curvature(beta, _y_norm):
        if beta not in cache:
            cache[beta] = _sym_norm(Q + beta * AtA)
        return (rho, cache[beta])

    config = IalmConfig(curvature_override=curvature)
    return problem, config, gen_s, time.perf_counter() - t0


# Why each workload exists, and which layers it loads, is in BENCHMARK.json and
# README.md next to this file.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("lcqp", "ialm", 2, _make_lcqp),
        Workload("ev", "ialm", 2, _make_ev),
        Workload("cluster", "ialm", 1, _make_cluster),
        Workload("ineq", "ineq", 3, _make_ineq),
    )
}
