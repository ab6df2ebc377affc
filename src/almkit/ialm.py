"""Outer inexact augmented Lagrangian loop, with geometric penalty growth
beta_k = beta0 * sigma^k and a choice of dual step-size policies; the
pure-penalty ablation is the policy whose step is 0, which freezes the
multipliers at zero.

One loop serves two constraint blocks: the equality block c(x) = 0 here,
and the hinge block (affine equalities plus convex inequalities) in
``almkit.ineq``.  Each outer iteration solves the AL subproblem to
eps_k-stationarity with the proximal point method, then takes a damped dual
ascent step y <- y + w_k c(x_{k+1}).  The loop stops at the first iterate
whose independently re-measured KKT residuals, taken at the certificate
multiplier (y_k + beta_k c(x_{k+1}) for the equality block), all fall
below eps.

Loose early subproblems (the decreasing tolerances of practical ALMs:
Birgin & Martinez, "Practical Augmented Lagrangian Methods", SIAM 2014;
Sahin et al., NeurIPS 2019).  Iteration k = 0 solves to eps; iteration
k > 0 to eps_k = max(eps, SUBPROBLEM_TOL_FACTOR * pres_{k-1}), where
pres_{k-1} is the primal residual the previous certificate measured.
Stationarity bought while ||c(x)|| is large is discarded by the next dual
step, so it is not bought.  What survives of the guarantees:

- The certificate and the stop test are at eps: they re-measure the KKT
  residuals at the new iterate against eps, so a looser subproblem can
  delay termination but cannot fake it.
- Each subproblem's bounds (iPPM's stationarity certificate, its step
  and APG budgets) hold at the eps_k it was given.
- ``predict_outer_iterations`` assumes eps-accurate subproblems.  With
  eps_k its regularity argument gives v beta_k ||c(x_{k+1})|| <= B0 +
  B_c y_max + eps_k, so the prediction holds unchanged when its last
  subproblem runs at eps, which is the case once pres_{K-1} <= eps /
  SUBPROBLEM_TOL_FACTOR.  It is not guaranteed otherwise: the looser
  tolerance can cost extra outer iterations (on gen_lcqp(10, 200, 1, s),
  s = 0..9, at most 2 per solve).

Curvature is measured, not scheduled.  iPPM measures the subproblem's weak
convexity (see ``almkit.ippm``) and APG its curvature.  Outer iteration
k = 0 starts APG's curvature estimate at the smooth oracle's declared
``smooth.L``; every later subproblem starts at the final estimate of the
previous subproblem's last APG call (``OuterIterationRecord.L``).
Restarting every subproblem at ``smooth.L`` instead cost 51% more
gradients on the benchmark's LCQP instance and 12% more on its EV
instance.  ``IalmConfig.curvature_override`` is the one optional cap on
the two estimates; without it both run uncapped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import (
    CurvatureSchedule,
    KktResidual,
    ProblemSpec,
    _equality_gradient,
    _equality_kkt,
    check_iteration_limits,
)
from .ippm import RHO_FLOOR, SubsolverStall, ippm_solve

LOG2_SQ = math.log(2.0) ** 2

# eps_k = max(eps, SUBPROBLEM_TOL_FACTOR * pres_{k-1}) for k > 0.  On the
# benchmark workloads 0.03 saves fewer gradients, 0.3 costs the hinge block
# an extra outer iteration and 1.0 is erratic on clustering.
SUBPROBLEM_TOL_FACTOR = 0.1


# Each policy gives the step size w_k for a residual norm r > 0 (at r = 0
# the limit: w0, inf for the residual-normalized rule, or 0), the equality
# block's ascent step, and its CLI/JSON form.  Neither block updates its
# multipliers when w_k = 0, so the penalty policy has no ascent step.


@dataclass(frozen=True)
class TheoreticalDual:
    """w_k = w0 * min{1, gamma_k / ||c(x_{k+1})||}, the step size with a
    certified uniform bound on ||y_k||."""

    w0: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails.
        if not self.w0 > 0:
            raise ValueError("w0 must be positive")

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        if res == 0.0:
            return self.w0
        return self.w0 * min(1.0, gamma_k / res)

    def ascend(self, y, c, c_norm: float, w: float, k: int):
        return y + w * c

    def to_dict(self) -> dict:
        return {"variant": "theoretical", "w0": self.w0}


@dataclass(frozen=True)
class PracticalDual:
    """w_k = M (k+1)^q / ||c(x_{k+1})||: dual increments of norm M (k+1)^q,
    unit-norm by default."""

    M: float = 1.0
    q: int = 0

    def __post_init__(self):
        # Written so that NaN fails.
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not (self.q >= 0 and float(self.q).is_integer()):
            raise ValueError("q must be a nonnegative integer")

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        return self.M * (k + 1) ** self.q / res if res > 0.0 else math.inf

    def ascend(self, y, c, c_norm: float, w: float, k: int):
        # Increment of norm M (k+1)^q along c/||c||, stable however small
        # the residual is.
        return y + self.M * (k + 1) ** self.q * (c / c_norm)

    def to_dict(self) -> dict:
        return {"variant": "practical", "M": self.M, "q": self.q}


@dataclass(frozen=True)
class PenaltyDual:
    """w_k = 0: the pure penalty method, whose multipliers stay at zero."""

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        return 0.0

    def to_dict(self) -> dict:
        return {"variant": "penalty"}


DualStepPolicy = Union[TheoreticalDual, PracticalDual, PenaltyDual]


def gamma_schedule(k: int, c0_norm: float) -> float:
    """Damping sequence (log 2)^2 ||c(x0)|| / ((k+1) [log(k+2)]^2)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return LOG2_SQ * c0_norm / ((k + 1) * math.log(k + 2) ** 2)


def dual_step_size(
    policy: DualStepPolicy, k: int, c_norm_next: float, gamma_k: float
) -> float:
    """Step size w_k for the multiplier update y <- y + w_k c(x_{k+1}).

    When the residual vanishes the increment w_k c is zero regardless of
    w_k; the residual-normalized policy returns 0 there so the recorded
    step stays finite.
    """
    if c_norm_next < 0 or gamma_k < 0:
        raise ValueError("residual norm and gamma must be nonnegative")
    w = policy.step_size(k, c_norm_next, gamma_k)
    return 0.0 if c_norm_next == 0.0 and math.isinf(w) else w


@dataclass
class IalmConfig:
    """Solver configuration; defaults follow the bundled benchmark setup.

    ``curvature_override`` maps (beta, multiplier norm) to (rho_hat, L_hat),
    caps on iPPM's weak-convexity estimate and APG's curvature estimate, for
    a caller with a proven bound; inf means no cap, and without an override
    neither estimate is capped.
    """

    beta0: float = 0.01
    sigma: float = 3.0
    eps: float = 1e-3
    policy: DualStepPolicy = field(default_factory=PracticalDual)
    max_outer: int = 40
    max_inner: int = 10**6
    curvature_override: Optional[CurvatureSchedule] = None

    def __post_init__(self):
        # Written so that NaN fails.
        if not self.beta0 > 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if not self.sigma > 1:
            raise ValueError(f"sigma must exceed 1, got {self.sigma}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        check_iteration_limits(self.max_outer, self.max_inner)


@dataclass(frozen=True)
class OuterIterationRecord:
    """Trajectory entry for one outer iteration k (producing x_{k+1}).

    ``dres`` is re-measured with the certificate multipliers.  Equality
    records carry ``dres_running``, re-measured with the updated running
    multiplier y_{k+1}; hinge records carry the split primal residual, the
    complementarity residual and the running z.  The other block's fields
    are None.  ``x`` is kept so diagnostics can re-trace the run, and
    ``rho`` is the subproblem's final weak-convexity estimate, at most the
    override's rho_hat (or RHO_FLOOR, if larger), and ``L`` the final
    curvature estimate of its last APG call, where the next subproblem's
    APG starts.  ``sub_eps`` is the
    tolerance the subproblem was solved to, ``ippm_steps`` its proximal
    point steps and ``apg_iters`` its APG iterations, redone steps included.
    ``sub_s`` is the wall time spent in the subproblem solve (``ippm_solve``)
    and ``cert_s`` in the block's KKT certificate (``certify``), in seconds.
    """

    k: int
    beta: float
    w: float
    pres: float
    dres: float
    y_norm: float
    grad_evals: int
    seconds: float
    x: np.ndarray
    rho: Optional[float] = None
    L: Optional[float] = None
    sub_eps: Optional[float] = None
    ippm_steps: Optional[int] = None
    apg_iters: Optional[int] = None
    sub_s: Optional[float] = None
    cert_s: Optional[float] = None
    dres_running: Optional[float] = None
    pres_eq: Optional[float] = None
    pres_ineq: Optional[float] = None
    compl: Optional[float] = None
    z_norm: Optional[float] = None
    z: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolveReport:
    """Full outcome of one solve: trajectory, certificate, and counts.

    ``y`` (and ``z`` for the hinge block) are the certificate multipliers
    backing ``kkt``; ``y_running`` (``z_running``) the last ascent iterates.
    ``success`` means every final residual was at or below the configured
    tolerance.  ``grad_evals`` counts every call into the smooth gradient,
    certificates included.
    """

    records: list
    x: np.ndarray
    y: np.ndarray
    y_running: np.ndarray
    kkt: KktResidual
    success: bool
    termination: str
    grad_evals: int
    seconds: float
    z: Optional[np.ndarray] = None
    z_running: Optional[np.ndarray] = None


def _uncapped(beta: float, multiplier_norm: float) -> tuple[float, float]:
    return math.inf, math.inf


def _outer_loop(block, config: IalmConfig) -> SolveReport:
    """Run the outer iALM loop on one constraint block.

    A block holds the solve's copy of the problem (``for_solve()``: its
    smooth oracle's ``grad_evals`` starts at 0 and is the #Grad recorded
    here) and its multipliers: the running ``y`` (``z``) and the
    certificate ``y_cert`` (``z_cert``; both None for the equality block).
    It supplies the damping scale ``damping``, ``multiplier_norm()``,
    ``subproblem(beta)`` (the subproblem's smooth
    gradient, a plain callable), ``certify(x, beta)`` (which sets the
    certificate multipliers and returns the ``KktResidual``),
    ``dual_update(policy, k, gamma_k, beta)`` (which returns w_k) and
    ``record_fields(x, kkt)``.  A subsolver stall propagates with the
    #Grad spent so far as its ``grad_evals``.  APG's curvature estimate is
    carried from each subproblem to the next, starting at ``smooth.L``.
    The caps are ``config.curvature_override``'s, or (inf, inf).
    """
    problem = block.problem
    smooth = problem.smooth
    schedule = config.curvature_override or _uncapped

    t0 = time.perf_counter()
    x = problem.x0
    records: list[OuterIterationRecord] = []
    beta = config.beta0
    # No residual has been measured before k = 0.
    sub_eps = config.eps
    L_est = smooth.L

    for k in range(config.max_outer):
        rho_hat, L_hat = schedule(beta, block.multiplier_norm())
        # Written so that NaN fails; inf (no cap) passes.
        if not (L_hat > 0 and rho_hat >= 0):
            raise ValueError(f"curvature schedule returned invalid (rho, L)=({rho_hat}, {L_hat})")
        # rho_hat caps iPPM's weak-convexity estimate; a convex cap
        # (rho_hat = 0) holds it at the floor it starts from.
        t_sub = time.perf_counter()
        try:
            sub = ippm_solve(
                block.subproblem(beta),
                problem.nonsmooth,
                x,
                max(rho_hat, RHO_FLOOR),
                L_hat,
                sub_eps,
                max_inner=config.max_inner,
                L_init=L_est,
            )
        except SubsolverStall as exc:
            exc.grad_evals = smooth.grad_evals
            raise
        x, L_est = sub.x, sub.L
        t_cert = time.perf_counter()
        kkt = block.certify(x, beta)
        t_done = time.perf_counter()
        converged = sub.converged and max(kkt.pres, kkt.dres, kkt.compl) <= config.eps

        w = block.dual_update(config.policy, k, gamma_schedule(k, block.damping), beta)
        fields = block.record_fields(x, kkt)
        records.append(
            OuterIterationRecord(
                k=k,
                beta=beta,
                w=w,
                pres=kkt.pres,
                dres=kkt.dres,
                y_norm=float(np.linalg.norm(block.y)),
                grad_evals=smooth.grad_evals,
                seconds=time.perf_counter() - t0,
                x=x.copy(),
                rho=sub.rho,
                L=sub.L,
                sub_eps=sub_eps,
                ippm_steps=sub.outer_iterations,
                apg_iters=sub.apg_iterations,
                sub_s=t_cert - t_sub,
                cert_s=t_done - t_cert,
                **fields,
            )
        )
        if converged:
            break
        beta = beta * config.sigma
        sub_eps = max(config.eps, SUBPROBLEM_TOL_FACTOR * kkt.pres)

    return SolveReport(
        records=records,
        x=x,
        y=block.y_cert,
        y_running=block.y,
        kkt=kkt,
        success=converged,
        termination="converged" if converged else "max_outer_exhausted",
        grad_evals=smooth.grad_evals,
        seconds=time.perf_counter() - t0,
        z=block.z_cert,
        z_running=block.z,
    )


class _EqualityBlock:
    """c(x) = 0 with multiplier y; certificate multiplier y + beta c(x)."""

    z = z_cert = None

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.y = self.y_cert = np.zeros(problem.constraints.n_constraints)
        self.damping = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))

    def multiplier_norm(self) -> float:
        return float(np.linalg.norm(self.y))

    def subproblem(self, beta):
        return _equality_gradient(self.problem, self.y, beta)

    def certify(self, x, beta):
        # One linearization and grad g(x) per outer iteration: they serve
        # the certificate, the dual update and the running multiplier's dres.
        problem = self.problem
        self.c, self.jt = problem.constraints._linearize(x)
        self.g = problem.smooth._gradient(x)
        self.c_norm = float(np.linalg.norm(self.c))
        self.y_cert = self.y + beta * self.c
        return _equality_kkt(x, self.y_cert, problem, self.c, self.jt, self.g)

    def dual_update(self, policy, k, gamma_k, beta) -> float:
        w = dual_step_size(policy, k, self.c_norm, gamma_k)
        if w != 0.0 and self.c_norm > 0.0:
            self.y = policy.ascend(self.y, self.c, self.c_norm, w, k)
        return w

    def record_fields(self, x, kkt) -> dict:
        running = _equality_kkt(x, self.y, self.problem, self.c, self.jt, self.g)
        return {"dres_running": running.dres}


def ialm_solve(problem: ProblemSpec, config: IalmConfig) -> SolveReport:
    """Solve an equality-constrained composite problem to an eps-KKT point."""
    return _outer_loop(_EqualityBlock(problem.for_solve()), config)
