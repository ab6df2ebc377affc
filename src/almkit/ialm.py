"""Outer inexact augmented Lagrangian loop, with geometric penalty growth
beta_k = beta0 * sigma^k and a choice of dual step-size policies; the
pure-penalty ablation is the policy whose step is 0, which freezes the
multipliers at zero.

One loop serves every problem: the equality rows c(x) = 0 with multiplier
y and, when the problem has them, the convex inequality rows f(x) <= 0
with multiplier z >= 0.  Each outer iteration solves the AL subproblem to
eps_k-stationarity with the proximal point method, linearizes the rows
once at the new iterate and reads grad g there from the solve's oracle,
which still holds it from APG's last step (so does the next subproblem's
first gradient), and from them measures the KKT certificate at the
multipliers y_k + beta_k c(x_{k+1}) and [z_k + beta_k f(x_{k+1})]_+.  It
then moves the multipliers by the paper's one rule, whatever the policy:

    y <- y + w_k c(x_{k+1}),   z <- z + w_k max{-z/beta_k, f(x_{k+1})},

with w_k = ``dual_step_size(policy, k, res, gamma_k, cap)`` at the residual
res = max(pres_eq, pres_ineq).  The cap is beta_k for a problem built with
inequality rows, which keeps z nonnegative, and inf otherwise.  A step
w_k = 0 leaves y and z unchanged bit for bit.  The loop stops at the first
iterate whose re-measured KKT residuals all fall below eps; a subproblem
that iPPM cannot solve raises SubsolverStall.

The update stays finite.  Every policy's step is finite at res = 0 (w0 or
0).  Otherwise res is at least about 2e-162, the square root of the
smallest positive subnormal (a smaller c'c underflows to res = 0), so the
residual-normalized step M (k+1)^q / res is finite too, and
|w_k c_i| <= w_k res is at most M (k+1)^q, w0 gamma_k or beta_k res.

Loose early subproblems (the decreasing tolerances of practical ALMs:
Birgin & Martinez, "Practical Augmented Lagrangian Methods", SIAM 2014;
Sahin et al., NeurIPS 2019).  Iteration k = 0 solves to eps; iteration
k > 0 to eps_k = max(eps, SUBPROBLEM_TOL_FACTOR * pres_{k-1}), where
pres_{k-1} is the primal residual the previous certificate measured.
Stationarity bought while ||c(x)|| is large is discarded by the next dual
step, so it is not bought.  What survives of the guarantees:

- The certificate and the stop test are at eps: they re-measure the KKT
  residuals at the new iterate against eps, with h's exact subdifferential
  distance (every ``ProblemSpec`` has one), so for every problem a looser
  subproblem can delay termination but cannot fake it.
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
instance.  Every subproblem starts its weak-convexity estimate at
RHO_FLOOR, convex until proven guilty, and subproblem k > 0 is given the
largest estimate subproblems 0..k-1 ran at (``IppmResult.rho_peak``) as
``rho_known``: at its first failed pair test its estimate jumps there
instead of re-learning the scale by doubling from RHO_FLOOR, one failed
APG call per doubling.  On the benchmark's clustering workload (seed 11)
that cut #Grad from 1,005 to 838.  ``IalmConfig.curvature_override`` is
the one optional cap on the two estimates; without it both run uncapped.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core import (
    Array,
    CurvatureSchedule,
    KktResidual,
    ProblemSpec,
    _al_gradient,
    _kkt,
    _linearize_rows,
)
from .ippm import RHO_FLOOR, SubsolverStall, ippm_solve

LOG2_SQ = math.log(2.0) ** 2

# eps_k = max(eps, SUBPROBLEM_TOL_FACTOR * pres_{k-1}) for k > 0.  On the
# benchmark workloads 0.03 saves fewer gradients, 0.3 costs the ``ineq``
# workload an extra outer iteration and 1.0 is erratic on clustering.
SUBPROBLEM_TOL_FACTOR = 0.1


# Each policy gives the step size w_k for a residual norm r >= 0 (at r = 0,
# where the increment w_k c vanishes whatever w_k is: w0, or 0); the step
# size is all the solver asks of it, and its parameters must be finite.
# The loop caps w_k at beta_k for a problem with inequality rows.  Capping
# only shrinks an increment, so every bound a policy proves on ||y_k||
# holds capped too.


@dataclass(frozen=True)
class TheoreticalDual:
    """w_k = w0 * min{1, gamma_k / ||c(x_{k+1})||}, the step size with a
    certified uniform bound on ||y_k||.

    Increment bound: ||Delta y_k|| <= min(w_k, beta_k) ||c(x_{k+1})|| under
    the beta_k cap, and w_k ||c(x_{k+1})|| <= w0 gamma_k without it, so
    ``dual_norm_bound`` holds either way.
    """

    w0: float = 1.0

    def __post_init__(self):
        # Written so that NaN fails.
        if not 0 < self.w0 < math.inf:
            raise ValueError(f"w0 must be positive and finite, got {self.w0}")

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        if res == 0.0:
            return self.w0
        return self.w0 * min(1.0, gamma_k / res)


@dataclass(frozen=True)
class PracticalDual:
    """w_k = M (k+1)^q / ||c(x_{k+1})||: dual increments of norm M (k+1)^q,
    unit-norm by default.

    Increment bound: ||Delta y_k|| <= min(w_k, beta_k) ||c(x_{k+1})|| <=
    M (k+1)^q, equal to M (k+1)^q up to rounding without the beta_k cap.
    """

    M: float = 1.0
    q: int = 0

    def __post_init__(self):
        # Written so that NaN fails.
        if not 0 < self.M < math.inf:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not (self.q >= 0 and float(self.q).is_integer()):
            raise ValueError("q must be a nonnegative integer")

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        return self.M * (k + 1) ** self.q / res if res > 0.0 else 0.0


@dataclass(frozen=True)
class PenaltyDual:
    """w_k = 0: the pure penalty method, whose multipliers stay at zero.

    Increment bound: ||Delta y_k|| <= min(w_k, beta_k) ||c(x_{k+1})|| = 0,
    with or without the beta_k cap.
    """

    def step_size(self, k: int, res: float, gamma_k: float) -> float:
        return 0.0


DualStepPolicy = Union[TheoreticalDual, PracticalDual, PenaltyDual]


def gamma_schedule(k: int, c0_norm: float) -> float:
    """Damping sequence (log 2)^2 ||c(x0)|| / ((k+1) [log(k+2)]^2)."""
    # Written so that NaN fails.
    if not (k >= 0 and c0_norm >= 0):
        raise ValueError("k and c0_norm must be nonnegative")
    return LOG2_SQ * c0_norm / ((k + 1) * math.log(k + 2) ** 2)


def dual_step_size(
    policy: DualStepPolicy, k: int, res: float, gamma_k: float, cap: float = math.inf
) -> float:
    """Step size w_k = min(policy step, cap) of the multiplier update
    y <- y + w_k c(x_{k+1}) at the residual norm ``res``; the solver caps
    it at beta_k for a problem with inequality rows."""
    # Written so that NaN fails.
    if not (res >= 0 and gamma_k >= 0 and cap > 0):
        raise ValueError("residual norm and gamma must be nonnegative, and the cap positive")
    return min(policy.step_size(k, res, gamma_k), cap)


@dataclass
class IalmConfig:
    """Solver configuration; defaults follow the bundled benchmark setup.

    ``max_outer`` is the one iteration limit a caller sets: APG's stall
    guard bounds every inner call, under the fixed backstops
    ``apg.MAX_ITER`` and ``ippm.MAX_STEPS``.
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
    curvature_override: Optional[CurvatureSchedule] = None

    def __post_init__(self):
        # Written so that NaN fails.
        if not self.beta0 > 0:
            raise ValueError(f"beta0 must be positive, got {self.beta0}")
        if not self.sigma > 1:
            raise ValueError(f"sigma must exceed 1, got {self.sigma}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        for name in ("beta0", "sigma", "eps"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite, got inf")
        if not isinstance(self.policy, DualStepPolicy):
            raise TypeError(f"policy must be a dual step policy, got {self.policy!r}")
        # A bool is an Integral in Python, but not an iteration count.
        n = self.max_outer
        if isinstance(n, bool) or not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"max_outer must be positive and an integer, got {n!r}")


@dataclass(frozen=True)
class OuterIterationRecord:
    """Trajectory entry for one outer iteration k (producing x_{k+1}).

    ``pres``, ``dres``, ``pres_eq``, ``pres_ineq`` and ``compl`` are the
    certificate's (see ``KktResidual``), measured once, at the certificate
    multipliers; ``w`` is the step that moved the running multipliers to
    y_{k+1} and z_{k+1}, which are not certified (replay them from ``w``
    and ``x``, or read the report's ``y_running``/``z_running``).  ``z``
    is z_{k+1} for a problem with inequality rows and None otherwise;
    every other field is set for every problem.  ``x`` is kept so
    diagnostics can re-trace the run, and ``rho`` is the subproblem's final
    weak-convexity estimate, at most the override's rho_hat (or RHO_FLOOR,
    if larger), and ``L`` the final curvature estimate of its last APG
    call, where the next subproblem's APG starts.
    ``sub_eps`` is the tolerance the subproblem was solved to, ``ippm_steps`` its proximal
    point steps and ``apg_iters`` its APG iterations, redone steps included.
    ``sub_s`` is the wall time spent in the subproblem solve (``ippm_solve``)
    and ``cert_s`` in the KKT certificate (``certify``), in seconds.
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
    rho: float
    L: float
    sub_eps: float
    ippm_steps: int
    apg_iters: int
    sub_s: float
    cert_s: float
    pres_eq: float
    pres_ineq: float
    compl: float
    z: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SolveReport:
    """Full outcome of one solve: trajectory, certificate, and counts.

    ``y`` (and ``z``, for a problem with inequality rows; None otherwise)
    are the certificate multipliers backing ``kkt``; ``y_running``
    (``z_running``) the running multipliers after the last update;
    ``y_running`` is the sum of the records' steps w_k c(x_{k+1}), in order.
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
    grad_evals: int
    seconds: float
    z: Optional[np.ndarray] = None
    z_running: Optional[np.ndarray] = None


def _uncapped(beta: float, multiplier_norm: float) -> tuple[float, float]:
    return math.inf, math.inf


def dual_update_z(z: Array, f_vals: Array, w: float, beta: float) -> Array:
    """z_i <- z_i + w max{-z_i/beta, f_i(x)}, clamped to stay nonnegative.

    The clamp only matters in floating point: with w <= beta the update is
    nonnegative exactly.
    """
    # Written so that NaN fails.
    if not 0 <= w <= beta:
        raise ValueError("need 0 <= w <= beta to preserve z >= 0")
    return np.maximum(z + w * np.maximum(-z / beta, f_vals), 0.0)


def ialm_solve(problem: ProblemSpec, config: IalmConfig) -> SolveReport:
    """Drive the problem to an eps-KKT point.

    The solve runs on ``problem.for_solve()``, whose smooth oracle's
    ``grad_evals`` starts at 0 and is the report's #Grad.  With inequality
    rows, subproblems are as weakly convex as g because the hinge
    composition of a convex constraint is convex.  A subsolver stall
    propagates with the #Grad spent so far as its ``grad_evals``.  APG's
    curvature estimate is carried from each subproblem to the next,
    starting at ``smooth.L``; both curvature estimates are measured, capped
    only by ``config.curvature_override`` when set.
    """
    problem = problem.for_solve()
    smooth = problem.smooth
    schedule = config.curvature_override or _uncapped
    c, _, f, _ = _linearize_rows(problem, problem.x0)
    y = np.zeros(c.shape[0])
    z = z_cert = None if f is None else np.zeros(f.shape[0])
    # Damping scale: the initial primal residual, or with inequality rows
    # the larger of its two parts, the scale of the max(pres_eq, pres_ineq)
    # the dual step divides by.  (The smaller would be 0 whenever x0
    # satisfies one block, freezing the damped policy's multipliers at 0.)
    damping = float(np.linalg.norm(c))
    if f is not None:
        damping = max(damping, float(np.linalg.norm(np.maximum(f, 0.0))))

    t0 = time.perf_counter()
    x = problem.x0
    records: list[OuterIterationRecord] = []
    beta = config.beta0
    # No residual has been measured before k = 0.
    sub_eps = config.eps
    L_est = smooth.L
    # The largest weak-convexity estimate an earlier subproblem ran at.
    rho_known = 0.0

    for k in range(config.max_outer):
        mult_norm = float(np.linalg.norm(y))
        if z is not None:
            mult_norm = float(math.hypot(mult_norm, np.linalg.norm(z)))
        rho_hat, L_hat = schedule(beta, mult_norm)
        # Written so that NaN fails; inf (no cap) passes.
        if not (L_hat > 0 and rho_hat >= 0):
            raise ValueError(f"curvature schedule returned invalid (rho, L)=({rho_hat}, {L_hat})")
        # rho_hat caps iPPM's weak-convexity estimate; a convex cap
        # (rho_hat = 0) holds it at the floor it starts from.
        t_sub = time.perf_counter()
        try:
            sub = ippm_solve(
                _al_gradient(problem, y, z, beta),
                problem.nonsmooth,
                x,
                max(rho_hat, RHO_FLOOR),
                L_hat,
                sub_eps,
                L_init=L_est,
                rho_known=rho_known,
            )
        except SubsolverStall as exc:
            exc.grad_evals = smooth.grad_evals
            raise
        x, L_est = sub.x, sub.L
        rho_known = max(rho_known, sub.rho_peak)
        # One linearization of each row block and one grad g(x) serve the
        # certificate and the dual step; x is the array APG's last step
        # evaluated, so the solve's oracle returns the gradient it holds.
        t_cert = time.perf_counter()
        rows = _linearize_rows(problem, x)
        g = smooth._gradient(x)
        c, _, f, _ = rows
        y_cert = y + beta * c
        if z is not None:
            z_cert = np.maximum(z + beta * f, 0.0)
        kkt = _kkt(problem, x, y_cert, z_cert, rows, g)
        t_done = time.perf_counter()
        converged = max(kkt.pres, kkt.dres, kkt.compl) <= config.eps

        res = max(kkt.pres_eq, kkt.pres_ineq)
        cap = math.inf if z is None else beta
        w = dual_step_size(config.policy, k, res, gamma_schedule(k, damping), cap)
        y = y + w * c
        if z is not None:
            z = dual_update_z(z, f, w, beta)
        records.append(
            OuterIterationRecord(
                k=k,
                beta=beta,
                w=w,
                pres=kkt.pres,
                dres=kkt.dres,
                y_norm=float(np.linalg.norm(y)),
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
                pres_eq=kkt.pres_eq,
                pres_ineq=kkt.pres_ineq,
                compl=kkt.compl,
                z=None if z is None else z.copy(),
            )
        )
        if converged:
            break
        beta = beta * config.sigma
        sub_eps = max(config.eps, SUBPROBLEM_TOL_FACTOR * kkt.pres)

    return SolveReport(
        records=records,
        x=x,
        y=y_cert,
        y_running=y,
        kkt=kkt,
        success=converged,
        grad_evals=smooth.grad_evals,
        seconds=time.perf_counter() - t0,
        z=z_cert,
        z_running=z,
    )
