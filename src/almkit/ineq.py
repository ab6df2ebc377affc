"""Augmented Lagrangian solver for nonconvex objectives with affine
equality plus smooth convex inequality constraints

    minimize g(x) + h(x)   subject to  A x = b,  f(x) <= 0,

using the hinge-penalized AL

    L_beta(x; y, z) = g(x) + h(x) + y'(Ax-b) + (beta/2)||Ax-b||^2
                      + (||[z + beta f(x)]_+||^2 - ||z||^2) / (2 beta),

and a slack-variable bridge that maps general inequality problems onto the
equality solver.  The hinge keeps the smooth part continuously
differentiable (gradient Lipschitz, not twice differentiable), which is all
the inner solver needs.  Its KKT residuals are the shared ``KktResidual``
with the complementarity residual and the split primal residual set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Array,
    ConstraintOracle,
    DimensionMismatch,
    KktResidual,
    NonFiniteValue,
    ProblemSpec,
    ProxCapableFunction,
    SmoothOracle,
    _affine_rows,
    _affine_rows_gradient,
    as_vector,
    dual_residual,
)
from .ialm import IalmConfig, SolveReport, _outer_loop
from .prox import nonneg_indicator, stacked


@dataclass(frozen=True)
class IneqConstants:
    """Aggregate bounds over dom(h) for the inequality-constrained problem."""

    B0: float
    B_f: float
    B_bar_c: float
    AtA_norm: float
    D: float

    def __post_init__(self):
        for name in ("B0", "B_f", "B_bar_c", "AtA_norm"):
            # Written so that NaN fails.
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class IneqProblemSpec:
    """Problem instance with affine equalities and convex inequalities.

    Convexity of each f_i is assumed, not checked.  ``rho0``, the weak
    convexity of g, is validated but not read: the solver measures the
    weak convexity itself.
    """

    smooth: SmoothOracle
    nonsmooth: ProxCapableFunction
    A: np.ndarray
    b: np.ndarray
    ineq: ConstraintOracle
    constants: IneqConstants
    rho0: float
    x0: np.ndarray

    def __post_init__(self):
        self.A, self.b = _affine_rows(self.A, self.b)
        self.x0 = as_vector(self.x0, name="x0")
        if self.A.shape[0] == 0:
            self.A = np.zeros((0, self.dim))
        elif self.A.shape[1] != self.dim:
            raise DimensionMismatch("affine part column count must match dim")
        # Written so that NaN fails.
        if not self.rho0 >= 0:
            raise ValueError("rho0 must be nonnegative")
        self.nonsmooth._check_domain(self.x0, "x0")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    @property
    def n_eq(self) -> int:
        return self.A.shape[0]

    @property
    def n_ineq(self) -> int:
        return self.ineq.n_constraints

    for_solve = ProblemSpec.for_solve


def _check_ineq_inputs(x, y, z, beta, problem):
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.n_eq, "y")
    z = as_vector(z, problem.n_ineq, "z")
    if np.any(z < 0):
        raise ValueError("inequality multipliers z must be nonnegative")
    # Written so that NaN fails.
    if not beta > 0:
        raise ValueError("beta must be positive")
    return x, y, z


def _hinge_gradient(
    problem: IneqProblemSpec, y: Array, z: Array, beta: float
) -> Callable[[Array], Array]:
    """The hinge block's smooth AL gradient at fixed (y, z, beta):
    x -> grad g(x) + A'(y + beta (Ax - b)) + J_f(x)'[z + beta f(x)]_+, one
    closure per subproblem; the affine rows are read as data, the
    inequality rows are linearized once per call through the checked
    ``ConstraintOracle._linearize``."""
    grad = problem.smooth._gradient
    if problem.n_eq:
        grad = _affine_rows_gradient(problem.smooth, problem.A, problem.b, y, beta)
    linearize = problem.ineq._linearize

    def kernel(x: Array) -> Array:
        g = grad(x)
        f, jt = linearize(x)
        return g + jt(np.maximum(z + beta * f, 0.0))

    return kernel


def al_ineq_value(x: Array, y: Array, z: Array, beta: float, problem: IneqProblemSpec) -> float:
    """Hinge-penalized augmented Lagrangian value (includes the h term)."""
    x, y, z = _check_ineq_inputs(x, y, z, beta, problem)
    r = problem.A @ x - problem.b
    f = problem.ineq._linearize(x)[0]
    hinge = np.maximum(z + beta * f, 0.0)
    val = (
        problem.smooth._value(x)
        + float(y @ r)
        + 0.5 * beta * float(r @ r)
        + (float(hinge @ hinge) - float(z @ z)) / (2.0 * beta)
        + problem.nonsmooth.value(x)
    )
    if not math.isfinite(val):
        raise NonFiniteValue("augmented Lagrangian value overflowed")
    return val


def al_ineq_gradient_smooth(
    x: Array, y: Array, z: Array, beta: float, problem: IneqProblemSpec
) -> Array:
    """Gradient of the smooth AL part:
    grad g + A'(y + beta (Ax-b)) + J_f' [z + beta f(x)]_+."""
    x, y, z = _check_ineq_inputs(x, y, z, beta, problem)
    return _hinge_gradient(problem, y, z, beta)(x)


def _hinge_kkt(x, y, z, problem: IneqProblemSpec, r, f, jt) -> KktResidual:
    """``kkt_residual_ineq`` at validated (x, y, z), given Ax-b and the
    linearization (f(x), jt) at x; the prox surrogate alone linearizes
    again, at its prox-forward point."""
    pres_eq = float(np.linalg.norm(r))
    pres_ineq = float(np.linalg.norm(np.maximum(f, 0.0)))

    def lagrangian_gradient(g, product):
        v = g + product(z)
        return v + problem.A.T @ y if problem.n_eq else v

    dres, flagged = dual_residual(
        x,
        lagrangian_gradient(problem.smooth._gradient(x), jt),
        lambda u: lagrangian_gradient(problem.smooth._gradient(u), problem.ineq._linearize(u)[1]),
        problem.nonsmooth,
        problem.smooth.L,
    )
    return KktResidual(
        pres=float(math.hypot(pres_eq, pres_ineq)),
        dres=dres,
        compl=float(np.sum(np.abs(z * f))),
        dres_is_upper_bound=flagged,
        pres_eq=pres_eq,
        pres_ineq=pres_ineq,
    )


def kkt_residual_ineq(x: Array, y: Array, z: Array, problem: IneqProblemSpec) -> KktResidual:
    """Measure the inequality-KKT residuals at (x, y, z): the primal residual
    and its two parts, the complementarity residual, and the dual residual,
    measured by ``dual_residual``; raises ValueError when x lies outside
    dom h."""
    x, y, z = _check_ineq_inputs(x, y, z, 1.0, problem)
    problem.nonsmooth._check_domain(x)
    f, jt = problem.ineq._linearize(x)
    return _hinge_kkt(x, y, z, problem, problem.A @ x - problem.b, f, jt)


def ineq_dual_step_size(policy, k: int, max_res: float, gamma_k: float, beta: float) -> float:
    """Policy step size capped at beta, which keeps z nonnegative."""
    return min(policy.step_size(k, max_res, gamma_k), beta)


def dual_update_z(z: Array, f_vals: Array, w: float, beta: float) -> Array:
    """z_i <- z_i + w max{-z_i/beta, f_i(x)}, clamped to stay nonnegative.

    The clamp only matters in floating point: with w <= beta the update is
    nonnegative exactly.
    """
    if w < 0 or w > beta:
        raise ValueError("need 0 <= w <= beta to preserve z >= 0")
    return np.maximum(z + w * np.maximum(-z / beta, f_vals), 0.0)


class _HingeBlock:
    """Ax = b with multiplier y and f(x) <= 0 with multiplier z >= 0; the
    certificate multipliers are y + beta (Ax-b) and [z + beta f(x)]_+."""

    def __init__(self, problem: IneqProblemSpec):
        self.problem = problem
        x = problem.x0
        self.y = self.y_cert = np.zeros(problem.n_eq)
        self.z = self.z_cert = np.zeros(problem.n_ineq)
        # Damping scale: largest initial residual among the blocks present,
        # the scale of the max(pres_eq, pres_ineq) the dual step divides
        # by.  (The smallest would be 0 whenever x0 satisfies one block,
        # freezing the damped policy's multipliers at 0.)
        pres_eq = np.linalg.norm(problem.A @ x - problem.b)
        pres_ineq = np.linalg.norm(np.maximum(problem.ineq.evaluate(x), 0.0))
        self.damping = float(max(pres_eq, pres_ineq))

    def multiplier_norm(self) -> float:
        return float(math.hypot(np.linalg.norm(self.y), np.linalg.norm(self.z)))

    def subproblem(self, beta):
        return _hinge_gradient(self.problem, self.y, self.z, beta)

    def certify(self, x, beta):
        problem = self.problem
        self.r = problem.A @ x - problem.b
        self.f, jt = problem.ineq._linearize(x)
        self.y_cert = self.y + beta * self.r
        self.z_cert = np.maximum(self.z + beta * self.f, 0.0)
        self.kkt = _hinge_kkt(x, self.y_cert, self.z_cert, problem, self.r, self.f, jt)
        return self.kkt

    def dual_update(self, policy, k, gamma_k, beta) -> float:
        pres_eq, pres_ineq = self.kkt.pres_eq, self.kkt.pres_ineq
        w = ineq_dual_step_size(policy, k, max(pres_eq, pres_ineq), gamma_k, beta)
        if w != 0.0:
            if self.problem.n_eq and pres_eq > 0.0:
                self.y = self.y + w * self.r
            if self.problem.n_ineq:
                self.z = dual_update_z(self.z, self.f, w, beta)
        return w

    def record_fields(self, x, kkt) -> dict:
        return {
            "pres_eq": kkt.pres_eq,
            "pres_ineq": kkt.pres_ineq,
            "compl": kkt.compl,
            "z_norm": float(np.linalg.norm(self.z)),
            "z": self.z.copy(),
        }


def ialm_ineq_solve(problem: IneqProblemSpec, config: IalmConfig) -> SolveReport:
    """Drive the inequality-constrained problem to an eps-KKT point.

    Subproblems are as weakly convex as g because the hinge composition of
    a convex constraint is convex; the dual clamp max{-z_i/beta, f_i}
    together with w_k <= beta_k keeps z nonnegative throughout.  Both
    curvature estimates are measured, capped only by
    ``config.curvature_override`` when set.  The report's #Grad counts
    this solve only (it runs on ``problem.for_solve()``), and its ``kkt``
    sets ``compl``, ``pres_eq`` and ``pres_ineq``.
    """
    return _outer_loop(_HingeBlock(problem.for_solve()), config)


@dataclass(frozen=True)
class SlackCertificate:
    """Inequality-problem certificate recovered from the slack reformulation.

    ``z_hat`` drops the (small) negative part of the raw slack multiplier;
    ``neg_part_norm`` records what was dropped and ``compl`` the resulting
    complementarity sum at ``x``.
    """

    x: np.ndarray
    s: np.ndarray
    y_eq: np.ndarray
    z_raw: np.ndarray
    z_hat: np.ndarray
    neg_part_norm: float
    compl: float


@dataclass(frozen=True)
class SlackReformulation:
    """Equality-form problem over (x, s) plus the certificate translator."""

    problem: ProblemSpec
    n_original: int
    n_ineq: int

    def translate(self, x_full: Array, y_full: Array, ineq: ConstraintOracle) -> SlackCertificate:
        n, m = self.n_original, self.n_ineq
        x_full = as_vector(x_full, n + m, "x_full")
        y_full = as_vector(y_full, self.problem.constraints.n_constraints, "y_full")
        l = y_full.shape[0] - m
        x, s = x_full[:n], x_full[n:]
        y_eq, z_raw = y_full[:l], y_full[l:]
        z_hat = np.maximum(z_raw, 0.0)
        f = ineq.evaluate(x)
        return SlackCertificate(
            x=x,
            s=s,
            y_eq=y_eq,
            z_raw=z_raw,
            z_hat=z_hat,
            neg_part_norm=float(np.linalg.norm(np.minimum(z_raw, 0.0))),
            compl=float(np.sum(np.abs(z_hat * f))),
        )


def slack_reformulate(problem: IneqProblemSpec) -> SlackReformulation:
    """Rewrite f(x) <= 0 as f(x) + s = 0 with s >= 0 folded into the
    nonsmooth term, producing an equality-form ProblemSpec over (x, s)."""
    n, m, l = problem.dim, problem.n_ineq, problem.n_eq
    A, b, ineq = problem.A, problem.b, problem.ineq

    # The slack smooth oracle calls the user's callables directly: its own
    # output check covers the concatenated gradient, and a solve on the slack
    # problem counts its #Grad on its own smooth oracle, never on
    # ``problem``'s.  The inequality part is linearized once per call through
    # its checked ``_linearize``, which keeps the shape checks that the
    # concatenation would hide.
    g = problem.smooth
    g_value, g_gradient = g._value_fn, g._gradient_fn

    def value(xs):
        return g_value(xs[:n])

    def gradient(xs):
        return np.concatenate([g_gradient(xs[:n]), np.zeros(m)])

    smooth = SmoothOracle(value, gradient, g.L, g.rho)

    def linearize(xs):
        x, s = xs[:n], xs[n:]
        f, jt = ineq._linearize(x)
        eq = A @ x - b if l else np.zeros(0)

        def jt_full(v):
            v_eq, v_in = v[:l], v[l:]
            top = jt(v_in)
            if l:
                top = top + A.T @ v_eq
            return np.concatenate([top, v_in])

        return np.concatenate([eq, f + s]), jt_full

    constraints = ConstraintOracle.linearized(linearize, n_constraints=l + m)

    nonsmooth = stacked(problem.nonsmooth, nonneg_indicator(), n)
    f0 = ineq.evaluate(problem.x0)
    x0_full = np.concatenate([problem.x0, np.maximum(-f0, 0.0)])

    spec = ProblemSpec(
        smooth=smooth, nonsmooth=nonsmooth, constraints=constraints, constants=None, x0=x0_full
    )
    return SlackReformulation(problem=spec, n_original=n, n_ineq=m)
