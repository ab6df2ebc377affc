"""Inequality rows: the names of the former inequality problem type, and
the slack-variable bridge.

A problem with convex inequality rows f(x) <= 0 is a ``ProblemSpec`` with
``ineq`` set; ``ialm_solve``, ``al_value``, ``al_gradient_smooth`` and
``kkt_residual`` solve and measure it (see ``almkit.core`` for the
hinge-penalized augmented Lagrangian).  ``IneqProblemSpec`` builds such a
problem from affine equalities given as ``A``, ``b``; ``ialm_ineq_solve``
and ``kkt_residual_ineq`` are the one solver and its certificate under
their former names, the latter taking z positionally.

``slack_reformulate`` rewrites f(x) <= 0 as f(x) + s = 0 with s >= 0, an
equality-only problem over (x, s), and translates its certificate back: a
second path to the same solutions, for cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Array,
    ConstraintOracle,
    KktResidual,
    ProblemSpec,
    ProxCapableFunction,
    SmoothOracle,
    _affine_rows,
    _linearize_rows,
    as_vector,
    kkt_residual,
)
from .ialm import ialm_solve
from .prox import nonneg_indicator, stacked


@dataclass(frozen=True)
class IneqConstants:
    """Aggregate bounds over dom(h) for a problem with inequality rows,
    validated but read by no solver code."""

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


def IneqProblemSpec(
    smooth: SmoothOracle,
    nonsmooth: ProxCapableFunction,
    A: Array,
    b: Array,
    ineq: ConstraintOracle,
    constants: IneqConstants,
    rho0: float,
    x0: Array,
) -> ProblemSpec:
    """The ``ProblemSpec`` with oracles ``smooth`` and ``nonsmooth``, affine
    equalities A x = b held as data by ``ConstraintOracle.affine``, the
    convex inequality rows ``ineq`` and start ``x0``.

    Convexity of each f_i is assumed, not checked.  ``rho0``, the weak
    convexity of g, must be nonnegative; neither it nor ``constants`` (an
    ``IneqConstants``, which validates itself) is kept: no solver code
    reads them.  An ``A`` with no rows may have any width.
    """
    A, b = _affine_rows(A, b)
    x0 = as_vector(x0, name="x0")
    if A.shape[0] == 0:
        A = np.zeros((0, x0.shape[0]))
    # Written so that NaN fails.
    if not rho0 >= 0:
        raise ValueError("rho0 must be nonnegative")
    return ProblemSpec(smooth, nonsmooth, ConstraintOracle.affine(A, b), None, x0, ineq)


def kkt_residual_ineq(x: Array, y: Array, z: Array, problem: ProblemSpec) -> KktResidual:
    """``kkt_residual`` at (x, y, z)."""
    return kkt_residual(x, y, problem, z)


ialm_ineq_solve = ialm_solve


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


def slack_reformulate(problem: ProblemSpec) -> SlackReformulation:
    """Rewrite the inequality rows f(x) <= 0 as f(x) + s = 0 with s >= 0
    folded into the nonsmooth term, producing an equality-only ProblemSpec
    over (x, s) whose rows are c(x) = 0 followed by f(x) + s = 0."""
    ineq = problem.ineq
    n, m, l = problem.dim, ineq.n_constraints, problem.constraints.n_constraints

    # The slack smooth oracle calls the user's callables directly: its own
    # output check covers the concatenated gradient, and a solve on the slack
    # problem counts its #Grad on its own smooth oracle, never on
    # ``problem``'s.  Each row block is linearized once per call through its
    # ``_linearize`` (the data kernel for affine rows, checked for callback
    # rows), which keeps the shape checks that the concatenation would
    # hide.
    g = problem.smooth
    g_value, g_gradient = g._value_fn, g._gradient_fn

    def value(xs):
        return g_value(xs[:n])

    def gradient(xs):
        return np.concatenate([g_gradient(xs[:n]), np.zeros(m)])

    smooth = SmoothOracle(value, gradient, g.L, g.rho)

    def linearize(xs):
        x, s = xs[:n], xs[n:]
        c, jt_c, f, jt = _linearize_rows(problem, x)

        def jt_full(v):
            v_eq, v_in = v[:l], v[l:]
            top = jt(v_in)
            if l:
                top = top + jt_c(v_eq)
            return np.concatenate([top, v_in])

        return np.concatenate([c, f + s]), jt_full

    constraints = ConstraintOracle.linearized(linearize, n_constraints=l + m)

    nonsmooth = stacked(problem.nonsmooth, nonneg_indicator(), n)
    f0 = ineq.evaluate(problem.x0)
    x0_full = np.concatenate([problem.x0, np.maximum(-f0, 0.0)])

    spec = ProblemSpec(
        smooth=smooth, nonsmooth=nonsmooth, constraints=constraints, constants=None, x0=x0_full
    )
    return SlackReformulation(problem=spec, n_original=n, n_ineq=m)
