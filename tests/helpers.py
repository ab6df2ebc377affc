"""Shared problem builders for the test suite."""

from __future__ import annotations

import numpy as np

from almkit.core import (
    ConstantsLedger,
    ConstraintOracle,
    ProblemSpec,
    SmoothOracle,
)
from almkit.ineq import IneqConstants, IneqProblemSpec
from almkit.problems import quadratic_objective
from almkit.prox import BoxSet, box_indicator, zero_function


def box_qp_problem(Q, c, A, b, box: BoxSet, x0) -> ProblemSpec:
    """Equality-and-box QP with a closed-form constants ledger."""
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    smooth = quadratic_objective(Q, c)
    cons = ConstraintOracle(
        evaluate_fn=lambda x: A @ x - b,
        jacobian_t_apply_fn=lambda x, v: A.T @ v,
        n_constraints=A.shape[0],
    )
    corner = float(np.sqrt(np.sum(np.maximum(box.lower**2, box.upper**2))))
    B0 = max(
        0.5 * smooth.L * corner**2 + float(np.linalg.norm(c)) * corner,
        smooth.L * corner + float(np.linalg.norm(c)),
    )
    ledger = ConstantsLedger(B0=B0, B_c=float(np.linalg.norm(A, 2)))
    return ProblemSpec(
        smooth=smooth,
        nonsmooth=box_indicator(box),
        constraints=cons,
        constants=ledger,
        x0=np.asarray(x0, dtype=float),
    )


def toy_eq_qp() -> tuple[ProblemSpec, np.ndarray]:
    """min 0.5||x||^2 + (1,-1)'x  s.t. x1 + x2 = 0, x in [-5,5]^2.

    KKT: x* = (-1, 1) with multiplier 0 (interior, feasible, stationary).
    """
    problem = box_qp_problem(
        Q=np.eye(2),
        c=np.array([1.0, -1.0]),
        A=np.array([[1.0, 1.0]]),
        b=np.zeros(1),
        box=BoxSet.cube(-5.0, 5.0, 2),
        x0=np.array([2.0, 2.0]),
    )
    return problem, np.array([-1.0, 1.0])


def toy_ineq_qp() -> tuple[IneqProblemSpec, float, float]:
    """min 0.5 x^2  s.t.  1 - x <= 0.  KKT: x* = 1, z* = 1."""
    smooth = SmoothOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), smoothness=1.0)
    ineq = ConstraintOracle(
        evaluate_fn=lambda x: np.array([1.0 - x[0]]),
        jacobian_t_apply_fn=lambda x, v: np.array([-v[0]]),
        n_constraints=1,
        component_smoothness=[0.0],
        component_weak_convexity=[0.0],
        component_bounds=[6.0],
    )
    problem = IneqProblemSpec(
        smooth=smooth,
        nonsmooth=zero_function(),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        ineq=ineq,
        constants=IneqConstants(B0=18.0, B_f=1.0, B_bar_c=0.0, AtA_norm=0.0, D=10.0),
        rho0=0.0,
        x0=np.zeros(1),
    )
    return problem, 1.0, 1.0


def finite_difference_gradient(f, x, step=1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def fancy_index_box_distance(x, v, box: BoxSet) -> float:
    """dist(v, N_box(x)) by the clamp-and-fancy-index formula, for x within
    the box's tolerance: the reference the box kernel matches bit for bit."""
    x = np.clip(x, box.lower, box.upper)
    at_lo = x <= box.lower
    at_hi = x >= box.upper
    d = np.abs(v)
    d[at_hi] = np.maximum(0.0, -v[at_hi])
    d[at_lo] = np.maximum(0.0, v[at_lo])
    d[at_lo & at_hi] = 0.0
    return float(np.linalg.norm(d))


def fancy_index_nonneg_distance(x, v, atol: float = 1e-12) -> float:
    """dist(v, N(x)) for the orthant by the fancy-index formula, for x >= -atol:
    the reference the orthant kernel matches bit for bit."""
    active = x <= atol
    d = np.abs(v).astype(float)
    d[active] = np.maximum(0.0, v[active])
    return float(np.linalg.norm(d))
