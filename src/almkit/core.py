"""Core abstractions for equality-constrained composite minimization.

Problems have the form

    minimize  g(x) + h(x)   subject to  c(x) = 0,

where g is smooth (possibly nonconvex), h is closed convex and prox-capable,
and c is a smooth vector map.  This module provides the oracle types, the
constants ledger used to bound the weak convexity of the augmented
Lagrangian, augmented-Lagrangian evaluation, and KKT residual measurement.

All vectors are dense float64.  Validation happens at two places only, so
oracle bugs fail fast without re-checking what the solver computed itself:

* entry points (the public oracle methods, ``al_*``, ``kkt_residual``, and
  the solver entry points) check shape and finiteness of their inputs; the
  inner solvers (``ippm_solve``, ``apg_solve``) take plain gradient
  callables and check only their start point;
* every call into a user callable checks its output, through the oracle's
  private method (``SmoothOracle._gradient``, ``ConstraintOracle._evaluate``,
  ``ProxCapableFunction._prox``, ...), which the public method wraps after
  ``as_vector`` and which the solver's hot path calls directly.

A vector's finiteness is checked through one dot product (``all_finite``):
a NaN or Inf entry makes a'a NaN or Inf, so a finite a'a proves every entry
finite, and only a non-finite one falls back to ``np.isfinite(a).all()``,
which tells an overflowing a'a of finite entries (accepted; numpy warns of
the overflow) from a NaN or Inf entry (rejected).  The accepted and
rejected vectors, and the messages, are those of the entrywise check.

The one remaining guard inside the inner loops is APG's finiteness check on
its stationarity measure, which catches a NaN iterate that reached a
gradient that ignores its input.

#Grad, the paper's complexity measure, is counted at one point:
``SmoothOracle.grad_evals``, which every call into the smooth gradient
callable increments.  Each solve runs on a copy of the problem whose count
starts at 0 (``ProblemSpec.for_solve``).  Objective values are not counted;
the solvers evaluate none.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class DimensionMismatch(ValueError):
    """Vector shapes disagree with the problem dimensions."""


class NonFiniteValue(ValueError):
    """An oracle produced, or was handed, NaN or Inf."""


def all_finite(a: Array) -> bool:
    """Whether every entry of the float64 1-D array ``a`` is finite, decided
    by one dot product; the entrywise check runs only when a'a is not finite
    (an entry is NaN or Inf, or a'a overflowed, which numpy reports with a
    RuntimeWarning)."""
    return math.isfinite(a.dot(a)) or bool(np.isfinite(a).all())


def norm(a: Array) -> float:
    """Euclidean norm of the float64 1-D array ``a``: sqrt(a'a), which is
    what ``np.linalg.norm`` computes for it, bit for bit, without its
    wrapper."""
    return math.sqrt(a.dot(a))


def as_vector(x, n: Optional[int] = None, name: str = "x") -> Array:
    """Validate and return ``x`` as a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    if not all_finite(v):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return v


class SmoothOracle:
    """Differentiable function with known smoothness and weak convexity.

    Parameters
    ----------
    value_fn, gradient_fn:
        Callables evaluating the function and its gradient.
    smoothness:
        Gradient Lipschitz constant L (an estimate is fine: the solver only
        starts its adaptive curvature estimate there).
    weak_convexity:
        Constant rho >= 0 such that the function plus (rho/2)||.||^2 is convex.

    ``grad_evals`` is the #Grad count: every call into the gradient callable
    adds one, whether it serves an augmented Lagrangian gradient or a KKT
    certificate.  Values are not counted.
    """

    def __init__(
        self,
        value_fn: Callable[[Array], float],
        gradient_fn: Callable[[Array], Array],
        smoothness: float,
        weak_convexity: float = 0.0,
    ):
        if smoothness < 0 or weak_convexity < 0:
            raise ValueError("smoothness and weak convexity must be nonnegative")
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.L = float(smoothness)
        self.rho = float(weak_convexity)
        self.grad_evals = 0

    def value(self, x: Array) -> float:
        return self._value(as_vector(x))

    def _value(self, x: Array) -> float:
        v = float(self._value_fn(x))
        if not math.isfinite(v):
            raise NonFiniteValue("smooth oracle value overflowed")
        return v

    def gradient(self, x: Array) -> Array:
        return self._gradient(as_vector(x))

    def _gradient(self, x: Array) -> Array:
        self.grad_evals += 1
        g = np.asarray(self._gradient_fn(x), dtype=float)
        if g.shape != x.shape:
            raise DimensionMismatch(
                f"gradient has shape {g.shape}, expected {x.shape}"
            )
        if not all_finite(g):
            raise NonFiniteValue("smooth oracle gradient overflowed")
        return g


class ProxCapableFunction:
    """Closed convex function accessed through its proximal map.

    ``prox(v, step)`` returns ``argmin_u h(u) + ||u - v||^2 / (2 step)``.
    ``subdiff_distance(x, v)``, when available, returns the exact Euclidean
    distance from ``v`` to the subdifferential of h at ``x``; solvers fall
    back to a certified surrogate otherwise.  ``cone_subdiff`` marks
    functions whose subdifferential is a cone at every point (indicators and
    the zero function), which makes it invariant to positive rescaling.
    """

    def __init__(
        self,
        prox_fn: Callable[[Array, float], Array],
        value_fn: Callable[[Array], float],
        subdiff_distance_fn: Optional[Callable[[Array, Array], float]] = None,
        diameter: float = math.inf,
        cone_subdiff: bool = False,
    ):
        self._prox_fn = prox_fn
        self._value_fn = value_fn
        self._subdiff_fn = subdiff_distance_fn
        self.diameter = float(diameter)
        self.cone_subdiff = bool(cone_subdiff)
        if self.diameter <= 0:
            raise ValueError("diameter must be positive (use inf for unbounded domains)")

    def prox(self, v: Array, step: float) -> Array:
        if step <= 0:
            raise ValueError("prox step must be positive")
        return self._prox(as_vector(v), float(step))

    def _prox(self, v: Array, step: float) -> Array:
        out = np.asarray(self._prox_fn(v, step), dtype=float)
        if out.shape != v.shape:
            raise DimensionMismatch("prox output dimension mismatch")
        return out

    def value(self, x: Array) -> float:
        # +inf outside the domain is legitimate, so no finiteness check here.
        return float(self._value_fn(as_vector(x)))

    @property
    def has_exact_subdiff(self) -> bool:
        return self._subdiff_fn is not None

    def subdiff_distance(self, x: Array, v: Array) -> Optional[float]:
        """Exact dist(v, subdiff h(x)), or None when unavailable."""
        if self._subdiff_fn is None:
            return None
        x = as_vector(x)
        return self._subdiff(x, as_vector(v, x.shape[0], "v"))

    def _subdiff(self, x: Array, v: Array) -> float:
        d = float(self._subdiff_fn(x, v))
        if d < 0 or not math.isfinite(d):
            raise NonFiniteValue("subdifferential distance must be finite and nonnegative")
        return d


class ConstraintOracle:
    """Smooth vector map c with matrix-free Jacobian-transpose products."""

    def __init__(
        self,
        evaluate_fn: Callable[[Array], Array],
        jacobian_t_apply_fn: Callable[[Array, Array], Array],
        n_constraints: int,
        component_smoothness: Optional[Sequence[float]] = None,
        component_weak_convexity: Optional[Sequence[float]] = None,
        component_bounds: Optional[Sequence[float]] = None,
        jacobian_norm_bound: Optional[float] = None,
    ):
        self._evaluate_fn = evaluate_fn
        self._jac_t_fn = jacobian_t_apply_fn
        self.n_constraints = int(n_constraints)
        if self.n_constraints < 0:
            raise ValueError("constraint count must be nonnegative")

        def _opt(arr):
            if arr is None:
                return None
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.n_constraints,):
                raise DimensionMismatch("per-constraint constant length mismatch")
            if np.any(a < 0):
                raise ValueError("per-constraint constants must be nonnegative")
            return a

        self.component_smoothness = _opt(component_smoothness)
        self.component_weak_convexity = _opt(component_weak_convexity)
        self.component_bounds = _opt(component_bounds)
        self.jacobian_norm_bound = (
            None if jacobian_norm_bound is None else float(jacobian_norm_bound)
        )

    def evaluate(self, x: Array) -> Array:
        return self._evaluate(as_vector(x))

    def _evaluate(self, x: Array) -> Array:
        c = np.asarray(self._evaluate_fn(x), dtype=float)
        if c.ndim == 0:
            c = c.reshape(1)
        if c.shape != (self.n_constraints,):
            raise DimensionMismatch(
                f"constraint value has shape {c.shape}, expected ({self.n_constraints},)"
            )
        if not all_finite(c):
            raise NonFiniteValue("constraint oracle overflowed")
        return c

    def jacobian_transpose_apply(self, x: Array, v: Array) -> Array:
        return self._jac_t(as_vector(x), as_vector(v, self.n_constraints, "v"))

    def _jac_t(self, x: Array, v: Array) -> Array:
        out = np.asarray(self._jac_t_fn(x, v), dtype=float)
        if out.shape != x.shape:
            raise DimensionMismatch("Jacobian-transpose product dimension mismatch")
        if not all_finite(out):
            raise NonFiniteValue("Jacobian-transpose product overflowed")
        return out

    @staticmethod
    def affine(A: Array, b: Array) -> "ConstraintOracle":
        """Oracle for c(x) = A x - b with exact per-row constants left to the caller."""
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise DimensionMismatch("affine constraint shapes inconsistent")
        return ConstraintOracle(
            evaluate_fn=lambda x: A @ x - b,
            jacobian_t_apply_fn=lambda x, v: A.T @ v,
            n_constraints=A.shape[0],
            component_smoothness=np.zeros(A.shape[0]),
            component_weak_convexity=np.zeros(A.shape[0]),
            jacobian_norm_bound=float(np.linalg.norm(A, 2)) if A.size else 0.0,
        )


def aggregate_constants(
    B_i: Sequence[float], L_i: Sequence[float], rho_i: Sequence[float]
) -> tuple[float, float, float, float]:
    """Aggregate per-constraint constants into (B_bar_c, L_bar, rho_c, L_c).

    B_bar_c = sqrt(sum B_i^2), L_bar = sqrt(sum L_i^2),
    rho_c = sum B_i rho_i,     L_c = sum (B_i L_i + B_i^2).
    """
    B = np.asarray(B_i, dtype=float)
    L = np.asarray(L_i, dtype=float)
    r = np.asarray(rho_i, dtype=float)
    if not (B.shape == L.shape == r.shape) or B.ndim != 1:
        raise DimensionMismatch("B_i, L_i, rho_i must be equal-length 1-D sequences")
    if B.size and (np.any(B < 0) or np.any(L < 0) or np.any(r < 0)):
        raise ValueError("per-constraint constants must be nonnegative")
    if B.size == 0:
        return (0.0, 0.0, 0.0, 0.0)
    B_bar = float(np.sqrt(np.sum(B**2)))
    L_bar = float(np.sqrt(np.sum(L**2)))
    rho_c = float(np.sum(B * r))
    L_c = float(np.sum(B * L + B**2))
    return (B_bar, L_bar, rho_c, L_c)


@dataclass(frozen=True)
class ConstantsLedger:
    """Bounds over dom(h) that drive curvature schedules and diagnostics.

    B0 bounds both |g(x)+h(x)| and ||grad g(x)||; B_c bounds the Jacobian
    norm of c; B_i bounds both |c_i| and ||grad c_i|| per constraint.  Upper
    bounds are acceptable everywhere.
    """

    B0: float
    B_c: float
    B_i: np.ndarray
    B_bar_c: float
    L_bar: float
    rho_c: float
    L_c: float
    D: float

    def __post_init__(self):
        for name in ("B0", "B_c", "B_bar_c", "L_bar", "rho_c", "L_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        object.__setattr__(self, "B_i", np.asarray(self.B_i, dtype=float))
        ssq = float(np.sum(self.B_i**2))
        if abs(self.B_bar_c**2 - ssq) > 1e-12 * max(1.0, ssq):
            raise ValueError("B_bar_c^2 must equal sum of B_i^2")

    @classmethod
    def from_components(
        cls,
        B0: float,
        B_c: float,
        B_i: Sequence[float],
        L_i: Sequence[float],
        rho_i: Sequence[float],
        D: float,
    ) -> "ConstantsLedger":
        B_bar, L_bar, rho_c, L_c = aggregate_constants(B_i, L_i, rho_i)
        return cls(
            B0=float(B0),
            B_c=float(B_c),
            B_i=np.asarray(B_i, dtype=float),
            B_bar_c=B_bar,
            L_bar=L_bar,
            rho_c=rho_c,
            L_c=L_c,
            D=float(D),
        )


# Signature: (beta, ||y||) -> (rho_hat, L_hat) for the smooth AL part.
CurvatureSchedule = Callable[[float, float], tuple[float, float]]


@dataclass
class ProblemSpec:
    """One problem instance: oracles, constants, and a starting point.

    A problem needs only its oracles.  ``smooth.L`` is where the first
    subproblem's curvature estimate starts (later ones start where the
    previous one ended).  ``default_curvature``, when set by a generator,
    supplies an instance-exact or tuned (rho_hat, L_hat) schedule used in
    place of the ledger's weak-convexity formula; both values only cap the
    solver's adaptive estimates, and the bundled schedules return
    L_hat = inf (no cap).  With neither a schedule nor ``constants``, both
    caps are inf.  A solve runs on ``for_solve()``, so its #Grad starts at
    0 and concurrent solves of one ProblemSpec count apart.
    """

    smooth: SmoothOracle
    nonsmooth: ProxCapableFunction
    constraints: ConstraintOracle
    constants: Optional[ConstantsLedger]
    x0: np.ndarray
    default_curvature: Optional[CurvatureSchedule] = None

    def __post_init__(self):
        self.x0 = as_vector(self.x0, name="x0")
        if not math.isfinite(self.nonsmooth.value(self.x0)):
            raise ValueError("x0 lies outside the domain of the nonsmooth term")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def for_solve(self):
        """Shallow copy whose smooth oracle shares the callables and counts
        #Grad from 0."""
        g = self.smooth
        fresh = SmoothOracle(g._value_fn, g._gradient_fn, g.L, g.rho)
        return dataclasses.replace(self, smooth=fresh)


@dataclass(frozen=True)
class KktResidual:
    """Residuals of the approximate KKT certificate.

    ``pres`` is the primal residual: ||c(x)|| for equality constraints, and
    sqrt(||Ax-b||^2 + ||[f(x)]_+||^2) for the hinge block, which also sets
    its two parts ``pres_eq`` and ``pres_ineq`` (None otherwise) and the
    complementarity residual ``compl`` = sum_i |z_i f_i(x)| (0 for
    equality constraints, which have none).  ``dres_is_upper_bound`` is set
    when the dual residual was obtained from a certified surrogate rather
    than an exact subdifferential distance.
    """

    pres: float
    dres: float
    compl: float = 0.0
    dres_is_upper_bound: bool = False
    pres_eq: Optional[float] = None
    pres_ineq: Optional[float] = None

    def __post_init__(self):
        for name in ("pres", "dres", "compl", "pres_eq", "pres_ineq"):
            val = getattr(self, name)
            if val is None:
                continue
            if not math.isfinite(val):
                raise NonFiniteValue(f"KKT residual {name} must be finite")
            if val < 0:
                raise ValueError(f"KKT residual {name} must be nonnegative")


def _check_al_inputs(x: Array, y: Array, beta: float, problem: ProblemSpec):
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.constraints.n_constraints, "y")
    if beta <= 0:
        raise ValueError("penalty parameter beta must be positive")
    return x, y


def _al_smooth_part_gradient(x: Array, y: Array, beta: float, problem: ProblemSpec) -> Array:
    """The smooth AL gradient at validated (x, y, beta); each user callable
    is called once, through its output-checked private oracle method."""
    c = problem.constraints._evaluate(x)
    return problem.smooth._gradient(x) + problem.constraints._jac_t(x, y + beta * c)


def al_value(x: Array, y: Array, beta: float, problem: ProblemSpec) -> float:
    """Augmented Lagrangian g(x) + h(x) + y'c(x) + (beta/2)||c(x)||^2."""
    x, y = _check_al_inputs(x, y, beta, problem)
    c = problem.constraints._evaluate(x)
    val = (
        problem.smooth._value(x)
        + float(y @ c)
        + 0.5 * beta * float(c @ c)
        + problem.nonsmooth.value(x)
    )
    if not math.isfinite(val):
        raise NonFiniteValue("augmented Lagrangian value overflowed")
    return val


def al_gradient_smooth(x: Array, y: Array, beta: float, problem: ProblemSpec) -> Array:
    """Gradient of the smooth AL part: grad g(x) + J_c(x)' (y + beta c(x))."""
    x, y = _check_al_inputs(x, y, beta, problem)
    return _al_smooth_part_gradient(x, y, beta, problem)


def al_weak_convexity(beta: float, y_norm: float, constants: ConstantsLedger, rho0: float) -> float:
    """Weak convexity of the smooth AL part from the ledger:
    rho_hat = rho0 + L_bar ||y|| + beta rho_c."""
    if beta <= 0 or y_norm < 0 or rho0 < 0:
        raise ValueError(f"need beta > 0 and y_norm, rho0 >= 0, got {beta=}, {y_norm=}, {rho0=}")
    return rho0 + constants.L_bar * y_norm + beta * constants.rho_c


def dual_residual(
    x: Array,
    v: Array,
    lagrangian_gradient: Callable[[Array], Array],
    h: ProxCapableFunction,
    L: float,
) -> tuple[float, bool]:
    """dist(0, v + subdiff h(x)) for v = lagrangian_gradient(x), and whether
    the value is a certified upper bound rather than exact.

    Uses h's exact subdifferential distance when available.  Otherwise it
    bounds the distance by ||v|| for cone-subdifferential terms (zero always
    belongs to a cone), or by the one-step prox surrogate for general terms,
    which certifies the prox-forward point of x with step 1/max(L, 1) and is
    the only case that calls ``lagrangian_gradient``.
    """
    exact = h.subdiff_distance(x, -v)
    if exact is not None:
        return exact, False
    if h.cone_subdiff:
        return float(np.linalg.norm(v)), True
    L = max(L, 1.0)
    x_fwd = h.prox(x - v / L, 1.0 / L)
    return float(np.linalg.norm(lagrangian_gradient(x_fwd) - v + L * (x - x_fwd))), True


def _equality_kkt(x: Array, y: Array, problem: ProblemSpec, c: Array, g: Array) -> KktResidual:
    """``kkt_residual`` at validated (x, y), given c(x) and grad g(x)."""
    J_t = problem.constraints.jacobian_transpose_apply
    dres, flagged = dual_residual(
        x,
        g + J_t(x, y),
        lambda u: problem.smooth.gradient(u) + J_t(u, y),
        problem.nonsmooth,
        problem.smooth.L,
    )
    return KktResidual(pres=float(np.linalg.norm(c)), dres=dres, dres_is_upper_bound=flagged)


def kkt_residual(x: Array, y: Array, problem: ProblemSpec) -> KktResidual:
    """Measure the KKT residual pair (||c(x)||, dist(0, subdiff f0(x) + J_c(x)'y)),
    with the dual distance measured by ``dual_residual``."""
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.constraints.n_constraints, "y")
    return _equality_kkt(x, y, problem, problem.constraints.evaluate(x), problem.smooth.gradient(x))
