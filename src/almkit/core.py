"""Core abstractions for equality-constrained composite minimization.

Problems have the form

    minimize  g(x) + h(x)   subject to  c(x) = 0,

where g is smooth (possibly nonconvex), h is closed convex and prox-capable,
and c is a smooth vector map.  This module provides the oracle types, the
constants ledger used to derive curvature parameters of the augmented
Lagrangian, augmented-Lagrangian evaluation, and KKT residual measurement.

All vectors are dense float64.  NaN/Inf inputs are rejected at the module
boundary so oracle bugs fail fast instead of corrupting a solve.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


class DimensionMismatch(ValueError):
    """Vector shapes disagree with the problem dimensions."""


class NonFiniteValue(ValueError):
    """An oracle produced, or was handed, NaN or Inf."""


def as_vector(x, n: Optional[int] = None, name: str = "x") -> Array:
    """Validate and return ``x`` as a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return v


@dataclass
class EvalCounters:
    """Cumulative oracle call counts.

    The counters of a problem's smooth oracle back the reported #Obj/#Grad
    columns: every call into the smooth gradient counts once, whether it
    serves an augmented Lagrangian gradient or a KKT certificate.
    """

    obj: int = 0
    grad: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.obj, self.grad)


class SmoothOracle:
    """Differentiable function with known smoothness and weak convexity.

    Parameters
    ----------
    value_fn, gradient_fn:
        Callables evaluating the function and its gradient.
    smoothness:
        Gradient Lipschitz constant L (an upper bound is fine).
    weak_convexity:
        Constant rho >= 0 such that the function plus (rho/2)||.||^2 is convex.
    """

    def __init__(
        self,
        value_fn: Callable[[Array], float],
        gradient_fn: Callable[[Array], Array],
        smoothness: float,
        weak_convexity: float = 0.0,
        counters: Optional[EvalCounters] = None,
    ):
        if smoothness < 0 or weak_convexity < 0:
            raise ValueError("smoothness and weak convexity must be nonnegative")
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.L = float(smoothness)
        self.rho = float(weak_convexity)
        self.counters = counters if counters is not None else EvalCounters()

    def value(self, x: Array) -> float:
        x = as_vector(x)
        self.counters.obj += 1
        v = float(self._value_fn(x))
        if not math.isfinite(v):
            raise NonFiniteValue("smooth oracle value overflowed")
        return v

    def gradient(self, x: Array) -> Array:
        x = as_vector(x)
        self.counters.grad += 1
        g = np.asarray(self._gradient_fn(x), dtype=float)
        if g.shape != x.shape:
            raise DimensionMismatch(
                f"gradient has shape {g.shape}, expected {x.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NonFiniteValue("smooth oracle gradient overflowed")
        return g

    def with_counters(self, counters: EvalCounters) -> "SmoothOracle":
        """Copy sharing the underlying callables but owning fresh counters."""
        return SmoothOracle(self._value_fn, self._gradient_fn, self.L, self.rho, counters)


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
        v = as_vector(v)
        out = np.asarray(self._prox_fn(v, float(step)), dtype=float)
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
        d = float(self._subdiff_fn(as_vector(x), as_vector(v)))
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
        x = as_vector(x)
        c = np.atleast_1d(np.asarray(self._evaluate_fn(x), dtype=float))
        if c.shape != (self.n_constraints,):
            raise DimensionMismatch(
                f"constraint value has shape {c.shape}, expected ({self.n_constraints},)"
            )
        if not np.all(np.isfinite(c)):
            raise NonFiniteValue("constraint oracle overflowed")
        return c

    def jacobian_transpose_apply(self, x: Array, v: Array) -> Array:
        x = as_vector(x)
        v = as_vector(v, self.n_constraints, "v")
        out = np.asarray(self._jac_t_fn(x, v), dtype=float)
        if out.shape != x.shape:
            raise DimensionMismatch("Jacobian-transpose product dimension mismatch")
        if not np.all(np.isfinite(out)):
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

    ``default_curvature``, when set by a generator, supplies instance-exact
    or tuned (rho_hat, L_hat) schedules used in place of the generic ledger
    formula.  ``counters`` are the solve-level #Obj/#Grad counts; share a
    ProblemSpec across concurrent solves only through ``with_fresh_counters``.
    """

    smooth: SmoothOracle
    nonsmooth: ProxCapableFunction
    constraints: ConstraintOracle
    constants: Optional[ConstantsLedger]
    x0: np.ndarray
    default_curvature: Optional[CurvatureSchedule] = None
    counters: EvalCounters = field(default_factory=EvalCounters)

    def __post_init__(self):
        self.x0 = as_vector(self.x0, name="x0")
        if not math.isfinite(self.nonsmooth.value(self.x0)):
            raise ValueError("x0 lies outside the domain of the nonsmooth term")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def with_fresh_counters(self):
        """Shallow copy owning new counters (for one solve instance)."""
        return dataclasses.replace(
            self, smooth=self.smooth.with_counters(EvalCounters()), counters=EvalCounters()
        )


@dataclass(frozen=True)
class KktResidual:
    """Primal/dual residual pair of the approximate KKT certificate.

    ``dres_is_upper_bound`` is set when the dual residual was obtained from a
    certified surrogate rather than an exact subdifferential distance.
    """

    pres: float
    dres: float
    dres_is_upper_bound: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.pres) and math.isfinite(self.dres)):
            raise NonFiniteValue("KKT residuals must be finite")
        if self.pres < 0 or self.dres < 0:
            raise ValueError("KKT residuals must be nonnegative")

    @property
    def compl(self) -> float:
        """Complementarity residual; equality constraints have none."""
        return 0.0


def _check_al_inputs(x: Array, y: Array, beta: float, problem: ProblemSpec):
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.constraints.n_constraints, "y")
    if beta <= 0:
        raise ValueError("penalty parameter beta must be positive")
    return x, y


def _al_smooth_part_value(x: Array, y: Array, beta: float, problem: ProblemSpec) -> float:
    c = problem.constraints.evaluate(x)
    val = problem.smooth.value(x) + float(y @ c) + 0.5 * beta * float(c @ c)
    return val


def _al_smooth_part_gradient(x: Array, y: Array, beta: float, problem: ProblemSpec) -> Array:
    c = problem.constraints.evaluate(x)
    return problem.smooth.gradient(x) + problem.constraints.jacobian_transpose_apply(
        x, y + beta * c
    )


def al_value(x: Array, y: Array, beta: float, problem: ProblemSpec) -> float:
    """Augmented Lagrangian g(x) + h(x) + y'c(x) + (beta/2)||c(x)||^2."""
    x, y = _check_al_inputs(x, y, beta, problem)
    problem.counters.obj += 1
    val = _al_smooth_part_value(x, y, beta, problem) + problem.nonsmooth.value(x)
    if not math.isfinite(val):
        raise NonFiniteValue("augmented Lagrangian value overflowed")
    return val


def al_gradient_smooth(x: Array, y: Array, beta: float, problem: ProblemSpec) -> Array:
    """Gradient of the smooth AL part: grad g(x) + J_c(x)' (y + beta c(x))."""
    x, y = _check_al_inputs(x, y, beta, problem)
    problem.counters.grad += 1
    return _al_smooth_part_gradient(x, y, beta, problem)


def al_smooth_oracle(
    problem: ProblemSpec,
    y: Array,
    beta: float,
    smoothness: float,
    weak_convexity: float,
) -> SmoothOracle:
    """The smooth AL part as a SmoothOracle for a fixed (y, beta).

    Each of its gradients makes one call into ``problem.smooth``, which is
    where #Grad is counted.
    """
    y = as_vector(y, problem.constraints.n_constraints, "y")
    if beta <= 0:
        raise ValueError("penalty parameter beta must be positive")
    return SmoothOracle(
        value_fn=lambda x: _al_smooth_part_value(x, y, beta, problem),
        gradient_fn=lambda x: _al_smooth_part_gradient(x, y, beta, problem),
        smoothness=smoothness,
        weak_convexity=weak_convexity,
    )


def al_curvature_params(
    beta: float,
    y_norm: float,
    constants: ConstantsLedger,
    L0: float,
    rho0: float,
) -> tuple[float, float]:
    """Weak convexity and smoothness of the smooth AL part from the ledger.

    rho_hat = rho0 + L_bar ||y|| + beta rho_c
    L_hat   = L0   + L_bar ||y|| + beta L_c
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if y_norm < 0 or L0 < 0 or rho0 < 0:
        raise ValueError("y_norm, L0, rho0 must be nonnegative")
    rho_hat = rho0 + constants.L_bar * y_norm + beta * constants.rho_c
    L_hat = L0 + constants.L_bar * y_norm + beta * constants.L_c
    return (rho_hat, L_hat)


def dual_residual(
    x: Array, lagrangian_gradient: Callable[[Array], Array], h: ProxCapableFunction, L: float
) -> tuple[float, bool]:
    """dist(0, v + subdiff h(x)) for v = lagrangian_gradient(x), and whether
    the value is a certified upper bound rather than exact.

    Uses h's exact subdifferential distance when available.  Otherwise it
    bounds the distance by ||v|| for cone-subdifferential terms (zero always
    belongs to a cone), or by the one-step prox surrogate for general terms,
    which certifies the prox-forward point of x with step 1/max(L, 1).
    """
    v = lagrangian_gradient(x)
    exact = h.subdiff_distance(x, -v)
    if exact is not None:
        return exact, False
    if h.cone_subdiff:
        return float(np.linalg.norm(v)), True
    L = max(L, 1.0)
    x_fwd = h.prox(x - v / L, 1.0 / L)
    return float(np.linalg.norm(lagrangian_gradient(x_fwd) - v + L * (x - x_fwd))), True


def kkt_residual(x: Array, y: Array, problem: ProblemSpec) -> KktResidual:
    """Measure the KKT residual pair (||c(x)||, dist(0, subdiff f0(x) + J_c(x)'y)),
    with the dual distance measured by ``dual_residual``."""
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.constraints.n_constraints, "y")
    c = problem.constraints.evaluate(x)
    dres, flagged = dual_residual(
        x,
        lambda u: problem.smooth.gradient(u) + problem.constraints.jacobian_transpose_apply(u, y),
        problem.nonsmooth,
        problem.smooth.L,
    )
    return KktResidual(pres=float(np.linalg.norm(c)), dres=dres, dres_is_upper_bound=flagged)
