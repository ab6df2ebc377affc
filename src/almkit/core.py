"""Core abstractions for equality-constrained composite minimization.

Problems have the form

    minimize  g(x) + h(x)   subject to  c(x) = 0,

where g is smooth (possibly nonconvex), h is closed convex and prox-capable,
and c is a smooth vector map.  This module provides the oracle types, the
constants ledger the diagnostics read, augmented-Lagrangian evaluation, and
KKT residual measurement.

All vectors are dense float64.  Validation happens at three places only,
so oracle bugs fail fast without re-checking what the solver computed
itself:

* entry points (the public oracle methods, ``al_*``, ``kkt_residual``, and
  the solver entry points) check shape and finiteness of their inputs; the
  inner solvers (``ippm_solve``, ``apg_solve``) take plain gradient
  callables and check only their start point;
* every call into a user callable checks its output, through the oracle's
  private method (``SmoothOracle._gradient``, ``ConstraintOracle._evaluate``,
  ``ProxCapableFunction._prox``, ...), which the public method wraps after
  ``as_vector`` and which the solver's hot path calls directly;
* affine rows held as data (``ConstraintOracle.affine`` and the hinge
  problem's ``A``, ``b``) are checked when the oracle or problem is built;
  ``IneqProblemSpec.for_solve`` builds a copy, which checks them again.
  Their products in the AL gradient are computed by the solver and not
  re-checked.

Each subproblem's smooth AL gradient is one closure, built once per
subproblem for its fixed multipliers and beta: the smooth gradient through
``SmoothOracle._gradient``, affine rows straight from their data, and
callback rows through their checked private methods.

A vector's finiteness is checked through one dot product (``all_finite``):
a NaN or Inf entry makes a'a NaN or Inf, so a finite a'a proves every entry
finite, and only a non-finite one falls back to ``np.isfinite(a).all()``,
which tells an overflowing a'a of finite entries (accepted; numpy warns of
the overflow) from a NaN or Inf entry (rejected).  The accepted and
rejected vectors, and the messages, are those of the entrywise check.

The one remaining guard inside the inner loops is APG's finiteness check on
its stationarity measure, which catches a NaN iterate that reached a
gradient that ignores its input, and a NaN or Inf that the affine products
made.  NaN therefore still fails fast: at the gradient's output check, or
at APG's stationarity check.

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
    """Smooth vector map c with matrix-free Jacobian-transpose products.

    ``affine_data`` is ``(A, b)`` for an oracle built by ``affine``, whose
    rows the solver reads as data, and None for callback rows.
    """

    affine_data: Optional[tuple[Array, Array]] = None

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
    def affine(
        A: Array, b: Array, component_bounds: Optional[Sequence[float]] = None
    ) -> "ConstraintOracle":
        """Oracle for c(x) = A x - b whose rows are kept as data.

        ``A`` and ``b`` are checked once, here; the solver's AL gradient
        then computes A'(y + beta (Ax - b)) from them without callbacks.
        ``jacobian_norm_bound`` is ||A||_2; per-row bounds are the caller's.
        """
        A, b = _affine_rows(A, b)
        m = A.shape[0]
        oracle = ConstraintOracle(
            evaluate_fn=lambda x: A @ x - b,
            jacobian_t_apply_fn=lambda x, v: A.T @ v,
            n_constraints=m,
            component_smoothness=np.zeros(m),
            component_weak_convexity=np.zeros(m),
            component_bounds=component_bounds,
            jacobian_norm_bound=float(np.linalg.norm(A, 2)) if A.size else 0.0,
        )
        oracle.affine_data = (A, b)
        return oracle


def _affine_rows(A: Array, b: Array) -> tuple[Array, Array]:
    """``A`` and ``b`` as float64 arrays with consistent shapes and finite
    entries: the one check of affine rows held as data."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise DimensionMismatch("affine constraint shapes inconsistent")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise NonFiniteValue("affine constraint data contains NaN or Inf")
    return A, b


@dataclass(frozen=True)
class ConstantsLedger:
    """Bounds over dom(h) that the diagnostics read.

    B0 bounds both |g(x)+h(x)| and ||grad g(x)||; B_c bounds the Jacobian
    norm of c; B_i bounds both |c_i| and ||grad c_i|| per constraint; D is
    the diameter of dom(h).  Upper bounds are acceptable everywhere.
    """

    B0: float
    B_c: float
    B_i: np.ndarray
    D: float

    def __post_init__(self):
        for name in ("B0", "B_c"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        object.__setattr__(self, "B_i", np.asarray(self.B_i, dtype=float))


# Signature: (beta, ||y||) -> (rho_hat, L_hat), caps on the smooth AL part's
# measured weak convexity and curvature.
CurvatureSchedule = Callable[[float, float], tuple[float, float]]


@dataclass
class ProblemSpec:
    """One problem instance: oracles, constants, and a starting point.

    A problem needs only its oracles; ``constants`` serves the
    diagnostics.  ``smooth.L`` is where the first subproblem's curvature
    estimate starts (later ones start where the previous one ended).  A
    solve runs on ``for_solve()``, so its #Grad starts at 0 and concurrent
    solves of one ProblemSpec count apart.
    """

    smooth: SmoothOracle
    nonsmooth: ProxCapableFunction
    constraints: ConstraintOracle
    constants: Optional[ConstantsLedger]
    x0: np.ndarray

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


def _equality_gradient(problem: ProblemSpec, y: Array, beta: float) -> Callable[[Array], Array]:
    """The equality block's smooth AL gradient at fixed (y, beta):
    x -> grad g(x) + J_c(x)'(y + beta c(x)), one closure per subproblem.

    The smooth gradient goes through ``SmoothOracle._gradient``, the one
    #Grad counter, once per call.  Rows of ``ConstraintOracle.affine`` are
    read from their data, and their products are not re-checked; callback
    rows go through their output-checked private methods.
    """
    if problem.constraints.affine_data is None:
        return _callback_rows_gradient(problem.smooth, problem.constraints, y, beta)
    A, b = problem.constraints.affine_data
    return _affine_rows_gradient(problem.smooth, A, b, y, beta)


def _affine_rows_gradient(
    smooth: SmoothOracle, A: Array, b: Array, y: Array, beta: float
) -> Callable[[Array], Array]:
    """x -> grad g(x) + A'(y + beta (Ax - b)), affine rows as data."""
    grad, At = smooth._gradient, A.T

    def kernel(x: Array) -> Array:
        return grad(x) + At @ (y + beta * (A @ x - b))

    return kernel


def _callback_rows_gradient(
    smooth: SmoothOracle, constraints: ConstraintOracle, y: Array, beta: float
) -> Callable[[Array], Array]:
    """x -> grad g(x) + J_c(x)'(y + beta c(x)), rows through callbacks."""
    grad, evaluate, jac_t = smooth._gradient, constraints._evaluate, constraints._jac_t

    def kernel(x: Array) -> Array:
        c = evaluate(x)
        return grad(x) + jac_t(x, y + beta * c)

    return kernel


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
    return _equality_gradient(problem, y, beta)(x)


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
