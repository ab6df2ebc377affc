"""Core abstractions for constrained composite minimization.

Problems have the form

    minimize  g(x) + h(x)   subject to  c(x) = 0,  f(x) <= 0,

where g is smooth (possibly nonconvex), h is closed convex and prox-capable,
c is a smooth vector map and each f_i is smooth and convex; the inequality
rows are optional.  One ``ProblemSpec`` holds both row blocks, and one
augmented Lagrangian, the Powell-Hestenes-Rockafellar form

    L_beta(x; y, z) = g(x) + h(x) + y'c(x) + (beta/2)||c(x)||^2
                      + (||[z + beta f(x)]_+||^2 - ||z||^2) / (2 beta),

serves every problem (the hinge term only with inequality rows; it keeps
the smooth part continuously differentiable, which is all the inner solver
needs).  This module provides the oracle types, the constants ledger the
diagnostics read, augmented-Lagrangian evaluation, and KKT residual
measurement.

Every h gives the exact distance to its subdifferential
(``ProxCapableFunction`` requires ``subdiff_distance``), so a stationarity
certificate has one rule in every layer: APG's and iPPM's measure h's exact
distance at the point they return, and a KKT certificate's dual residual is
dist(0, grad g(x) + J_f(x)'z + J_c(x)'y + subdiff h(x)) at the point
measured, never a bound on it.

All vectors are dense float64.  Inputs are checked at the entry points
(the public oracle methods, ``al_*``, ``kkt_residual``, and the solver
entry points: shape and finiteness); the inner solvers (``ippm_solve``,
``apg_solve``) take plain gradient callables and check only their start
point.  Past an entry point, every call into a user callable checks its
output through the oracle's private method (``SmoothOracle._gradient``,
``ConstraintOracle._linearize``, ``ProxCapableFunction._prox``,
``ProxCapableFunction._subdiff``), which the public method wraps after
``as_vector`` and which the AL gradient and the KKT certificates call
directly, on points they have validated once.

Membership in dom h is checked once, where a point enters from outside:
the problem's ``x0``, the inner solvers' start point, the public
``subdiff_distance``, the KKT certificates, ``al_value`` and the
regularity diagnostics call ``ProxCapableFunction._check_domain``, which
reads h's value oracle (+inf off the domain).  The built-in distance
kernels trust it: inside the solvers they see only such points and the
output of their own prox, which is finite whenever its input is.

Constraint rows have three constructors feeding one reader path.  Each
``ConstraintOracle`` holds one callback x -> (c(x), v -> J(x)'v):

* ``ConstraintOracle.affine(A, b)`` builds it from rows kept as data;
* ``ConstraintOracle.linearized(fn)`` stores ``fn``, which keeps what c and
  J(x)' share (EV's ``B @ x``) so it is computed once;
* ``ConstraintOracle(evaluate_fn, jacobian_t_apply_fn)`` pairs its two
  callbacks.

Every reader of either row block goes through ``ConstraintOracle._linearize``
once per point, reusing the product for every multiplier at that point: the
AL gradient, the certificate, ``al_value``, the regularity diagnostics and
the slack reformulation.  Affine rows are trusted data: ``A`` and ``b`` are
checked once, when the oracle is built, and their ``_linearize`` is the data
kernel x -> (A x - b, v -> A'v), whose outputs are not re-checked.  For
callback rows ``_linearize`` checks c(x) and each product.

A vector's finiteness is checked through one dot product (``all_finite``):
a NaN or Inf entry makes a'a NaN or Inf, so a finite a'a proves every entry
finite, and only a non-finite one falls back to ``np.isfinite(a).all()``,
which tells an overflowing a'a of finite entries (accepted; numpy warns of
the overflow) from a NaN or Inf entry (rejected).  The accepted and
rejected vectors, and the messages, are those of the entrywise check.

The one remaining guard inside the inner loops is the subdifferential
distance's output check (``ProxCapableFunction._subdiff``), which APG's
certificate runs at every iterate: it catches a NaN or Inf that the affine
kernel made, and a NaN iterate that reached a gradient that ignores its
input, wherever h's distance reads that iterate.  NaN therefore still fails
fast: at the gradient's output check or at the distance's.  Where neither
reads it, APG's one finiteness check on the iterate it returns converged
refuses to certify it.

#Grad, the paper's complexity measure, counts calls, at one point:
``SmoothOracle.grad_evals``, which every call into the smooth gradient
callable increments.  Each solve runs on a copy of the problem whose count
starts at 0 (``ProblemSpec.for_solve``) and whose ``_gradient`` hands back
the checked gradient it holds when given the very array it last evaluated.
So the certificate at x_{k+1} and the next subproblem's start reuse the
gradient of APG's last iterate, and iPPM reuses a failed APG call's first
gradient when its redo evaluates the same point first (see
``almkit.ippm``): a solve calls the gradient once per point.  An APG step
that does not move keeps its start point and that point's gradient, and a
rejected step's retry that lands where the rejected step did keeps that
step's point and gradient (``almkit.apg``).  The user's problem, the public
``SmoothOracle.gradient`` and ``kkt_residual`` call the gradient every
time.  Objective values are not counted; the solvers evaluate none.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
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


def check_iteration_limits(*limits) -> None:
    """Raise ValueError unless every limit is an integer of at least 1."""
    if not all(isinstance(n, numbers.Integral) and n >= 1 for n in limits):
        raise ValueError(f"iteration limits must be positive integers, got {limits}")


class SmoothOracle:
    """Differentiable function with a known smoothness constant.

    Parameters
    ----------
    value_fn, gradient_fn:
        Callables evaluating the function and its gradient.
    smoothness:
        Gradient Lipschitz constant L (an estimate is fine).  ``L`` is the
        one constant the solver reads: the first subproblem's APG starts
        its adaptive curvature estimate there.  The solver takes no weak
        convexity constant: iPPM measures it.

    ``grad_evals`` is the #Grad count, the only one in the package: every
    call into the gradient callable adds one, whether it serves an
    augmented Lagrangian gradient or a KKT certificate.  A solve's copy
    (``_SolveOracle``) reuses the gradient of the array it last evaluated;
    ``gradient`` always calls.  Values are not counted.
    """

    def __init__(
        self,
        value_fn: Callable[[Array], float],
        gradient_fn: Callable[[Array], Array],
        smoothness: float,
    ):
        # Written so that NaN fails.
        if not smoothness >= 0:
            raise ValueError("smoothness must be nonnegative")
        self._value_fn = value_fn
        self._gradient_fn = gradient_fn
        self.L = float(smoothness)
        self.grad_evals = 0

    def value(self, x: Array) -> float:
        return self._value(as_vector(x))

    def _value(self, x: Array) -> float:
        v = float(self._value_fn(x))
        if not math.isfinite(v):
            raise NonFiniteValue("smooth oracle value overflowed")
        return v

    def gradient(self, x: Array) -> Array:
        # The class's checked method, which a solve's copy does not replace:
        # a public call always calls, so ``x`` may change between two calls.
        return SmoothOracle._gradient(self, as_vector(x))

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


class _SolveOracle(SmoothOracle):
    """A solve's smooth oracle (``ProblemSpec.for_solve``): ``_gradient``
    returns the checked gradient it holds when handed the very array it
    last evaluated.  The solvers never change an array in place, so the
    identity proves the point; the public ``gradient`` always calls."""

    _last: tuple = (None, None)

    def _gradient(self, x: Array) -> Array:
        last_x, last_g = self._last
        if x is last_x:
            return last_g
        g = SmoothOracle._gradient(self, x)
        self._last = (x, g)
        return g


class ProxCapableFunction:
    """Closed convex function accessed through its proximal map.

    ``prox(v, step)`` returns ``argmin_u h(u) + ||u - v||^2 / (2 step)``.
    ``subdiff_distance(x, v)`` returns the exact Euclidean distance from
    ``v`` to the subdifferential of h at ``x``: every stationarity
    certificate, APG's, iPPM's and the KKT certificate's, measures it.  The
    constructor raises TypeError naming ``prox_fn``, ``value_fn`` or
    ``subdiff_distance_fn`` when that argument is not callable.
    ``cone_subdiff`` marks functions whose subdifferential is a cone at
    every point (indicators and the zero function), which makes it
    invariant to positive rescaling.
    """

    def __init__(
        self,
        prox_fn: Callable[[Array, float], Array],
        value_fn: Callable[[Array], float],
        subdiff_distance_fn: Callable[[Array, Array], float],
        diameter: float = math.inf,
        cone_subdiff: bool = False,
    ):
        fns = {"prox_fn": prox_fn, "value_fn": value_fn, "subdiff_distance_fn": subdiff_distance_fn}
        for name, fn in fns.items():
            if not callable(fn):
                raise TypeError(f"{name} must be callable")
        self._prox_fn = prox_fn
        self._value_fn = value_fn
        self._subdiff_fn = subdiff_distance_fn
        self.diameter = float(diameter)
        self.cone_subdiff = bool(cone_subdiff)
        # Written so that NaN fails.
        if not self.diameter > 0:
            raise ValueError("diameter must be positive (use inf for unbounded domains)")

    def prox(self, v: Array, step: float) -> Array:
        # Written so that NaN fails.
        if not step > 0:
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

    def subdiff_distance(self, x: Array, v: Array) -> float:
        """Exact dist(v, subdiff h(x)); raises ValueError when x lies outside
        dom h."""
        x = as_vector(x)
        v = as_vector(v, x.shape[0], "v")
        self._check_domain(x)
        return self._subdiff(x, v)

    def _check_domain(self, x: Array, name: str = "x") -> float:
        """h(x), after raising ValueError unless the validated ``x`` lies in
        dom h, where the value oracle is finite: the one domain check, made
        where a point enters from outside."""
        v = float(self._value_fn(x))
        if not math.isfinite(v):
            raise ValueError(f"{name} lies outside the domain of the nonsmooth term")
        return v

    def _subdiff(self, x: Array, v: Array) -> float:
        d = float(self._subdiff_fn(x, v))
        if d < 0 or not math.isfinite(d):
            raise NonFiniteValue("subdifferential distance must be finite and nonnegative")
        return d


# Signature: x -> (c(x), v -> J(x)'v), one linearization of constraint rows.
Linearization = Callable[[Array], tuple[Array, Callable[[Array], Array]]]


class ConstraintOracle:
    """Smooth vector map c with matrix-free Jacobian-transpose products.

    The oracle holds one callback x -> (c(x), v -> J(x)'v), which each of
    its three constructors builds from its input: two callbacks
    (``evaluate_fn`` and ``jacobian_t_apply_fn``, this constructor), one
    linearizing callback (``linearized``) or rows as data (``affine``).
    ``_linearize`` checks every output of a callback; an oracle built by
    ``affine`` trusts its data instead.  ``affine_data`` is ``(A, b)`` for
    such an oracle, which ``ProblemSpec`` reads to check the column count,
    and None for callback rows.

    The per-row constants this constructor takes (``component_*`` and
    ``jacobian_norm_bound``) are validated and recorded; no code in this
    package reads them.
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
        self._linearize_fn = lambda x: (evaluate_fn(x), functools.partial(jacobian_t_apply_fn, x))
        self.n_constraints = int(n_constraints)
        if self.n_constraints < 0:
            raise ValueError("constraint count must be nonnegative")

        def _opt(arr):
            if arr is None:
                return None
            a = np.asarray(arr, dtype=float)
            if a.shape != (self.n_constraints,):
                raise DimensionMismatch("per-constraint constant length mismatch")
            # Written so that NaN fails.
            if not np.all(a >= 0):
                raise ValueError("per-constraint constants must be nonnegative")
            return a

        self.component_smoothness = _opt(component_smoothness)
        self.component_weak_convexity = _opt(component_weak_convexity)
        self.component_bounds = _opt(component_bounds)
        self.jacobian_norm_bound = (
            None if jacobian_norm_bound is None else float(jacobian_norm_bound)
        )
        # Written so that NaN fails.
        if self.jacobian_norm_bound is not None and not self.jacobian_norm_bound >= 0:
            raise ValueError("Jacobian norm bound must be nonnegative")

    def evaluate(self, x: Array) -> Array:
        # The class's checked method, which ``affine`` does not replace: the
        # public c(x) is checked for affine rows too.
        return ConstraintOracle._linearize(self, as_vector(x))[0]

    def jacobian_transpose_apply(self, x: Array, v: Array) -> Array:
        """J(x)'v; only the product is checked, not the c(x) the callback
        returns alongside it."""
        x = as_vector(x)
        v = as_vector(v, self.n_constraints, "v")
        return _checked_product(self._linearize_fn(x)[1](v), x)

    def _linearize(self, x: Array) -> tuple[Array, Callable[[Array], Array]]:
        """(c(x), v -> J(x)'v) at the validated ``x``, from one callback
        call, with c(x) checked now and each product when it is taken: the
        one entry to the rows for the solver, the certificates and the
        diagnostics.  An oracle built by ``affine`` replaces it with its
        data kernel, which is not checked."""
        c, jt = self._linearize_fn(x)
        c = np.asarray(c, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1)
        if c.shape != (self.n_constraints,):
            raise DimensionMismatch(
                f"constraint value has shape {c.shape}, expected ({self.n_constraints},)"
            )
        if not all_finite(c):
            raise NonFiniteValue("constraint oracle overflowed")
        return c, lambda v: _checked_product(jt(v), x)

    @staticmethod
    def linearized(linearize_fn: Linearization, n_constraints: int) -> "ConstraintOracle":
        """Oracle whose one callback ``linearize_fn(x)`` returns ``(c, jt)``,
        c(x) and a function ``jt(v)`` = J(x)'v at the same x.

        The callback keeps what c and J(x)' share (EV's ``B @ x``), so each
        AL gradient and each certificate calls it once.  The public
        ``evaluate`` and ``jacobian_transpose_apply`` call it once each.
        """
        oracle = ConstraintOracle(None, None, n_constraints)
        oracle._linearize_fn = linearize_fn
        return oracle

    @staticmethod
    def affine(A: Array, b: Array) -> "ConstraintOracle":
        """Oracle for c(x) = A x - b whose rows are kept as data.

        ``A`` and ``b`` are checked once, here, so the oracle's
        ``_linearize`` is the data kernel x -> (A x - b, v -> A'v), built
        once, whose outputs every reader takes unchecked.  The public
        ``evaluate`` and ``jacobian_transpose_apply`` still check theirs.
        """
        A, b = _affine_rows(A, b)
        jt = A.T.__matmul__

        def kernel(x: Array) -> tuple[Array, Callable[[Array], Array]]:
            return A @ x - b, jt

        oracle = ConstraintOracle.linearized(kernel, A.shape[0])
        oracle._linearize = kernel
        oracle.affine_data = (A, b)
        return oracle


def _checked_product(out, x: Array) -> Array:
    """A Jacobian-transpose product at ``x`` as float64, checked for shape
    and finiteness."""
    out = np.asarray(out, dtype=float)
    if out.shape != x.shape:
        raise DimensionMismatch("Jacobian-transpose product dimension mismatch")
    if not all_finite(out):
        raise NonFiniteValue("Jacobian-transpose product overflowed")
    return out


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
    """Bounds over dom(h) that ``predict_outer_iterations`` reads.

    B0 bounds both |g(x)+h(x)| and ||grad g(x)||; B_c bounds the Jacobian
    norm of c.  Upper bounds are acceptable.
    """

    B0: float
    B_c: float

    def __post_init__(self):
        for name in ("B0", "B_c"):
            # Written so that NaN fails.
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


# Signature: (beta, ||y||) -> (rho_hat, L_hat), caps on the smooth AL part's
# measured weak convexity and curvature.
CurvatureSchedule = Callable[[float, float], tuple[float, float]]


@dataclass
class ProblemSpec:
    """One problem instance: oracles, constants, and a starting point.

    ``constraints`` holds the equality rows c(x) = 0, from any
    ``ConstraintOracle`` constructor.  ``ineq``, when set, holds inequality
    rows f(x) <= 0, each f_i convex (assumed, not checked); a problem built
    with it, even with zero rows, is solved with the dual step capped at
    beta_k.  A problem needs only its oracles; ``constants`` serves the
    diagnostics.  ``smooth.L`` is where the first subproblem's curvature
    estimate starts (later ones start where the previous one ended).  A
    solve runs on ``for_solve()``, so its #Grad starts at 0 and two solves
    of one ProblemSpec, in turn or at once, count apart.

    The KKT certificate measures ``nonsmooth``'s exact subdifferential
    distance (``subdiff_distance``), which every ``ProxCapableFunction``
    carries.
    """

    smooth: SmoothOracle
    nonsmooth: ProxCapableFunction
    constraints: ConstraintOracle
    constants: Optional[ConstantsLedger]
    x0: np.ndarray
    ineq: Optional[ConstraintOracle] = None

    def __post_init__(self):
        self.x0 = as_vector(self.x0, name="x0")
        self.nonsmooth._check_domain(self.x0, "x0")
        for name in ("constraints", "ineq"):
            rows = getattr(self, name)
            if rows is not None and rows.affine_data is not None:
                if rows.affine_data[0].shape[1] != self.dim:
                    raise DimensionMismatch(f"affine {name} column count must match dim")

    @property
    def dim(self) -> int:
        return self.x0.shape[0]

    def for_solve(self):
        """Shallow copy whose smooth oracle shares the callables, counts
        #Grad from 0 and reuses the gradient of the array it last
        evaluated (``_SolveOracle``)."""
        g = self.smooth
        fresh = _SolveOracle(g._value_fn, g._gradient_fn, g.L)
        return dataclasses.replace(self, smooth=fresh)


@dataclass(frozen=True)
class KktResidual:
    """Residuals of the approximate KKT certificate.

    ``pres`` is the primal residual sqrt(pres_eq^2 + pres_ineq^2), with
    ``pres_eq`` = ||c(x)|| and ``pres_ineq`` = ||[f(x)]_+|| (0 without
    inequality rows, so that ``pres`` = ``pres_eq``), and ``compl`` the
    complementarity residual sum_i |z_i f_i(x)| (0 without inequality
    rows).  ``dres`` is h's exact distance dist(0, grad g(x) + J_f(x)'z +
    J_c(x)'y + subdiff h(x)).
    """

    pres: float
    dres: float
    pres_eq: float
    pres_ineq: float
    compl: float = 0.0

    def __post_init__(self):
        for name in ("pres", "dres", "pres_eq", "pres_ineq", "compl"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise NonFiniteValue(f"KKT residual {name} must be finite")
            if val < 0:
                raise ValueError(f"KKT residual {name} must be nonnegative")


def _check_inputs(x, y, z, problem: ProblemSpec, beta: float = 1.0):
    """``x``, ``y`` and (with inequality rows) ``z`` validated against the
    problem's dimensions, z >= 0, and beta > 0; z must be None without
    inequality rows."""
    x = as_vector(x, problem.dim, "x")
    y = as_vector(y, problem.constraints.n_constraints, "y")
    if problem.ineq is not None:
        if z is None:
            raise ValueError("z is required because the problem has inequality rows")
        z = as_vector(z, problem.ineq.n_constraints, "z")
        if np.any(z < 0):
            raise ValueError("inequality multipliers z must be nonnegative")
    elif z is not None:
        raise ValueError("z is given but the problem has no inequality rows")
    # Written so that NaN fails.
    if not beta > 0:
        raise ValueError("penalty parameter beta must be positive")
    return x, y, z


def _al_gradient(
    problem: ProblemSpec, y: Array, z: Optional[Array], beta: float
) -> Callable[[Array], Array]:
    """The smooth AL gradient at fixed (y, z, beta), one closure per
    subproblem:

        x -> grad g(x) + J_c(x)'(y + beta c(x)) + J_f(x)'[z + beta f(x)]_+,

    the last term only with inequality rows (z is None without them).

    The smooth gradient goes through ``SmoothOracle._gradient``, the one
    #Grad counter, once per call, and each row block through its
    ``ConstraintOracle._linearize`` once per call: the data kernel for
    affine rows, the output-checked callback for the others.
    """
    grad, linearize_c = problem.smooth._gradient, problem.constraints._linearize
    linearize_f = None if z is None else problem.ineq._linearize

    def kernel(x: Array) -> Array:
        c, jt = linearize_c(x)
        v = grad(x) + jt(y + beta * c)
        if z is None:
            return v
        f, jt_f = linearize_f(x)
        return v + jt_f(np.maximum(z + beta * f, 0.0))

    return kernel


def al_value(
    x: Array, y: Array, beta: float, problem: ProblemSpec, z: Optional[Array] = None
) -> float:
    """Augmented Lagrangian g(x) + h(x) + y'c(x) + (beta/2)||c(x)||^2, plus
    the hinge term (||[z + beta f(x)]_+||^2 - ||z||^2) / (2 beta) when the
    problem has inequality rows (then ``z`` is required); raises ValueError
    when x lies outside dom h."""
    x, y, z = _check_inputs(x, y, z, problem, beta)
    h = problem.nonsmooth._check_domain(x)
    c, _, f, _ = _linearize_rows(problem, x)
    val = problem.smooth._value(x) + float(y @ c) + 0.5 * beta * float(c @ c)
    if z is not None:
        hinge = np.maximum(z + beta * f, 0.0)
        val += (float(hinge @ hinge) - float(z @ z)) / (2.0 * beta)
    val += h
    if not math.isfinite(val):
        raise NonFiniteValue("augmented Lagrangian value overflowed")
    return val


def al_gradient_smooth(
    x: Array, y: Array, beta: float, problem: ProblemSpec, z: Optional[Array] = None
) -> Array:
    """Gradient of the smooth AL part: grad g(x) + J_c(x)'(y + beta c(x)),
    plus J_f(x)'[z + beta f(x)]_+ when the problem has inequality rows."""
    x, y, z = _check_inputs(x, y, z, problem, beta)
    return _al_gradient(problem, y, z, beta)(x)


def _linearize_rows(problem: ProblemSpec, x: Array) -> tuple:
    """(c(x), v -> J_c(x)'v, f(x), v -> J_f(x)'v) at the validated ``x``,
    each row block linearized once; the last two are None without
    inequality rows."""
    c, jt = problem.constraints._linearize(x)
    f, jt_f = (None, None) if problem.ineq is None else problem.ineq._linearize(x)
    return c, jt, f, jt_f


def _kkt(problem: ProblemSpec, x, y, z, rows: tuple, g) -> KktResidual:
    """``kkt_residual`` at validated (x, y, z), given the rows linearized
    at x and grad g(x).

    The dual residual is h's exact distance dist(-v, subdiff h(x)), v =
    grad g(x) + J_f(x)'z + J_c(x)'y the Lagrangian's smooth gradient at x,
    summed in that order.  It takes no gradient and linearizes nothing.
    """
    c, jt, f, jt_f = rows
    v = g if z is None else g + jt_f(z)
    dres = problem.nonsmooth._subdiff(x, -(v + jt(y)))
    pres_eq = float(np.linalg.norm(c))
    if z is None:
        pres_ineq = compl = 0.0
    else:
        pres_ineq = float(np.linalg.norm(np.maximum(f, 0.0)))
        compl = float(np.sum(np.abs(z * f)))
    # hypot(p, 0.0) == p exactly, so pres is ||c(x)|| without inequality rows.
    return KktResidual(
        pres=float(math.hypot(pres_eq, pres_ineq)),
        dres=dres,
        compl=compl,
        pres_eq=pres_eq,
        pres_ineq=pres_ineq,
    )


def kkt_residual(
    x: Array, y: Array, problem: ProblemSpec, z: Optional[Array] = None
) -> KktResidual:
    """Measure the KKT residuals at (x, y), or (x, y, z) when the problem
    has inequality rows: the primal residual (and its two parts), the
    complementarity residual, and h's exact distance dist(0, grad g(x) +
    J_c(x)'y + J_f(x)'z + subdiff h(x)); raises ValueError when x lies
    outside dom h."""
    x, y, z = _check_inputs(x, y, z, problem)
    problem.nonsmooth._check_domain(x)
    return _kkt(problem, x, y, z, _linearize_rows(problem, x), problem.smooth._gradient(x))
