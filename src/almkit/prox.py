"""Closed-form projections, proximal operators, and exact normal-cone
distances for the constraint sets used by the bundled experiments: boxes,
origin-centered balls, and the intersection of the nonnegative orthant with
a ball.

Matrix-shaped domains are handled by flattening to vectors; all operations
here are stateless and safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, DimensionMismatch, ProxCapableFunction, as_vector, norm

# Relative tolerance for deciding whether an iterate sits on a ball boundary.
_BOUNDARY_RTOL = 1e-10
# Absolute slack when checking that a point lies inside a set.
_MEMBERSHIP_ATOL = 1e-12


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower_i <= x_i <= upper_i}."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch("box bounds must be equal-length 1-D arrays")
        # Written so that NaN fails.
        if not np.all(lo <= hi):
            raise ValueError("box bounds must not be NaN, nor a lower bound exceed its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def cube(cls, lo: float, hi: float, n: int) -> "BoxSet":
        return cls(np.full(n, float(lo)), np.full(n, float(hi)))

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball of radius r centered at the origin."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be finite and positive")


@dataclass(frozen=True)
class NonnegBallSet:
    """Intersection of the nonnegative orthant with a ball of radius s."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")


def project_box(x: Array, box: BoxSet) -> Array:
    """Coordinatewise clamp onto the box."""
    return np.clip(as_vector(x, box.dim), box.lower, box.upper)


def project_ball(x: Array, ball: BallSet) -> Array:
    """Radial scaling onto the ball; identity inside."""
    x = as_vector(x)
    nrm = norm(x)
    if nrm <= ball.radius:
        return x.copy()
    return (ball.radius / nrm) * x


def project_nonneg_ball(x: Array, s: NonnegBallSet) -> Array:
    """Exact projection onto {x >= 0, ||x|| <= s}.

    Zeroing the negative part commutes with the radial scaling because both
    the orthant and the ball are invariant under coordinate sign projection,
    so the composition is the exact Euclidean projection.
    """
    return _project_nonneg_ball(as_vector(x), s.radius)


def _project_nonneg_ball(x: Array, radius: float) -> Array:
    y = np.maximum(x, 0.0)
    nrm = norm(y)
    if nrm > radius:
        y *= radius / nrm
    return y


def _box_bounds(box: BoxSet) -> tuple[Array, Array, Array, Array]:
    """The bounds the box distance kernel tests against: the box widened by
    the membership tolerance (scaled per coordinate), then the bounds at or
    beyond which a coordinate is active.  A pinned coordinate
    (lower == upper) is active at both, wherever it sits within tolerance."""
    scale = np.maximum(1.0, np.maximum(np.abs(box.lower), np.abs(box.upper)))
    pinned = box.lower == box.upper
    return (
        box.lower - _MEMBERSHIP_ATOL * scale,
        box.upper + _MEMBERSHIP_ATOL * scale,
        np.where(pinned, np.inf, box.lower),
        np.where(pinned, -np.inf, box.upper),
    )


def normal_cone_distance_box(x: Array, v: Array, box: BoxSet) -> float:
    """dist(v, N_X(x)) for the box X, with x in X (clamped within tolerance).

    Coordinatewise: interior coordinates contribute |v_i|; at an active upper
    bound the cone is [0, inf) so only the negative part of v_i contributes;
    symmetric at lower bounds; a pinned coordinate (lower == upper) absorbs
    everything.
    """
    x = as_vector(x, box.dim)
    v = as_vector(v, box.dim, "v")
    return _box_distance(x, v, *_box_bounds(box))


def _box_distance(
    x: Array, v: Array, lo_tol: Array, hi_tol: Array, lo_act: Array, hi_act: Array
) -> float:
    # Written so that NaN coordinates fail the membership check; counting
    # the True entries is cheaper than two .all() reductions.
    if not (np.count_nonzero(x >= lo_tol) == x.size and np.count_nonzero(x <= hi_tol) == x.size):
        raise ValueError("point lies outside the box beyond tolerance")
    # The residual of v's projection onto the cone, up to signs, which the
    # norm ignores: v_i inside, [v_i]_+ at an active lower bound, -[-v_i]_+
    # at an active upper bound, and 0 at a pinned coordinate (both).
    r = np.maximum(v, 0.0, where=x <= lo_act, out=v.copy())
    np.minimum(r, 0.0, where=x >= hi_act, out=r)
    return norm(r)


def normal_cone_distance_ball(x: Array, v: Array, ball: BallSet) -> float:
    """dist(v, N_X(x)) for the ball X.

    Interior points have N = {0}; boundary points have the outward ray
    {lam * x : lam >= 0}, onto which v is projected.
    """
    x = as_vector(x)
    v = as_vector(v, x.shape[0], "v")
    nrm = norm(x)
    if nrm > ball.radius * (1 + _BOUNDARY_RTOL) + _MEMBERSHIP_ATOL:
        raise ValueError("point lies outside the ball beyond tolerance")
    if nrm < ball.radius * (1 - _BOUNDARY_RTOL):
        return norm(v)
    lam = max(0.0, float(v @ x) / (nrm * nrm))
    return norm(v - lam * x)


def normal_cone_distance_nonneg(x: Array, v: Array) -> float:
    """dist(v, N(x)) for the nonnegative orthant at x >= 0."""
    x = as_vector(x)
    return _nonneg_distance(x, as_vector(v, x.shape[0], "v"))


def _nonneg_distance(x: Array, v: Array) -> float:
    # Written so that NaN coordinates fail the membership check.
    if np.count_nonzero(x >= -_MEMBERSHIP_ATOL) != x.size:
        raise ValueError("point lies outside the orthant beyond tolerance")
    # At active coordinates the cone is (-inf, 0]; only positive v_i costs.
    return norm(np.maximum(v, 0.0, where=x <= _MEMBERSHIP_ATOL, out=v.copy()))


def normal_cone_distance_nonneg_ball(x: Array, v: Array, s: NonnegBallSet) -> float:
    """dist(v, N_C(x)) for C = orthant intersect ball of radius s.

    N_C(x) = {u + lam x : u_i <= 0 where x_i = 0, u_i = 0 where x_i > 0,
    lam >= 0 only on the sphere}.  For fixed lam the best u is closed form,
    and the minimization over lam >= 0 is a 1-D quadratic clamp.
    """
    x = as_vector(x)
    v = as_vector(v, x.shape[0], "v")
    return _nonneg_ball_distance(x, v, s.radius)


def _nonneg_ball_distance(x: Array, v: Array, radius: float) -> float:
    nrm = norm(x)
    # Written so that NaN coordinates fail the membership check.
    inside = nrm <= radius * (1 + _BOUNDARY_RTOL) + _MEMBERSHIP_ATOL
    if not (inside and np.count_nonzero(x >= -_MEMBERSHIP_ATOL) == x.size):
        raise ValueError("point lies outside the set beyond tolerance")
    active = x <= _MEMBERSHIP_ATOL
    free = ~active
    x_free, v_free = x[free], v[free]
    lam = 0.0
    if nrm >= radius * (1 - _BOUNDARY_RTOL):
        free_sq = float(np.sum(x_free**2))
        if free_sq > 0:
            lam = max(0.0, float(v_free @ x_free) / free_sq)
    resid_active = np.maximum(0.0, v[active])
    return math.hypot(norm(v_free - lam * x_free), norm(resid_active))


def zero_function() -> ProxCapableFunction:
    """The identically-zero nonsmooth term (free domain)."""
    return ProxCapableFunction(
        prox_fn=lambda v, step: v.copy(),
        value_fn=lambda x: 0.0,
        subdiff_distance_fn=lambda x, v: norm(v),
        diameter=math.inf,
        cone_subdiff=True,
    )


def box_indicator(box: BoxSet) -> ProxCapableFunction:
    """Indicator of a box, with exact normal-cone distances.

    Its callables receive inputs the oracle already validated, so they call
    the clamp and distance kernels directly.
    """
    lower, upper = box.lower, box.upper
    lo_tol, hi_tol, lo_act, hi_act = _box_bounds(box)

    def value(x):
        inside = np.all(x >= lo_tol) and np.all(x <= hi_tol)
        return 0.0 if inside else math.inf

    return ProxCapableFunction(
        prox_fn=lambda v, step: np.minimum(np.maximum(v, lower), upper),
        value_fn=value,
        subdiff_distance_fn=lambda x, v: _box_distance(x, v, lo_tol, hi_tol, lo_act, hi_act),
        diameter=box.diameter,
        cone_subdiff=True,
    )


def ball_indicator(ball: BallSet) -> ProxCapableFunction:
    """Indicator of an origin-centered ball."""

    def value(x):
        return 0.0 if norm(x) <= ball.radius * (1 + _BOUNDARY_RTOL) else math.inf

    return ProxCapableFunction(
        prox_fn=lambda v, step: project_ball(v, ball),
        value_fn=value,
        subdiff_distance_fn=lambda x, v: normal_cone_distance_ball(x, v, ball),
        diameter=2.0 * ball.radius,
        cone_subdiff=True,
    )


def nonneg_ball_indicator(s: NonnegBallSet) -> ProxCapableFunction:
    """Indicator of the orthant-ball intersection (clustering domain)."""

    def value(x):
        ok = np.all(x >= -_MEMBERSHIP_ATOL) and norm(x) <= s.radius * (
            1 + _BOUNDARY_RTOL
        )
        return 0.0 if ok else math.inf

    return ProxCapableFunction(
        prox_fn=lambda v, step: _project_nonneg_ball(v, s.radius),
        value_fn=value,
        subdiff_distance_fn=lambda x, v: _nonneg_ball_distance(x, v, s.radius),
        diameter=2.0 * s.radius,
        cone_subdiff=True,
    )


def nonneg_indicator() -> ProxCapableFunction:
    """Indicator of the nonnegative orthant (slack variables)."""
    return ProxCapableFunction(
        prox_fn=lambda v, step: np.maximum(v, 0.0),
        value_fn=lambda x: 0.0 if np.all(x >= -_MEMBERSHIP_ATOL) else math.inf,
        subdiff_distance_fn=_nonneg_distance,
        diameter=math.inf,
        cone_subdiff=True,
    )


def stacked(first: ProxCapableFunction, second: ProxCapableFunction, n_first: int) -> ProxCapableFunction:
    """Separable sum h(x[:n]) + g(x[n:]) over a partitioned vector."""

    def split(v):
        return v[:n_first], v[n_first:]

    def prox(v, step):
        a, b = split(v)
        return np.concatenate([first._prox(a, step), second._prox(b, step)])

    def value(x):
        a, b = split(x)
        return first.value(a) + second.value(b)

    subdiff = None
    if first.has_exact_subdiff and second.has_exact_subdiff:

        def subdiff(x, v):
            xa, xb = split(x)
            va, vb = split(v)
            return math.hypot(first._subdiff(xa, va), second._subdiff(xb, vb))

    if math.isinf(first.diameter) or math.isinf(second.diameter):
        diameter = math.inf
    else:
        diameter = math.hypot(first.diameter, second.diameter)
    return ProxCapableFunction(
        prox_fn=prox,
        value_fn=value,
        subdiff_distance_fn=subdiff,
        diameter=diameter,
        cone_subdiff=first.cone_subdiff and second.cone_subdiff,
    )
