"""Prox-capable nonsmooth terms for the bundled experiments: the zero
function, and the indicators of boxes, of the nonnegative orthant and of
its intersection with a ball, each with a closed-form projection and an
exact normal-cone distance.

The public API is the ``ProxCapableFunction`` each constructor returns.
Its ``prox`` and ``subdiff_distance`` check their inputs, the point's
membership in the set included (through the indicator's value oracle, see
``ProxCapableFunction._check_domain``), and then call the kernels below.
The distance kernels trust that x lies in the set, within the membership
tolerance: the solvers call them, through ``ProxCapableFunction._subdiff``,
on points that entered through a checked boundary or that the same
indicator's prox produced.

Matrix-shaped domains are handled by flattening to vectors; all operations
here are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Array, DimensionMismatch, ProxCapableFunction, norm

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
class NonnegBallSet:
    """Intersection of the nonnegative orthant with a ball of radius s."""

    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("radius must be finite and positive")


def _project_nonneg_ball(x: Array, radius: float) -> Array:
    """Exact projection onto {x >= 0, ||x|| <= radius}.

    Zeroing the negative part commutes with the radial scaling because both
    the orthant and the ball are invariant under coordinate sign projection,
    so the composition is the exact Euclidean projection.
    """
    y = np.maximum(x, 0.0)
    nrm = norm(y)
    if nrm > radius:
        y *= radius / nrm
    return y


def _box_bounds(box: BoxSet) -> tuple[Array, Array, Array, Array]:
    """The box widened by the membership tolerance (scaled per coordinate),
    which the box's value tests against, then the bounds at or beyond which
    the distance kernel counts a coordinate active.  A pinned coordinate
    (lower == upper) is active at both, wherever it sits within tolerance."""
    scale = np.maximum(1.0, np.maximum(np.abs(box.lower), np.abs(box.upper)))
    pinned = box.lower == box.upper
    return (
        box.lower - _MEMBERSHIP_ATOL * scale,
        box.upper + _MEMBERSHIP_ATOL * scale,
        np.where(pinned, np.inf, box.lower),
        np.where(pinned, -np.inf, box.upper),
    )


def _box_distance(x: Array, v: Array, lo_act: Array, hi_act: Array) -> float:
    """dist(v, N_X(x)) for the box X, with x in X within tolerance."""
    # The residual of v's projection onto the cone, up to signs, which the
    # norm ignores: v_i inside, [v_i]_+ at an active lower bound, -[-v_i]_+
    # at an active upper bound, and 0 at a pinned coordinate (both).
    r = np.maximum(v, 0.0, where=x <= lo_act, out=v.copy())
    np.minimum(r, 0.0, where=x >= hi_act, out=r)
    return norm(r)


def _nonneg_distance(x: Array, v: Array) -> float:
    """dist(v, N(x)) for the nonnegative orthant, with x >= 0 within
    tolerance."""
    # At active coordinates the cone is (-inf, 0]; only positive v_i costs.
    return norm(np.maximum(v, 0.0, where=x <= _MEMBERSHIP_ATOL, out=v.copy()))


def _nonneg_ball_distance(x: Array, v: Array, radius: float) -> float:
    """dist(v, N_C(x)) for C = orthant intersect ball of radius ``radius``,
    with x in C within tolerance.

    N_C(x) = {u + lam x : u_i <= 0 where x_i = 0, u_i = 0 where x_i > 0,
    lam >= 0 only on the sphere}.  For fixed lam the best u is closed form,
    and the minimization over lam >= 0 is a 1-D quadratic clamp.  Off the
    sphere lam = 0, and the free part is v itself: v - 0.0 * x_i is v bit
    for bit at every finite x_i > 0, so that branch skips the product.
    """
    active = x <= _MEMBERSHIP_ATOL
    free = ~active
    resid_active = norm(np.maximum(0.0, v[active]))
    # A NaN norm compares false, so a NaN x takes the sphere branch and
    # yields NaN, which ``_subdiff`` rejects.
    if norm(x) < radius * (1 - _BOUNDARY_RTOL):
        return math.hypot(norm(v[free]), resid_active)
    x_free, v_free = x[free], v[free]
    lam = 0.0
    free_sq = float(np.sum(x_free**2))
    if free_sq > 0:
        lam = max(0.0, float(v_free @ x_free) / free_sq)
    return math.hypot(norm(v_free - lam * x_free), resid_active)


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

    Coordinatewise: interior coordinates contribute |v_i|; at an active upper
    bound the cone is [0, inf) so only the negative part of v_i contributes;
    symmetric at lower bounds; a pinned coordinate (lower == upper) absorbs
    everything.
    """
    lower, upper = box.lower, box.upper
    lo_tol, hi_tol, lo_act, hi_act = _box_bounds(box)

    def value(x):
        inside = (x >= lo_tol).all() and (x <= hi_tol).all()
        return 0.0 if inside else math.inf

    return ProxCapableFunction(
        prox_fn=lambda v, step: np.minimum(np.maximum(v, lower), upper),
        value_fn=value,
        subdiff_distance_fn=lambda x, v: _box_distance(x, v, lo_act, hi_act),
        diameter=box.diameter,
        cone_subdiff=True,
    )


def nonneg_ball_indicator(s: NonnegBallSet) -> ProxCapableFunction:
    """Indicator of the orthant-ball intersection (clustering domain)."""

    def value(x):
        ok = (x >= -_MEMBERSHIP_ATOL).all() and norm(x) <= s.radius * (
            1 + _BOUNDARY_RTOL
        ) + _MEMBERSHIP_ATOL
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
        value_fn=lambda x: 0.0 if (x >= -_MEMBERSHIP_ATOL).all() else math.inf,
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
