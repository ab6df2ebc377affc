"""Accelerated proximal gradient method for strongly convex composite
problems  min G(x) + H(x)  with G mu-strongly convex and smooth.

This is the innermost solver.  Each iteration takes one proximal gradient
step x+ = prox_{H/L}(xbar - grad G(xbar)/L) from the extrapolated point
xbar with a local curvature estimate L >= mu, and stops at the first
iterate whose certified stationarity dist(-grad G(x+), subdiff H(x+)) falls
below the tolerance.

Relative stop.  Given a ``center`` c, the call stops at the first iterate
whose stationarity is at most max(eps, mu ||x+ - c||): the relative error
criterion of inexact proximal point methods, for a call that is one
proximal step centred at c with mu its strong convexity (see ``ippm``).
For c in dom H the relative test can fire before the absolute one only when
mu D > eps, where D is the diameter of dom H, so it is evaluated only then;
with mu D <= eps a call with a centre is the call without one, bit for bit.

Step size.  The estimate is tested with the gradient at x+ that the
certificate needs anyway: the step is accepted when
||grad G(x+) - grad G(xbar)|| <= L ||x+ - xbar||, and otherwise redone from
the same xbar with L doubled, at the cost of one gradient; after each
accepted step L shrinks by 0.9 (not below mu).  A step that does not move
(x+ = xbar bit for bit) keeps xbar and its gradient: it calls no gradient
and passes the test.  A retry whose prox point is bitwise the rejected
trial's (a clipped coordinate that a larger L leaves clipped) keeps that
trial's point and gradient, so it calls no gradient either; only retries
compare points.  This is backtracking in the style of Beck &
Teboulle's FISTA (SIAM J. Imaging Sci. 2009), with a gradient test in
place of value evaluations: APG evaluates no values.  The
momentum (1 - a)/(1 + a), a = sqrt(mu / L), uses the accepted L.  The
estimate starts at ``L_init``; ``L_G`` caps it, and a step at the cap is
accepted untested.  ``L_G = inf`` means no cap: a step whose estimate has
doubled MAX_DOUBLINGS times without passing the test raises NonFiniteValue,
which is how a NaN step fails fast without a cap.

Stall guard.  On every domain a call stops unconverged after
t_R + 2 * worst_case_iteration_bound(mu, L_max, eps, R^2, R^2) iterations
(or ``max_iter``, if fewer), where L_max is the largest estimate it has
accepted so far and R bounds the distance to the minimizer x*.  The worst
case that holds for an adaptive call is the one at L_max: every step it
took used a curvature at most L_max.  On a bounded domain R is the
diameter of dom H and t_R = 0.  On an unbounded one R = stat_1 / mu, fixed
at the first certified iterate x_1, and t_R = 1: for the mu-strongly
convex F = G + H, ||x - x*|| <= dist(0, subdiff F(x)) / mu, and the
certificate stat is dist(0, subdiff F(x+)).

Restart.  When <xbar - x+, x+ - x_prev> > 0 the momentum points uphill, and
the next extrapolated point is x+ itself, whose gradient is already known
(O'Donoghue & Candes, gradient-based adaptive restart, Found. Comput. Math.
2015).

Convexity test.  With ``test_mu`` set, each accepted step also checks the
strong convexity APG assumes, on the pair it already holds:
<grad G(x+) - grad G(xbar), x+ - xbar> >= mu ||x+ - xbar||^2.  It costs no
gradient.  The first pair that fails it stops the call, unconverged, before
that step is certified: the caller (iPPM) reads it as proof that its
weak-convexity estimate is too small.

Certificate.  The exact distance dist(-grad G(x+), subdiff H(x+)), which
every ``ProxCapableFunction`` carries; its output check is APG's one
stationarity guard.  An exact distance need not read x+ (the box's ignores
a NaN iterate), so a call checks once, before it returns converged, that x+
is finite.

The gradient is a plain callable ``grad(x) -> ndarray``; pass
``oracle.gradient`` to have a SmoothOracle validate and count each call.
APG keeps no count of its own: a caller counts through the callable it
passes, where a gradient handed in (``grad_init``) or reused after a
restart, a step that does not move or a retry at the rejected point is no
call.  Iterates are not re-checked: a non-finite subdifferential distance
raises NonFiniteValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Array,
    NonFiniteValue,
    ProxCapableFunction,
    all_finite,
    as_vector,
    check_iteration_limits,
    norm,
)

DEFAULT_MAX_ITER = 10**6

# Backtracking factors for the curvature estimate (Beck & Teboulle 2009):
# a rejected step doubles L, an accepted one shrinks it by 0.9.  Shrinking
# by 0.5 instead rejects many more steps and cost about 20% more gradients
# on LCQP m=10, n=200; 0.95 stayed within 6% of 0.9 on LCQP and EV.
BACKTRACK_GROWTH = 2.0
STEP_DECAY = 0.9
# Doublings one step may take before it is declared non-finite.  2^64
# spans any curvature a finite gradient can show from a start at mu.
MAX_DOUBLINGS = 64


@dataclass(frozen=True)
class ApgResult:
    """Outcome of one APG call.

    ``stationarity`` is the certified dual residual at ``x``: H's exact
    subdifferential distance dist(-grad G(x), subdiff H(x)).  On failure
    (``converged`` False) ``x`` is the best iterate seen, None when the
    convexity test stopped the first iteration; ``converged`` means
    ``stationarity`` <= eps, or, with a ``center``, <= mu ||x - center||.
    For warm starts, ``gradient`` is grad G(x), which the certificate
    computed, and ``L`` the final curvature estimate: on success, the one
    the last step was accepted with.  ``stop`` says why the call ended:
    "converged", "pair_test" (the convexity test failed), "stall_guard" or
    "max_iter".  The call's gradients are counted by the ``grad`` callable
    it was given, not here.
    """

    x: np.ndarray
    iterations: int
    stationarity: float
    converged: bool
    gradient: np.ndarray
    L: float
    stop: str


def worst_case_iteration_bound(
    mu: float, L_G: float, eps: float, dist_init_sq: float, dist_x0_sq: float
) -> float:
    """Worst-case APG iteration count for given squared start distances.

    ceil( sqrt(L/mu) * log(64 L^2 (L d_{-1}^2 + mu d_0^2) / (eps^2 mu)) + 1 ),
    with the log taken term by term so that no power of a tiny eps or mu
    underflows; inf (no finite count) when a distance or L/mu overflows.
    """
    spread = L_G * dist_init_sq + mu * dist_x0_sq
    if spread <= 0.0:
        return 1
    log_arg = math.log(64.0 * spread) + 2.0 * (math.log(L_G) - math.log(eps)) - math.log(mu)
    bound = math.sqrt(L_G / mu) * log_arg + 1.0
    return max(1, math.ceil(bound)) if bound < math.inf else math.inf


def apg_solve(
    grad: Callable[[Array], Array],
    H: ProxCapableFunction,
    x_init: Array,
    mu: float,
    L_G: float,
    eps: float,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    L_init: Optional[float] = None,
    grad_init: Optional[Array] = None,
    test_mu: bool = False,
    center: Optional[Array] = None,
) -> ApgResult:
    """Run APG from ``x_init`` (which must lie in dom H) to eps-stationarity.

    ``L_init`` is the first curvature estimate (default L_G, clipped to
    [mu, L_G]), and must be given when ``L_G`` is inf; ``grad_init``, when
    given, is grad G(x_init) and saves the first call into ``grad``.
    ``test_mu`` stops the call, unconverged, at the first accepted step pair
    on which G is not mu-strongly convex.  ``center``, when given, adds the
    relative stop stat <= mu ||x - center||.
    """
    # max(L_init, mu), not max(mu, L_init), so that a NaN L_init stays NaN
    # and fails the finite-start test.
    L = L_G if L_init is None else min(max(float(L_init), mu), L_G)
    if not (0 < mu <= L_G and math.isfinite(L)):
        raise ValueError(f"need 0 < mu <= L_G and a finite start, got {mu=}, {L_G=}, {L_init=}")
    # Written so that NaN fails.
    if not eps > 0:
        raise ValueError("eps must be positive")
    check_iteration_limits(max_iter)
    x_init = as_vector(x_init, name="x_init")
    H._check_domain(x_init, "x_init")
    if grad_init is None:
        grad_init = grad(x_init)
    else:
        grad_init = as_vector(grad_init, x_init.shape[0], "grad_init")

    # Initialization prox step from the extrapolation seed.
    step = 1.0 / L
    x_prev = H._prox(x_init - step * grad_init, step)
    x_bar, g_bar = x_prev, None

    best_x = best_g = None  # set by the first iteration, whose stat is finite
    best_stat = math.inf
    if center is not None:
        center = as_vector(center, x_init.shape[0], "center")
    # The relative stop can beat the absolute one only if mu D > eps.
    relative = center is not None and mu * H.diameter > eps
    # Stall guard: the budget t_R + 2 wc(mu, L_max, eps, R^2, R^2) follows
    # the largest accepted estimate L_max.  R is the diameter of dom H, or
    # on an unbounded domain stat_1 / mu (with t_R = 1), set below once the
    # first iterate is certified.
    R_sq, t_R = H.diameter**2, 0
    budget, L_max = max_iter, 0.0

    t = 0
    while t < budget:
        t += 1
        if g_bar is None:
            g_bar = grad(x_bar)
        rejected = None
        for _ in range(MAX_DOUBLINGS + 1):
            step = 1.0 / L
            x_next = H._prox(x_bar - step * g_bar, step)
            # The step pair (dx, dg) serves the step test and the convexity
            # test.
            dx = x_bar - x_next
            dx_sq = dx.dot(dx)
            # A step that does not move keeps x_bar itself, and its gradient;
            # a retry that lands where the rejected trial did keeps that
            # trial's point and gradient.  any(), since dx'dx underflows to
            # 0 for |dx| below about 1e-162.
            if dx_sq == 0.0 and not dx.any():
                x_next, g_next = x_bar, g_bar
            elif rejected is not None and x_next.tobytes() == rejected[0].tobytes():
                x_next, g_next = rejected
            else:
                g_next = grad(x_next)
            dg = g_next - g_bar
            # Written so that NaN fails the test and keeps doubling.
            if L >= L_G or norm(dg) <= L * math.sqrt(dx_sq):
                break
            rejected = x_next, g_next
            L = min(L_G, BACKTRACK_GROWTH * L)
        else:
            raise NonFiniteValue(f"APG step rejected {MAX_DOUBLINGS} times at iteration {t}")
        # Written so that NaN passes the test and reaches the guard below.
        if test_mu and dx.dot(dg) > -mu * dx_sq:
            stop = "pair_test"
            break
        stat = H._subdiff(x_next, -g_next)
        if stat < best_stat:
            best_stat, best_x, best_g = stat, x_next, g_next
        if stat <= eps or (relative and stat <= mu * norm(x_next - center)):
            if not all_finite(x_next):
                raise NonFiniteValue(f"APG iterate {t} is not finite")
            return ApgResult(
                x=x_next,
                iterations=t,
                stationarity=stat,
                converged=True,
                gradient=g_next,
                L=L,
                stop="converged",
            )
        if L > L_max:
            if R_sq == math.inf:
                # A product, not ** 2, so that an overflow reads inf.
                R_sq, t_R = (stat / mu) * (stat / mu), 1
            L_max = L
            budget = min(max_iter, t_R + 2 * worst_case_iteration_bound(mu, L, eps, R_sq, R_sq))
        moved = x_next - x_prev
        if dx.dot(moved) > 0.0:
            x_bar, g_bar = x_next, g_next
        else:
            alpha = math.sqrt(mu / L)
            x_bar, g_bar = x_next + (1.0 - alpha) / (1.0 + alpha) * moved, None
        x_prev = x_next
        L = max(mu, STEP_DECAY * L)
    else:
        stop = "max_iter" if t >= max_iter else "stall_guard"

    return ApgResult(
        x=best_x,
        iterations=t,
        stationarity=best_stat,
        converged=False,
        gradient=best_g,
        L=L,
        stop=stop,
    )
