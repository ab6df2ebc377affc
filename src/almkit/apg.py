"""Accelerated proximal gradient method for strongly convex composite
problems  min G(x) + H(x)  with G mu-strongly convex and L_G-smooth.

This is the innermost solver.  Each iteration takes one proximal gradient
step from the extrapolated point and applies constant momentum
(1 - a)/(1 + a) with a = sqrt(mu / L_G); it stops at the first iterate whose
certified stationarity dist(-grad G(x), subdiff H(x)) falls below the
tolerance.  The certificate uses H's exact subdifferential distance when
available and otherwise the one-extra-gradient surrogate
||grad G(x+) - grad G(xbar) + L_G (xbar - x+)||, a valid upper bound by
optimality of the prox step.  Both variants cost one gradient at the new
iterate, which is counted.

The gradient is a plain callable ``grad(x) -> ndarray``; pass
``oracle.gradient`` to have a SmoothOracle validate each call.  Iterates are
not re-checked: a non-finite stationarity measure raises NonFiniteValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Array, NonFiniteValue, ProxCapableFunction, as_vector

DEFAULT_MAX_ITER = 10**6


@dataclass(frozen=True)
class ApgResult:
    """Outcome of one APG call.

    ``stationarity`` is the certified dual residual at ``x``;
    ``stationarity_is_exact`` records whether it came from an exact
    subdifferential distance or the surrogate upper bound.  On failure
    (``converged`` False) ``x`` is the best iterate seen.
    """

    x: np.ndarray
    iterations: int
    stationarity: float
    converged: bool
    stationarity_is_exact: bool
    grad_evals: int


def worst_case_iteration_bound(
    mu: float, L_G: float, eps: float, dist_init_sq: float, dist_x0_sq: float
) -> int:
    """Worst-case APG iteration count for given squared start distances.

    ceil( sqrt(L/mu) * log(64 L^2 (L d_{-1}^2 + mu d_0^2) / (eps^2 mu)) + 1 ).
    """
    arg = 64.0 * L_G**2 * (L_G * dist_init_sq + mu * dist_x0_sq) / (eps**2 * mu)
    if arg <= 1.0:
        return 1
    return int(math.ceil(math.sqrt(L_G / mu) * math.log(arg) + 1.0))


def apg_solve(
    grad: Callable[[Array], Array],
    H: ProxCapableFunction,
    x_init: Array,
    mu: float,
    L_G: float,
    eps: float,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ApgResult:
    """Run APG from ``x_init`` (which must lie in dom H) to eps-stationarity."""
    if not (0 < mu <= L_G):
        raise ValueError(f"need 0 < mu <= L_G, got mu={mu}, L_G={L_G}")
    if eps <= 0:
        raise ValueError("eps must be positive")
    x_init = as_vector(x_init, name="x_init")
    if not math.isfinite(H.value(x_init)):
        raise ValueError("x_init lies outside dom(H)")

    alpha = math.sqrt(mu / L_G)
    momentum = (1.0 - alpha) / (1.0 + alpha)
    step = 1.0 / L_G

    # Initialization prox step from the extrapolation seed.
    g_bar = grad(x_init)
    x_prev = H._prox(x_init - step * g_bar, step)
    x_bar = x_prev

    best_x = x_prev
    best_stat = math.inf
    exact = H.has_exact_subdiff

    for t in range(max_iter):
        g_bar = grad(x_bar)
        x_next = H._prox(x_bar - step * g_bar, step)
        g_next = grad(x_next)
        if exact:
            stat = H._subdiff(x_next, -g_next)
        else:
            stat = float(np.linalg.norm(g_next - g_bar + L_G * (x_bar - x_next)))
            if not math.isfinite(stat):
                raise NonFiniteValue(f"APG stationarity is {stat} at iteration {t + 1}")
        if stat < best_stat:
            best_stat = stat
            best_x = x_next
        if stat <= eps:
            return ApgResult(
                x=x_next,
                iterations=t + 1,
                stationarity=stat,
                converged=True,
                stationarity_is_exact=exact,
                grad_evals=1 + 2 * (t + 1),
            )
        x_bar = x_next + momentum * (x_next - x_prev)
        x_prev = x_next

    return ApgResult(
        x=best_x,
        iterations=max_iter,
        stationarity=best_stat,
        converged=False,
        stationarity_is_exact=exact,
        grad_evals=1 + 2 * max_iter,
    )
