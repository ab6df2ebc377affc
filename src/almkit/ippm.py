"""Inexact proximal point method for weakly convex composite problems
min phi(x) + psi(x), with phi L_phi-smooth and rho-weakly convex.

Each outer step adds rho||. - x_k||^2 to phi (giving a rho-strongly-convex
model) and solves it with APG to tolerance eps/4; the loop stops once
2 rho ||x_{k+1} - x_k|| <= eps/2, which combined with the inner certificate
yields dist(0, subdiff(phi + psi)(x_out)) <= eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .apg import DEFAULT_MAX_ITER, apg_solve
from .core import Array, ProxCapableFunction, SmoothOracle, as_vector


class SubsolverStall(RuntimeError):
    """Inner APG failed its iteration budget; curvature inputs are suspect."""


def outer_iteration_bound(rho: float, eps: float, gap: float) -> int:
    """Worst-case proximal point iteration count ceil(32 rho gap / eps^2)."""
    if gap < 0:
        raise ValueError("objective gap must be nonnegative")
    return int(math.ceil(32.0 * rho * gap / eps**2))


def _apg_budget(rho: float, L_phi: float, eps: float, diameter: float) -> Optional[int]:
    """Iteration budget for each inner APG call on a bounded domain.

    Mirrors the APG worst case with both start distances bounded by the
    domain diameter; None when the domain is unbounded.
    """
    if not math.isfinite(diameter):
        return None
    L_t = L_phi + 2.0 * rho
    arg = 1024.0 * L_t**2 * (L_t + rho) * diameter**2 / (eps**2 * rho)
    if arg <= 1.0:
        return 1
    return int(math.ceil(math.sqrt(L_t / rho) * math.log(arg))) + 1


@dataclass(frozen=True)
class IppmResult:
    """Outcome of one iPPM call.

    ``stationarity`` is the certified dist(0, subdiff Phi) at ``x``: the
    inner APG certificate plus the 2 rho ||dx|| proximal term.
    """

    x: np.ndarray
    outer_iterations: int
    stationarity: float
    converged: bool
    stationarity_is_exact: bool
    grad_evals: int
    obj_evals: int
    apg_iterations: int
    trace: Optional[list] = None


def ippm_solve(
    phi: SmoothOracle,
    psi: ProxCapableFunction,
    x0: Array,
    rho: float,
    L_phi: float,
    eps: float,
    max_outer: int = DEFAULT_MAX_ITER,
    max_inner: int = DEFAULT_MAX_ITER,
    keep_trace: bool = False,
) -> IppmResult:
    """Drive Phi = phi + psi to eps-stationarity via proximal point steps.

    Raises SubsolverStall when an inner APG call exceeds twice its
    worst-case budget (bounded domains) or exhausts ``max_inner``; the usual
    cause is an underestimated weak-convexity constant rho.
    """
    if rho <= 0 or L_phi <= 0 or eps <= 0:
        raise ValueError("rho, L_phi, eps must be positive")
    x0 = as_vector(x0, name="x0")
    if not math.isfinite(psi.value(x0)):
        raise ValueError("x0 lies outside dom(psi)")

    obj0, grad0 = phi.counters.snapshot()
    budget = _apg_budget(rho, L_phi, eps, psi.diameter)
    apg_cap = max_inner if budget is None else min(max_inner, 2 * budget)

    x_k = x0
    best_x = x0
    best_stat = math.inf
    trace = [] if keep_trace else None
    apg_total = 0

    for k in range(max_outer):
        center = x_k
        shifted = SmoothOracle(
            value_fn=lambda x, c=center: phi.value(x) + rho * float(np.sum((x - c) ** 2)),
            gradient_fn=lambda x, c=center: phi.gradient(x) + 2.0 * rho * (x - c),
            smoothness=L_phi + 2.0 * rho,
            weak_convexity=0.0,
        )
        inner = apg_solve(shifted, psi, x_k, rho, L_phi + 2.0 * rho, eps / 4.0, apg_cap)
        apg_total += inner.iterations
        if not inner.converged:
            raise SubsolverStall(
                f"inner APG used {inner.iterations} iterations (budget {apg_cap}) without "
                f"reaching stationarity {eps / 4.0:.3g}; rho={rho:.3g} is likely an "
                "underestimate of the weak convexity, or L_phi is too small"
            )
        x_next = inner.x
        shift = 2.0 * rho * float(np.linalg.norm(x_next - x_k))
        certified = inner.stationarity + shift
        if trace is not None:
            trace.append((x_next.copy(), inner.stationarity, shift))
        if certified < best_stat:
            best_stat = certified
            best_x = x_next
        if shift <= eps / 2.0:
            obj1, grad1 = phi.counters.snapshot()
            return IppmResult(
                x=x_next,
                outer_iterations=k + 1,
                stationarity=certified,
                converged=True,
                stationarity_is_exact=inner.stationarity_is_exact,
                grad_evals=grad1 - grad0,
                obj_evals=obj1 - obj0,
                apg_iterations=apg_total,
                trace=trace,
            )
        x_k = x_next

    obj1, grad1 = phi.counters.snapshot()
    return IppmResult(
        x=best_x,
        outer_iterations=max_outer,
        stationarity=best_stat,
        converged=False,
        stationarity_is_exact=psi.has_exact_subdiff,
        grad_evals=grad1 - grad0,
        obj_evals=obj1 - obj0,
        apg_iterations=apg_total,
        trace=trace,
    )
