"""Inexact proximal point method for weakly convex composite problems
min phi(x) + psi(x), with phi L_phi-smooth and rho-weakly convex.

Each outer step adds rho||. - x_k||^2 to phi (giving a rho-strongly-convex
model) and solves it with APG to tolerance eps/4; the loop stops once
2 rho ||x_{k+1} - x_k|| <= eps/2, which combined with the inner certificate
yields dist(0, subdiff(phi + psi)(x_out)) <= eps.  The gradient of phi is a
plain callable, as in ``apg_solve``.

Adaptive weak convexity ("convex until proven guilty": Carmon, Duchi,
Hinder & Sidford, ICML 2017; Paquette et al., "Catalyst for gradient-based
nonconvex optimization", AISTATS 2018).  The ``rho`` given to
``ippm_solve`` is a cap, as L_G is for APG's curvature estimate.  Each call
starts its estimate at RHO_FLOOR (or at the cap, if that is smaller) and
carries it across its proximal steps.  Below the cap, APG tests every
accepted step pair for rho-strong convexity of the model, at no gradient
cost.  A failed test, or an APG call that exhausts its budget, proves the
estimate too small: rho doubles (up to the cap) and the proximal step is
redone from the same centre.  At the cap no pair is tested and a budget
overrun raises SubsolverStall.

What survives of the guarantees:

- The certificate is valid for any rho.  APG certifies the model's
  stationarity at x, and the model's gradient differs from phi's by
  2 rho (x - x_k), so stationarity + 2 rho ||x - x_k|| bounds
  dist(0, subdiff(phi + psi)(x)).
- At the cap the method is the fixed-rho one, and its bounds hold whenever
  the cap bounds the weak convexity.
- Below the cap, APG's iteration bound holds only on the step pairs it
  tested.
- The estimate never decreases within a call, so one call makes at most
  ceil(log2(cap / RHO_FLOOR)) doublings, each after an APG call within the
  budget computed at the cap (the stall guard): the worst case is the
  fixed-rho method plus that many failed APG calls.

Each APG call is warm-started: it reuses the gradient at its centre, which
the previous call's certificate computed (a redo reuses it too: it does not
depend on rho), and starts from the previous call's final curvature
estimate; the first call starts at L_phi + 2 rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .apg import DEFAULT_MAX_ITER, apg_solve
from .core import Array, ProxCapableFunction, as_vector

# Starting weak-convexity estimate: the model of a convex phi is still
# strongly convex for any positive rho, so "convex" starts just above 0.
RHO_FLOOR = 1e-6


class SubsolverStall(RuntimeError):
    """Inner APG failed its iteration budget; curvature inputs are suspect.

    An iALM solve that stalls sets ``grad_evals`` to the #Grad it spent.
    """

    grad_evals: Optional[int] = None


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
    inner APG certificate plus the 2 rho ||dx|| proximal term.  ``rho`` is
    the final weak-convexity estimate and ``rho_doublings`` the number of
    times it was doubled.
    """

    x: np.ndarray
    outer_iterations: int
    stationarity: float
    converged: bool
    stationarity_is_exact: bool
    grad_evals: int
    apg_iterations: int
    rho: float
    rho_doublings: int
    trace: Optional[list] = None


def ippm_solve(
    grad: Callable[[Array], Array],
    psi: ProxCapableFunction,
    x0: Array,
    rho: float,
    L_phi: float,
    eps: float,
    max_outer: int = DEFAULT_MAX_ITER,
    max_inner: int = DEFAULT_MAX_ITER,
    keep_trace: bool = False,
) -> IppmResult:
    """Drive Phi = phi + psi to eps-stationarity via proximal point steps,
    where ``grad`` is the gradient of phi and ``rho`` caps the adaptive
    weak-convexity estimate.

    Raises SubsolverStall when an inner APG call at the cap exceeds twice
    its worst-case budget (bounded domains) or exhausts ``max_inner``; the
    usual cause is a cap below the weak-convexity constant.
    """
    if rho <= 0 or L_phi <= 0 or eps <= 0:
        raise ValueError("rho, L_phi, eps must be positive")
    x0 = as_vector(x0, name="x0")
    if not math.isfinite(psi.value(x0)):
        raise ValueError("x0 lies outside dom(psi)")

    budget = _apg_budget(rho, L_phi, eps, psi.diameter)
    apg_cap = max_inner if budget is None else min(max_inner, 2 * budget)
    rho_cap, rho = rho, min(RHO_FLOOR, rho)
    doublings = 0

    x_k = x0
    best_x = x0
    best_stat = math.inf
    trace = [] if keep_trace else None
    apg_total = 0
    # The model's gradient at its centre is phi's, whatever rho is.
    g_k = grad(x0)
    grad_total = 1
    L_t = None

    for k in range(max_outer):
        while True:
            def shifted(x, c=x_k, r=rho):
                return grad(x) + 2.0 * r * (x - c)

            inner = apg_solve(
                shifted, psi, x_k, rho, L_phi + 2.0 * rho, eps / 4.0, apg_cap,
                L_init=L_t, grad_init=g_k, test_mu=rho < rho_cap,
            )
            apg_total += inner.iterations
            grad_total += inner.grad_evals
            if inner.converged:
                break
            if rho >= rho_cap:
                raise SubsolverStall(
                    f"inner APG used {inner.iterations} iterations (budget {apg_cap}) without "
                    f"reaching stationarity {eps / 4.0:.3g}; rho={rho_cap:.3g} is likely an "
                    "underestimate of the weak convexity, or L_phi is too small"
                )
            # A nonconvex step pair or an exhausted budget: redo the step
            # from the same centre, starting at the failed call's curvature.
            rho = min(rho_cap, 2.0 * rho)
            doublings += 1
            L_t = inner.L
        x_next = inner.x
        shift = 2.0 * rho * float(np.linalg.norm(x_next - x_k))
        certified = inner.stationarity + shift
        if trace is not None:
            trace.append((x_next.copy(), inner.stationarity, shift))
        if certified < best_stat:
            best_stat = certified
            best_x = x_next
        if shift <= eps / 2.0:
            return IppmResult(
                x=x_next,
                outer_iterations=k + 1,
                stationarity=certified,
                converged=True,
                stationarity_is_exact=inner.stationarity_is_exact,
                grad_evals=grad_total,
                apg_iterations=apg_total,
                rho=rho,
                rho_doublings=doublings,
                trace=trace,
            )
        # The next model's gradient at its centre x_next is phi's, which the
        # certificate just computed (up to the old shift), and its curvature
        # estimate starts where this call's ended.
        g_k = inner.gradient - 2.0 * rho * (x_next - x_k)
        L_t = inner.L
        x_k = x_next

    return IppmResult(
        x=best_x,
        outer_iterations=max_outer,
        stationarity=best_stat,
        converged=False,
        stationarity_is_exact=psi.has_exact_subdiff,
        grad_evals=grad_total,
        apg_iterations=apg_total,
        rho=rho,
        rho_doublings=doublings,
        trace=trace,
    )
