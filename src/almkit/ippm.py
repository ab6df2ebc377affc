"""Inexact proximal point method for weakly convex composite problems
min phi(x) + psi(x), with phi smooth and rho-weakly convex.

Each outer step adds rho||. - x_k||^2 to phi (giving a rho-strongly-convex
model) and solves it with APG to tolerance eps/4; the loop stops once
2 rho ||x_{k+1} - x_k|| <= eps/2, which combined with the inner certificate
yields dist(0, subdiff(phi + psi)(x_out)) <= eps.  The gradient of phi is a
plain callable, as in ``apg_solve``.

Adaptive weak convexity ("convex until proven guilty": Carmon, Duchi,
Hinder & Sidford, ICML 2017; Paquette et al., "Catalyst for gradient-based
nonconvex optimization", AISTATS 2018).  The ``rho`` given to
``ippm_solve`` is a cap, as L_phi is on APG's curvature estimate (inf means
no cap for either).  Each call starts its estimate at RHO_FLOOR (or at the
cap, if that is smaller) and carries it across its proximal steps.  Below
the cap, APG tests every accepted step pair for rho-strong convexity of the
model, at no gradient cost.  A failed test, or an APG call that stops on
its stall guard, proves the estimate too small: rho doubles (up to the cap)
and the proximal step is redone from the same centre.  At the cap no pair
is tested and a stalled APG call raises SubsolverStall.

What survives of the guarantees:

- The certificate is valid for any rho.  APG certifies the model's
  stationarity at x, and the model's gradient differs from phi's by
  2 rho (x - x_k), so stationarity + 2 rho ||x - x_k|| bounds
  dist(0, subdiff(phi + psi)(x)).
- At the cap the method is the fixed-rho one, and its bounds hold whenever
  the cap bounds the weak convexity.
- Below the cap, APG's iteration bound holds only on the step pairs it
  tested.
- APG owns the stall guard: on a bounded domain each call stops after twice
  its worst case at the rho estimate it runs at and the largest curvature
  estimate it has accepted (see ``apg_solve``).
- With a finite cap the estimate doubles at most ceil(log2(cap /
  RHO_FLOOR)) times per call, each after one failed APG call: the worst
  case is the fixed-rho method plus that many failed calls.

Each APG call is warm-started: it reuses the gradient at its centre, which
the previous call's certificate computed (a redo reuses it too: it does not
depend on rho), and starts from the previous call's final curvature
estimate; the first call starts at ``L_init`` (default L_phi + 2 rho).
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


@dataclass(frozen=True)
class IppmResult:
    """Outcome of one iPPM call.

    ``stationarity`` is the certified dist(0, subdiff Phi) at ``x``: the
    inner APG certificate plus the 2 rho ||dx|| proximal term.  ``rho`` is
    the final weak-convexity estimate and ``rho_doublings`` the number of
    times it was doubled; ``L`` is the final curvature estimate of the last
    APG call, a warm start for a later call on a nearby model.
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
    L: float
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
    *,
    L_init: Optional[float] = None,
) -> IppmResult:
    """Drive Phi = phi + psi to eps-stationarity via proximal point steps,
    where ``grad`` is the gradient of phi, ``rho`` caps the adaptive
    weak-convexity estimate and ``L_phi`` the curvature estimate of each
    APG call (inf: no caps).  ``L_init`` is the first APG call's first
    curvature estimate, and must be given when ``L_phi`` is inf.

    Raises SubsolverStall when an inner APG call at the cap stops on its
    stall guard (bounded domains) or exhausts ``max_inner``; the usual cause
    is a cap below the weak-convexity constant.
    """
    if rho <= 0 or L_phi <= 0 or eps <= 0:
        raise ValueError("rho, L_phi, eps must be positive")
    x0 = as_vector(x0, name="x0")
    if not math.isfinite(psi.value(x0)):
        raise ValueError("x0 lies outside dom(psi)")

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
    L_t = L_init

    for k in range(max_outer):
        while True:
            def shifted(x, c=x_k, r=rho):
                return grad(x) + 2.0 * r * (x - c)

            inner = apg_solve(
                shifted, psi, x_k, rho, L_phi + 2.0 * rho, eps / 4.0, max_inner,
                L_init=L_t, grad_init=g_k, test_mu=rho < rho_cap,
            )
            apg_total += inner.iterations
            grad_total += inner.grad_evals
            # The next call, a redo or the next step, starts at this
            # call's final curvature estimate.
            L_t = inner.L
            if inner.converged:
                break
            if rho >= rho_cap:
                raise SubsolverStall(
                    f"inner APG stopped after {inner.iterations} iterations without reaching "
                    f"stationarity {eps / 4.0:.3g}; rho={rho_cap:.3g} is likely an "
                    "underestimate of the weak convexity, or L_phi is too small"
                )
            # A nonconvex step pair or a stalled call: redo the step from
            # the same centre.
            rho = min(rho_cap, 2.0 * rho)
            doublings += 1
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
                L=L_t,
                trace=trace,
            )
        # The next model's gradient at its centre x_next is phi's, which the
        # certificate just computed (up to the old shift).
        g_k = inner.gradient - 2.0 * rho * (x_next - x_k)
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
        L=L_t,
        trace=trace,
    )
