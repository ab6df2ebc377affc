"""Inexact proximal point method for weakly convex composite problems
min phi(x) + psi(x), with phi smooth and rho-weakly convex.

Each outer step adds rho||. - x_k||^2 to phi (giving a rho-strongly-convex
model) and solves it with APG to the relative tolerance
max(eps/4, rho ||x - x_k||); the loop stops once 2 rho ||x_{k+1} - x_k||
<= eps/2, which combined with the inner certificate yields
dist(0, subdiff(phi + psi)(x_out)) <= eps.  The gradient of phi is a plain
callable, as in ``apg_solve``.

Relative error.  APG stops each step at the first iterate x whose certified
stationarity is at most eps/4 or at most rho ||x - x_k||, half the proximal
shift 2 rho ||x - x_k|| that the loop tests, so the rule brings in no new
constant.  Only the last step's accuracy enters the certificate, and a step
far from the centre need not be solved to eps/4.  This is the relative
error criterion of the inexact proximal point method (Rockafellar, SIAM J.
Control Optim. 1976), as Paquette et al. (AISTATS 2018) use it for
nonconvex prox subproblems: dist(0, subdiff f_kappa(x)) <= kappa ||x - y||.

Measured weak convexity ("convex until proven guilty": Carmon, Duchi,
Hinder & Sidford, ICML 2017; Paquette et al., "Catalyst for gradient-based
nonconvex optimization", AISTATS 2018).  The estimate starts at RHO_FLOOR
and follows four rules:

- Only a failed pair test raises rho.  APG tests every accepted step pair
  for rho-strong convexity of the model, at no gradient cost.  The first
  pair that fails proves the estimate too small: rho doubles and the
  proximal step is redone from the same centre.
- A known scale.  ``rho_known`` is a weak-convexity scale that earlier
  calls on related models proved (iALM passes the largest estimate its
  earlier subproblems ran at).  It is not trusted until this call proves
  its own estimate too small: at the call's first failed pair test rho
  becomes max(2 rho, rho_known), and after that it doubles.  A call whose
  pairs never fail, and every call with ``rho_known`` = 0, runs as if it
  were not given.
- Warm redo.  The redo starts APG at the failed call's best iterate x, whose
  model gradient follows from the returned one by swapping the shift:
  g - 2 rho_old (x - x_k) + 2 rho_new (x - x_k), so it costs no gradient.
  When the first pair failed (x is None) the redo starts at the centre,
  and its first point is the failed call's, bit for bit, whenever the
  curvature estimate did not change: iPPM keeps each call's first point
  and gradient of phi, and a redo whose first point is bitwise that one
  reuses the gradient instead of calling ``grad``.
- Decay.  After each converged proximal step rho <- max(RHO_FLOOR,
  RHO_DECAY rho), as APG's curvature estimate shrinks after each accepted
  step (Beck & Teboulle's backtracking, SIAM J. Imaging Sci. 2009).

iPPM fails in one way: an APG call that stops on its stall guard or at
its backstop ``apg.MAX_ITER``, whatever rho is, or MAX_STEPS proximal steps
that end without the stop test holding, raise SubsolverStall; a returned
result is always converged.  Neither limit is an argument: APG's stall
guard bounds every inner call, and the two constants are fixed backstops
(read at call time, so a test may lower them).  The ``rho`` given
to ``ippm_solve`` is an optional cap, as L_phi is on APG's curvature
estimate (inf means no cap for either); at the cap no pair is tested.

What survives of the guarantees:

- The certificate is valid for any rho.  APG certifies the model's
  stationarity at x, and the model's gradient differs from phi's by
  2 rho (x - x_k), so stationarity + 2 rho ||x - x_k|| bounds
  dist(0, subdiff(phi + psi)(x)).  On the final step 2 rho d <= eps/2,
  with d = ||x_{k+1} - x_k||, so the relative stop gives stationarity
  <= max(eps/4, rho d) = eps/4 and the certificate is at most 3 eps/4.
- The step bound survives the relative stop.  Where rho bounds the weak
  convexity, the model M = Phi + rho ||. - x_k||^2 is rho-strongly convex.
  On every non-final step rho d > eps/4, so stationarity <= rho d in both
  branches, and strong convexity at x_{k+1} gives M(x_k) >= M(x_{k+1})
  - rho d^2 + (rho/2) d^2.  With M(x_k) = Phi(x_k) and M(x_{k+1}) =
  Phi(x_{k+1}) + rho d^2, that is Phi(x_k) - Phi(x_{k+1}) >= (rho/2) d^2
  > eps^2 / (32 rho), so ``outer_iteration_bound`` = ceil(32 rho gap /
  eps^2) still holds.
- Failed calls are bounded.  The model's gradient is grad phi + 2 rho
  (. - x_k), so a pair fails only when <grad phi(x+) - grad phi(xbar),
  x+ - xbar> < -rho ||x+ - xbar||^2, which cannot happen once rho >= L,
  the Lipschitz constant of grad phi on the points APG visits.  Every
  raise starts from a failed rho < L, so rho stays at or below
  max(2 L, rho_known).  A proximal step that starts at rho_0 fails at most
  ceil(log2(L / rho_0)) calls, and the one step that holds the call's
  first failure at most 1 + ceil(log2(2 L / max(rho_0, rho_known))): one
  jump, then doublings from max(2 rho_0, rho_known).  Decay lowers
  log2(rho) by at most 1 per converged step, so over K steps it adds at
  most K - 1 failed calls to the ceil(log2(2 L / RHO_FLOOR)) of an
  estimate that never shrinks.
- Stalls are bounded: on every domain APG stops each call after twice its
  worst case at the rho it runs at and the largest curvature estimate it
  has accepted, from the diameter of dom psi or, on an unbounded domain,
  from the distance its first certified iterate proves (see
  ``apg_solve``), and never after more than ``apg.MAX_ITER`` iterations.
- At a finite cap the method is the fixed-rho one, and its bounds hold
  whenever the cap bounds the weak convexity.  Below it, APG's iteration
  bound holds only on the step pairs it tested.

Each APG call is warm-started: a step's first call reuses the gradient at
its centre, which the previous step's certificate computed, a redo the
gradient of its start point and, from the centre, of its first point (see
above), and every call starts from the previous call's final curvature
estimate; the first call starts at ``L_init`` (default L_phi + 2 rho).
#Grad counts calls into ``grad``: one at ``x0`` and one per gradient APG
asks for, less the first gradients that redos reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .apg import apg_solve
from .core import Array, ProxCapableFunction, as_vector, norm

# Starting weak-convexity estimate: the model of a convex phi is still
# strongly convex for any positive rho, so "convex" starts just above 0.
RHO_FLOOR = 1e-6
# Factor on rho after each converged proximal step.  Without it (1.0) an
# estimate that a few early pairs doubled stays high for the rest of the
# call: on the benchmark's EV instance rho climbed to 34 at k = 0, which then
# cost 2,722 gradients instead of 1,047, and the solve 5,123 instead of 3,349.
RHO_DECAY = 0.5
# The fixed backstop on proximal steps per call, read at call time.  The
# step bound ceil(32 rho gap / eps^2) needs the objective gap, which iPPM
# does not know; the benchmark and sweep solves take at most a few dozen.
MAX_STEPS = 10**6


class SubsolverStall(RuntimeError):
    """An inner APG call stopped on its stall guard or at ``apg.MAX_ITER``,
    or iPPM ran out of its MAX_STEPS proximal steps.

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
    """Outcome of one converged iPPM call (every other call raises
    SubsolverStall).

    ``stationarity`` is the certified dist(0, subdiff Phi) at ``x``, at
    most eps: the inner APG certificate (psi's exact subdifferential
    distance) plus the 2 rho ||dx|| proximal term.
    ``rho`` is the final weak-convexity estimate, ``rho_peak`` the largest
    one the call ran at and ``rho_doublings`` the number of times it was
    raised (a jump to ``rho_known`` counts as one); ``L`` is the final
    curvature estimate of the last APG call, a warm start for a later call
    on a nearby model.
    Gradients are not counted here: a call makes one at ``x0`` plus its APG
    calls' calls into ``grad``, less the first gradients its redos from the
    centre reuse, and the caller's oracle counts them.
    """

    x: np.ndarray
    outer_iterations: int
    stationarity: float
    apg_iterations: int
    rho: float
    rho_peak: float
    rho_doublings: int
    L: float


def ippm_solve(
    grad: Callable[[Array], Array],
    psi: ProxCapableFunction,
    x0: Array,
    rho: float,
    L_phi: float,
    eps: float,
    *,
    L_init: Optional[float] = None,
    rho_known: float = 0.0,
) -> IppmResult:
    """Drive Phi = phi + psi to eps-stationarity via proximal point steps,
    where ``grad`` is the gradient of phi, ``rho`` caps the adaptive
    weak-convexity estimate and ``L_phi`` the curvature estimate of each
    APG call (inf: no caps).  ``L_init`` is the first APG call's first
    curvature estimate, and must be given when ``L_phi`` is inf; it may not
    be NaN.  ``rho_known`` (finite, nonnegative) is where the estimate jumps
    at the call's first failed pair test, if doubling lands lower.

    Raises SubsolverStall when an inner APG call stops on its stall guard
    or at ``apg.MAX_ITER``, at any rho, or when MAX_STEPS proximal steps end
    without the stop test holding.
    """
    # Written so that NaN fails; L_phi = inf (no cap) passes.
    if not (rho > 0 and L_phi > 0 and eps > 0):
        raise ValueError("rho, L_phi, eps must be positive")
    if L_init is not None and math.isnan(L_init):
        raise ValueError("L_init must be a number, got nan")
    # Written so that NaN fails.
    if not 0 <= rho_known < math.inf:
        raise ValueError(f"rho_known must be nonnegative and finite, got {rho_known}")
    x0 = as_vector(x0, name="x0")
    psi._check_domain(x0, "x0")

    rho_cap, rho_start = rho, min(RHO_FLOOR, rho)
    rho = rho_peak = rho_start
    doublings = 0

    x_k = x0
    apg_total = 0
    # The model's gradient at its centre is phi's, whatever rho is.
    g_k = grad(x0)
    L_t = L_init

    for k in range(MAX_STEPS):
        x_t, g_t, known = x_k, g_k, None
        while True:
            # This call's first (x, grad(x)).  A redo from the centre
            # evaluates the failed call's first point first again whenever
            # its curvature estimate did not change, and reuses its gradient.
            first = []

            def shifted(x, c=x_k, r=rho, first=first, known=known):
                if first:
                    return grad(x) + 2.0 * r * (x - c)
                if known and x.tobytes() == known[0].tobytes():
                    g = known[1]
                else:
                    g = grad(x)
                first += x, g
                return g + 2.0 * r * (x - c)

            inner = apg_solve(
                shifted, psi, x_t, rho, L_phi + 2.0 * rho, eps / 4.0,
                L_init=L_t, grad_init=g_t, test_mu=rho < rho_cap, center=x_k,
            )
            apg_total += inner.iterations
            # The next call, a redo or the next step, starts at this
            # call's final curvature estimate.
            L_t = inner.L
            if inner.converged:
                break
            if inner.stop != "pair_test":
                where = "its stall guard" if inner.stop == "stall_guard" else "apg.MAX_ITER"
                raise SubsolverStall(
                    f"inner APG stopped at {where} after {inner.iterations} iterations at "
                    f"rho={rho:.3g} without reaching stationarity {eps / 4.0:.3g}"
                )
            # A nonconvex step pair: double rho (at the call's first failure,
            # raise it to rho_known if that is higher) and redo the step,
            # warm from the failed call's best iterate, whose model gradient
            # follows from the returned one by swapping the proximal shift.
            rho_next = min(rho_cap, max(2.0 * rho, 0.0 if doublings else rho_known))
            if inner.x is None:
                x_t, g_t = x_k, g_k
            else:
                x_t = inner.x
                g_t = inner.gradient + 2.0 * (rho_next - rho) * (x_t - x_k)
            rho, known = rho_next, first
            rho_peak = max(rho_peak, rho)
            doublings += 1
        x_next = inner.x
        shift = 2.0 * rho * norm(x_next - x_k)
        if shift <= eps / 2.0:
            return IppmResult(
                x=x_next,
                outer_iterations=k + 1,
                stationarity=inner.stationarity + shift,
                apg_iterations=apg_total,
                rho=rho,
                rho_peak=rho_peak,
                rho_doublings=doublings,
                L=L_t,
            )
        # The next model's gradient at its centre x_next is phi's, which the
        # certificate just computed (up to the old shift).
        g_k = inner.gradient - 2.0 * rho * (x_next - x_k)
        x_k = x_next
        rho = max(rho_start, RHO_DECAY * rho)

    raise SubsolverStall(
        f"iPPM ran MAX_STEPS={MAX_STEPS} proximal steps at rho={rho:.3g} without the "
        f"proximal shift reaching {eps / 2.0:.3g}"
    )
