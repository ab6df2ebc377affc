"""Runtime verification of the solver's structural guarantees: regularity
constant estimation along trajectories, feasibility-decay checks, certified
dual-norm bounds for the damped step-size policy, and outer-iteration
prediction.

These analyses are pure functions over immutable reports and problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .core import ProblemSpec, as_vector
from .ialm import LOG2_SQ, SolveReport

# Iterates closer to feasibility than this have no meaningful ratio.
_FEASIBLE_ATOL = 1e-12

# An upper bound on c_bar = sum_{t>=0} 1 / ((t+1) [log(t+2)]^2): the sum of
# the first 10^6 terms plus the integral bound 1 / log(10^6) on the rest,
# which follows from comparing each later term with the integral of
# 1 / (t log^2 t).
CBAR_BOUND = 3.387735535200845


@dataclass(frozen=True)
class RegularityTrace:
    """Per-iterate lower-bound estimates of the regularity constant.

    ``values[k]`` is dist(-J_c(x)'c(x), N(x)) / ||c(x)|| at trajectory entry
    k, or None at (near-)feasible iterates.  ``supported`` is False when the
    nonsmooth term's subdifferential is not a cone, so not scale-free, in
    which case no estimate is produced (never a silent zero).
    """

    supported: bool
    values: tuple
    v_min: Optional[float]
    reason: str = ""


def estimate_regularity_v(
    trajectory: Iterable[np.ndarray], problem: ProblemSpec
) -> RegularityTrace:
    """Estimate v with v ||c(x)|| <= dist(-J_c(x)'c(x), subdiff h(x)/beta)
    at each iterate x of ``trajectory``.

    Requires the nonsmooth term's subdifferential to be a cone (indicators
    of simple sets, or the zero function), which makes the right-hand side
    independent of the penalty scale; every ``ProblemSpec``'s h has the
    exact distance oracle.  Each iterate is linearized once, through
    ``ConstraintOracle._linearize``.
    """
    h = problem.nonsmooth
    if not h.cone_subdiff:
        return RegularityTrace(
            supported=False,
            values=(),
            v_min=None,
            reason="nonsmooth term's subdifferential is not a cone",
        )
    values = []
    finite = []
    for x in trajectory:
        x = as_vector(x, problem.dim, "x")
        h._check_domain(x)
        c, jt = problem.constraints._linearize(x)
        c_norm = float(np.linalg.norm(c))
        if c_norm < _FEASIBLE_ATOL:
            values.append(None)
            continue
        v_hat = h._subdiff(x, -jt(c)) / c_norm
        values.append(v_hat)
        finite.append(v_hat)
    return RegularityTrace(
        supported=True,
        values=tuple(values),
        v_min=min(finite) if finite else None,
    )


def trajectory_from_report(report: SolveReport) -> list[np.ndarray]:
    """The iterates x_{k+1} of a solve, one per outer record, as
    ``estimate_regularity_v`` takes them."""
    return [rec.x for rec in report.records]


@dataclass(frozen=True)
class FeasibilityDecayVerdict:
    """Whether ||c(x_k)|| beta_{k-1} stays bounded after a two-iteration
    burn-in; ``constant`` is the median post-burn-in product and
    ``max_product`` the largest.

    Healthy runs keep the product within a constant band: dual updates can
    push it well below its early plateau, and near-unit dual steps make it
    oscillate inside the band, so the check compares window peaks (late
    versus early) within factor 3 instead of pointwise deviation.  A
    regularity failure shows up as sustained geometric growth, which the
    peak comparison catches.
    """

    passed: bool
    constant: float
    max_product: float


def check_feasibility_decay(report: SolveReport, sigma: float) -> FeasibilityDecayVerdict:
    """Verify the 1/beta feasibility decay on a solve trajectory."""
    records = report.records
    if len(records) < 3:
        raise ValueError("need at least 3 outer records to check feasibility decay")
    # Written so that NaN fails.
    if not sigma > 1:
        raise ValueError("sigma must exceed 1")
    tail = [rec.pres * rec.beta for rec in records[2:]]
    mid = len(tail) // 2
    if mid == 0:
        passed = True
    else:
        passed = max(tail[mid:]) <= 3.0 * max(tail[:mid])
    return FeasibilityDecayVerdict(
        passed=passed,
        constant=float(np.median(tail)),
        max_product=float(max(tail)),
    )


def dual_norm_bound(w0: float, c0_norm: float) -> float:
    """Certified upper bound on ||y_k|| under the damped (theoretical) policy.

    Every dual increment has norm at most w0 gamma_k, so ||y_k|| is bounded
    by w0 (log 2)^2 ||c(x0)|| c_bar, with c_bar over-approximated by
    ``CBAR_BOUND``.
    """
    # Written so that NaN fails.
    if not (w0 >= 0 and c0_norm >= 0):
        raise ValueError("w0 and c0_norm must be nonnegative")
    if w0 == 0.0 or c0_norm == 0.0:
        return 0.0
    return w0 * LOG2_SQ * c0_norm * CBAR_BOUND


def predict_outer_iterations(
    eps: float, B0: float, B_c: float, y_max: float, v: float, beta0: float, sigma: float
) -> int:
    """K = ceil(log_sigma C) + 1 with C = (eps + B0 + B_c y_max) / (v beta0 eps)."""
    if min(eps, v, beta0) <= 0 or sigma <= 1 or min(B0, B_c, y_max) < 0:
        raise ValueError("invalid inputs to outer-iteration prediction")
    C = (eps + B0 + B_c * y_max) / (v * beta0 * eps)
    val = math.log(C) / math.log(sigma)
    # Nudge below integer boundaries so exact powers are not over-counted.
    K = math.ceil(val - 1e-12) + 1
    return max(K, 1)
