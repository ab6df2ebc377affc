import math

import numpy as np
import pytest

from almkit.apg import (
    BACKTRACK_GROWTH,
    MAX_DOUBLINGS,
    STEP_DECAY,
    ApgResult,
    apg_solve,
    worst_case_iteration_bound,
)
from almkit.core import (
    DimensionMismatch,
    NonFiniteValue,
    ProxCapableFunction,
    SmoothOracle,
    al_gradient_smooth,
    as_vector,
    norm,
)
from almkit.problems import gen_ev, gen_lcqp
from almkit.prox import (
    BoxSet,
    NonnegBallSet,
    _nonneg_ball_distance,
    box_indicator,
    nonneg_ball_indicator,
    nonneg_indicator,
    stacked,
    zero_function,
)
from helpers import fancy_index_box_distance


def nan_prox_function() -> ProxCapableFunction:
    """A faulty prox that returns NaN, with the orthant-ball distance, which
    reads x and so turns a NaN iterate into a NaN distance."""
    return ProxCapableFunction(
        prox_fn=lambda v, step: np.full_like(v, np.nan),
        value_fn=lambda x: 0.0,
        subdiff_distance_fn=lambda x, v: _nonneg_ball_distance(x, v, 10.0),
    )


# One of each built-in h on R^4.
EXACT_TERMS = {
    "zero": zero_function(),
    "box": box_indicator(BoxSet.cube(-1.0, 1.0, 4)),
    "orthant": nonneg_indicator(),
    "orthant_ball": nonneg_ball_indicator(NonnegBallSet(0.5)),
    "stacked": stacked(box_indicator(BoxSet.cube(-0.3, 0.3, 2)), nonneg_indicator(), 2),
}


def quadratic(d, b):
    """G(x) = 0.5 x'diag(d)x - b'x with known minimizer b/d."""
    d = np.asarray(d, dtype=float)
    b = np.asarray(b, dtype=float)
    return SmoothOracle(
        lambda x: 0.5 * float(x @ (d * x)) - float(b @ x),
        lambda x: d * x - b,
        smoothness=float(np.max(d)),
    )


class TestApgExamples:
    def test_one_step_exact_minimization(self):
        G = quadratic([1.0], [0.0])
        res = apg_solve(G.gradient, zero_function(), np.array([5.0]), mu=1.0, L_G=1.0, eps=1e-10)
        assert res.converged
        assert res.iterations == 1
        assert res.x == pytest.approx([0.0], abs=0)

    def test_box_constrained_scalar(self):
        G = quadratic([1.0], [0.0])
        H = box_indicator(BoxSet(np.array([0.5]), np.array([1.0])))
        res = apg_solve(G.gradient, H, np.array([0.8]), mu=1.0, L_G=1.0, eps=1e-8)
        assert res.converged
        assert res.x == pytest.approx([0.5])
        # -G'(0.5) = -0.5 lies in the lower-bound normal cone, exactly.
        assert res.stationarity == 0.0

    def test_iterations_within_worst_case_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = np.concatenate([[1.0, 100.0], rng.uniform(1.0, 100.0, size=3)])
            b = rng.standard_normal(5)
            x_star = b / d
            x_init = rng.standard_normal(5)
            eps = 1e-6
            G = quadratic(d, b)
            res = apg_solve(G.gradient, zero_function(), x_init, mu=1.0, L_G=100.0, eps=eps)
            x0 = x_init - G.gradient(x_init) / 100.0  # the initialization prox step
            T = worst_case_iteration_bound(
                1.0,
                100.0,
                eps,
                float(np.sum((x_init - x_star) ** 2)),
                float(np.sum((x0 - x_star) ** 2)),
            )
            assert res.converged
            assert res.iterations <= T

    def test_backtracking_from_a_loose_curvature_bound(self):
        # L_G = 1e4 overestimates the true L = 100 a hundredfold; the
        # adaptive step still meets the worst-case bound for L = 100 (a
        # constant step 1/L_G takes about ten times as many iterations).
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = np.concatenate([[1.0, 100.0], rng.uniform(1.0, 100.0, size=3)])
            b = rng.standard_normal(5)
            x_star = b / d
            x_init = rng.standard_normal(5)
            eps = 1e-6
            G = quadratic(d, b)
            res = apg_solve(G.gradient, zero_function(), x_init, mu=1.0, L_G=1e4, eps=eps)
            x0 = x_init - G.gradient(x_init) / 100.0
            T = worst_case_iteration_bound(
                1.0,
                100.0,
                eps,
                float(np.sum((x_init - x_star) ** 2)),
                float(np.sum((x0 - x_star) ** 2)),
            )
            assert res.converged
            assert res.iterations <= T
            assert 1.0 <= res.L <= 1e4

    def test_known_initial_gradient_is_not_recomputed(self):
        d = np.array([1.0, 7.0, 30.0])
        b = np.array([0.3, -2.0, 1.0])
        G_cold, G_warm = quadratic(d, b), quadratic(d, b)
        x_init = np.ones(3)
        cold = apg_solve(G_cold.gradient, zero_function(), x_init, 1.0, 30.0, 1e-9, L_init=3.0)
        warm = apg_solve(
            G_warm.gradient, zero_function(), x_init, 1.0, 30.0, 1e-9, L_init=3.0,
            grad_init=quadratic(d, b).gradient(x_init),
        )
        assert np.array_equal(warm.x, cold.x)
        assert warm.iterations == cold.iterations
        assert G_warm.grad_evals == G_cold.grad_evals - 1
        assert np.array_equal(warm.gradient, G_cold.gradient(warm.x))


class TestApgProperties:
    def test_descent_to_near_optimal_value(self):
        # At termination F(x) <= F* + eps^2 / (2 mu) by strong convexity.
        rng = np.random.default_rng(1)
        d = rng.uniform(1.0, 30.0, size=6)
        b = rng.standard_normal(6)
        eps = 1e-5
        G = quadratic(d, b)
        res = apg_solve(
            G.gradient, zero_function(), np.zeros(6), mu=float(np.min(d)), L_G=float(np.max(d)),
            eps=eps,
        )
        f_star = -0.5 * float(np.sum(b * b / d))
        assert G.value(res.x) <= f_star + eps**2 / (2.0 * np.min(d)) + 1e-15

    @pytest.mark.parametrize("name", sorted(EXACT_TERMS))
    def test_stationarity_is_the_exact_distance_of_h(self, name):
        # Every h carries its exact distance, and a converged call reports
        # that distance at the point it returns, bit for bit.
        H = EXACT_TERMS[name]
        rng = np.random.default_rng(2)
        for _ in range(5):
            d = rng.uniform(1.0, 20.0, size=4)
            b = rng.standard_normal(4) * 3
            G = quadratic(d, b)
            res = apg_solve(
                G.gradient, H, np.zeros(4), mu=float(np.min(d)), L_G=float(np.max(d)), eps=1e-6
            )
            assert res.converged
            exact = H.subdiff_distance(res.x, -G.gradient(res.x))
            assert res.stationarity.hex() == exact.hex()

    def test_deterministic(self):
        d = np.array([1.0, 7.0, 30.0])
        b = np.array([0.3, -2.0, 1.0])
        runs = [
            apg_solve(quadratic(d, b).gradient, zero_function(), np.ones(3), 1.0, 30.0, 1e-9)
            for _ in range(2)
        ]
        assert runs[0].iterations == runs[1].iterations
        assert np.array_equal(runs[0].x, runs[1].x)
        assert runs[0].stationarity == runs[1].stationarity

    def test_counts_gradients(self):
        G = quadratic([2.0], [1.0])
        res = apg_solve(G.gradient, zero_function(), np.array([3.0]), 2.0, 2.0, 1e-12)
        # One init gradient and one at the first prox point, the minimizer;
        # the step from there does not move and reuses that gradient.
        assert res.iterations == 1
        assert G.grad_evals == 2


class TestApgErrors:
    def test_invalid_curvature_rejected(self):
        G = quadratic([1.0], [0.0])
        with pytest.raises(ValueError):
            apg_solve(G.gradient, zero_function(), np.zeros(1), mu=2.0, L_G=1.0, eps=1e-6)

    def test_malformed_initial_gradient_rejected(self):
        G = quadratic([1.0, 2.0], [0.0, 0.0])
        for bad in (np.zeros(3), np.array([0.0, np.nan])):
            with pytest.raises(ValueError):
                apg_solve(G.gradient, zero_function(), np.zeros(2), 1.0, 2.0, 1e-6, grad_init=bad)

    def test_infeasible_start_rejected(self):
        G = quadratic([1.0], [0.0])
        H = box_indicator(BoxSet(np.array([0.0]), np.array([1.0])))
        with pytest.raises(ValueError):
            apg_solve(G.gradient, H, np.array([5.0]), mu=1.0, L_G=1.0, eps=1e-6)

    def test_exhaustion_returns_best_iterate_flagged(self):
        d = np.array([1.0, 400.0])
        G = quadratic(d, np.array([1.0, 1.0]))
        res = apg_solve(G.gradient, zero_function(), np.zeros(2), 1.0, 400.0, eps=1e-14, max_iter=3)
        assert not res.converged
        assert res.stop == "max_iter"
        assert res.iterations == 3
        assert np.isfinite(res.stationarity)

    def test_nan_iterate_fails_in_first_iteration(self):
        # The gradient ignores x, so only the distance's output check can
        # notice the NaN iterate produced by a faulty prox.
        calls = [0]

        def grad(x):
            calls[0] += 1
            return np.ones(2)

        nan_prox = nan_prox_function()
        with pytest.raises(NonFiniteValue):
            apg_solve(grad, nan_prox, np.zeros(2), 1.0, 1.0, 1e-6, max_iter=1000)
        assert calls[0] == 3  # the initialization gradient plus one iteration

    def test_nan_iterate_is_never_certified(self):
        # Neither the gradient nor the box's distance reads x, so the NaN
        # iterate passes the certificate with stationarity sqrt(2) 1e-9; the
        # check on the iterate a call returns converged refuses it.
        calls = [0]

        def grad(x):
            calls[0] += 1
            return np.full(2, 1e-9)

        box = box_indicator(BoxSet.cube(-1.0, 1.0, 2))
        nan_prox = ProxCapableFunction(
            lambda v, step: np.full_like(v, np.nan), lambda x: 0.0, box._subdiff_fn
        )
        with pytest.raises(NonFiniteValue):
            apg_solve(grad, nan_prox, np.zeros(2), 1.0, 1.0, 1e-6)
        assert calls[0] == 3  # the initialization gradient plus one iteration

    def test_nan_prox_fails_after_bounded_backtracking(self):
        # NaN fails the step test, so the estimate doubles from L_init = 1
        # up to L_G = 1024, where the step is accepted and the distance's
        # output check fires: one gradient per trial step on top of the
        # first three.
        calls = [0]

        def grad(x):
            calls[0] += 1
            return np.ones(2)

        nan_prox = nan_prox_function()
        with pytest.raises(NonFiniteValue):
            apg_solve(grad, nan_prox, np.zeros(2), 1.0, 1024.0, 1e-6, max_iter=1000, L_init=1.0)
        assert calls[0] == 3 + 10

    def test_uncapped_nan_prox_fails_after_bounded_doubling(self):
        # Without a cap (L_G = inf) NaN keeps failing the step test; the
        # step gives up after MAX_DOUBLINGS doublings of L_init = 1.
        calls = [0]

        def grad(x):
            calls[0] += 1
            return np.ones(2)

        nan_prox = nan_prox_function()
        with pytest.raises(NonFiniteValue):
            apg_solve(
                grad, nan_prox, np.zeros(2), 1.0, math.inf, 1e-6, max_iter=1000, L_init=1.0
            )
        assert calls[0] == 3 + MAX_DOUBLINGS

    def test_uncapped_curvature_needs_a_finite_start(self):
        # A NaN start is refused under a finite cap too: it is not clipped
        # into [mu, L_G].
        G = quadratic([1.0], [0.0])
        starts = [(math.inf, None), (math.inf, math.inf), (math.inf, math.nan), (4.0, math.nan)]
        for L_G, L_init in starts:
            with pytest.raises(ValueError, match="finite"):
                apg_solve(G.gradient, zero_function(), np.zeros(1), 1.0, L_G, 1e-6, L_init=L_init)
        assert G.grad_evals == 0
        res = apg_solve(G.gradient, zero_function(), np.array([5.0]), 1.0, math.inf, 1e-10, L_init=1.0)
        assert res.converged and res.x == pytest.approx([0.0], abs=0)

    def test_uncertifiable_box_call_stops_at_twice_its_worst_case(self):
        # Every gradient is at least 1e-100 in magnitude in floating point
        # (x - 0.3 is 0 or a multiple of 2^-54), so eps = 1e-150 is out of
        # reach; on the bounded box the call stops at twice the worst case
        # at its largest accepted L (here the cap, 1), not at max_iter.
        box = box_indicator(BoxSet.cube(-1.0, 1.0, 1))
        eps = 1e-150
        res = apg_solve(lambda x: x - 0.3 + 1e-100, box, np.zeros(1), 1.0, 1.0, eps, max_iter=20_000)
        bound = worst_case_iteration_bound(1.0, 1.0, eps, 4.0, 4.0)
        assert not res.converged and res.stop == "stall_guard"
        assert res.iterations == 2 * bound < 20_000
        assert res.stationarity >= 1e-100


    def test_uncertifiable_unbounded_call_stops_at_its_first_iterate_bound(self):
        # On an unbounded domain the guard takes R = stat_1 / mu at the
        # first certified iterate, a bound on its distance to the minimizer
        # of the mu-strongly convex model, and stops one iteration after
        # twice the worst case from R at its largest accepted L (the cap).
        def grad(x):
            return x - 0.3 + 1e-100

        mu, eps = 0.5, 1e-150
        first = apg_solve(grad, zero_function(), np.zeros(1), mu, 1.0, eps, max_iter=1)
        R = first.stationarity / mu
        res = apg_solve(grad, zero_function(), np.zeros(1), mu, 1.0, eps, max_iter=20_000)
        assert not res.converged and res.stop == "stall_guard"
        assert res.iterations == 1 + 2 * worst_case_iteration_bound(mu, 1.0, eps, R * R, R * R)
        assert res.iterations < 20_000

    def test_overflowing_distance_bound_leaves_max_iter_as_the_budget(self):
        # At mu = 1e-300 the first iterate's R = stat_1 / mu squares past
        # the float range: the worst case is inf, and max_iter stops the call.
        assert worst_case_iteration_bound(1.0, 1.0, 1e-6, math.inf, math.inf) == math.inf
        res = apg_solve(lambda x: x - 0.3 + 1e-100, zero_function(), np.zeros(1), 1e-300, 1.0,
                        1e-150, max_iter=50)
        assert not res.converged and res.stop == "max_iter" and res.iterations == 50

def logged_box(box: BoxSet, certified: list) -> ProxCapableFunction:
    """The box indicator, appending each certified (x, stat) to ``certified``:
    APG measures the exact distance once per accepted iterate, in order."""
    exact = box_indicator(box)

    def distance(x, v):
        stat = exact.subdiff_distance(x, v)
        certified.append((x, stat))
        return stat

    return ProxCapableFunction(
        prox_fn=lambda v, step: np.clip(v, box.lower, box.upper),
        value_fn=exact.value,
        subdiff_distance_fn=distance,
        diameter=box.diameter,
        cone_subdiff=True,
    )


class TestRelativeStop:
    def test_stops_at_the_first_iterate_meeting_the_relative_test(self):
        G = quadratic([1.0, 4.0, 20.0, 60.0], [3.0, -2.0, 5.0, 0.5])
        centre, mu, eps = np.zeros(4), 1.0, 1e-10
        certified = []
        H = logged_box(BoxSet.cube(-1.0, 1.0, 4), certified)
        res = apg_solve(G.gradient, H, centre, mu, 60.0, eps, center=centre)
        met = [stat <= eps or stat <= mu * norm(x - centre) for x, stat in certified]
        assert res.converged and res.stop == "converged" and eps < res.stationarity
        assert len(met) == res.iterations and met.index(True) == res.iterations - 1
        assert np.array_equal(res.x, certified[-1][0])
        # Without a centre the call runs on to eps along the same iterates.
        relative = certified[:]
        certified.clear()
        full = apg_solve(G.gradient, H, centre, mu, 60.0, eps)
        assert full.converged and full.stationarity <= eps < res.stationarity
        assert full.iterations > res.iterations
        for (x, stat), (x_full, stat_full) in zip(relative, certified):
            assert x.tobytes() == x_full.tobytes() and stat == stat_full

    def test_no_relative_test_when_mu_times_diameter_is_at_most_eps(self):
        # mu D = 1e-3 * 4 <= eps: a centre in the box cannot stop the call
        # before eps does, so the call with one replays the call without.
        H = box_indicator(BoxSet.cube(-1.0, 1.0, 4))
        x_init = np.array([0.5, -0.5, 0.25, 1.0])

        def solve(c):
            G = quadratic([1.0, 4.0, 20.0, 60.0], [3.0, -2.0, 5.0, 0.5])
            res = apg_solve(G.gradient, H, x_init, 1e-3, 60.0, 1e-2, center=c)
            return res, G.grad_evals

        (plain, plain_grads), (centred, centred_grads) = map(solve, (None, -np.ones(4)))
        assert plain.converged and plain.iterations > 1
        assert plain.x.tobytes() == centred.x.tobytes()
        assert plain.gradient.tobytes() == centred.gradient.tobytes()
        assert plain.stationarity.hex() == centred.stationarity.hex()
        assert (plain.iterations, plain_grads, plain.L, plain.stop) == (
            centred.iterations, centred_grads, centred.L, centred.stop
        )

    def test_centre_of_another_length_rejected(self):
        G = quadratic([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="^center"):
            apg_solve(G.gradient, zero_function(), np.zeros(2), 1.0, 2.0, 1e-6, center=np.zeros(3))


class TestWorstCaseBound:
    def test_finite_for_every_positive_eps(self):
        # eps^2 underflows to 0 below about 1e-162; the bound must not.
        for eps in (1e-3, 1e-170, 5e-324):
            bound = worst_case_iteration_bound(1e-6, 3.0, eps, 4.0, 4.0)
            assert isinstance(bound, int) and 1 < bound < 10**9

    def test_matches_the_closed_form(self):
        mu, L, eps, d1, d0 = 0.5, 8.0, 1e-4, 2.0, 3.0
        arg = 64.0 * L**2 * (L * d1 + mu * d0) / (eps**2 * mu)
        expected = math.ceil(math.sqrt(L / mu) * math.log(arg) + 1.0)
        assert worst_case_iteration_bound(mu, L, eps, d1, d0) == expected
        assert worst_case_iteration_bound(1.0, 1.0, 10.0, 0.0, 0.0) == 1


def reference_apg(grad, H, x_init, mu, L_G, eps, max_iter, *, L_init=None, grad_init=None,
                  test_mu=False):
    """The APG loop as written with ``np.linalg.norm`` and one difference per
    use, kept verbatim as the reference the lean loop must replay."""
    L = L_G if L_init is None else min(L_G, max(mu, float(L_init)))
    if not (0 < mu <= L_G and math.isfinite(L)):
        raise ValueError(f"need 0 < mu <= L_G and a finite start, got {mu=}, {L_G=}, {L_init=}")
    if eps <= 0 or max_iter < 1:
        raise ValueError("eps and max_iter must be positive")
    x_init = as_vector(x_init, name="x_init")
    if not math.isfinite(H.value(x_init)):
        raise ValueError("x_init lies outside dom(H)")
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
    # Stall guard: on a bounded domain the budget follows the largest
    # accepted estimate L_max; an unbounded one has none.
    D_sq = H.diameter**2
    budget, L_max = max_iter, (0.0 if D_sq < math.inf else math.inf)

    t = 0
    while t < budget:
        t += 1
        if g_bar is None:
            g_bar = grad(x_bar)
        for _ in range(MAX_DOUBLINGS + 1):
            step = 1.0 / L
            x_next = H._prox(x_bar - step * g_bar, step)
            g_next = grad(x_next)
            dx = x_bar - x_next
            # Written so that NaN fails the test and keeps doubling.
            if L >= L_G or np.linalg.norm(g_next - g_bar) <= L * np.linalg.norm(dx):
                break
            L = min(L_G, BACKTRACK_GROWTH * L)
        else:
            raise NonFiniteValue(f"APG step rejected {MAX_DOUBLINGS} times at iteration {t}")
        if L > L_max:
            L_max = L
            budget = min(max_iter, 2 * worst_case_iteration_bound(mu, L, eps, D_sq, D_sq))
        # Written so that NaN passes the test and reaches the guards below.
        if test_mu and float(dx @ (g_next - g_bar)) > -mu * float(dx @ dx):
            break
        stat = H._subdiff(x_next, -g_next)
        if stat < best_stat:
            best_stat, best_x, best_g = stat, x_next, g_next
        if stat <= eps:
            return ApgResult(
                x=x_next,
                iterations=t,
                stationarity=stat,
                converged=True,
                gradient=g_next,
                L=L,
                stop="converged",
            )
        if float(dx @ (x_next - x_prev)) > 0.0:
            x_bar, g_bar = x_next, g_next
        else:
            alpha = math.sqrt(mu / L)
            x_bar, g_bar = x_next + (1.0 - alpha) / (1.0 + alpha) * (x_next - x_prev), None
        x_prev = x_next
        L = max(mu, STEP_DECAY * L)

    return ApgResult(
        x=best_x,
        iterations=t,
        stationarity=best_stat,
        converged=False,
        gradient=best_g,
        L=L,
        # The reference predates the stop reasons; the test checks the lean
        # loop's own.
        stop=None,
    )


def al_subproblem(problem, beta, mu):
    """iPPM's model of the AL subproblem at beta, y = 0, centred at x0."""
    y = np.zeros(problem.constraints.n_constraints)
    centre = problem.x0

    def grad(x):
        return al_gradient_smooth(x, y, beta, problem) + 2.0 * mu * (x - centre)

    return grad


def fancy_index_box(box: BoxSet) -> ProxCapableFunction:
    """The box indicator with the clip prox and the fancy-index distance."""
    return ProxCapableFunction(
        prox_fn=lambda v, step: np.clip(v, box.lower, box.upper),
        value_fn=box_indicator(box).value,
        subdiff_distance_fn=lambda x, v: fancy_index_box_distance(x, v, box),
        diameter=box.diameter,
        cone_subdiff=True,
    )


def replay_case(name):
    """(problem, beta, H for the lean loop, H for the reference, mu, test_mu)."""
    if name == "box_lcqp":
        inst = gen_lcqp(3, 20, 1.0, seed=5)
        problem = inst.to_problem()
        box = BoxSet(inst.lower, inst.upper)
        return problem, 10.0, problem.nonsmooth, fancy_index_box(box), 1.0, False
    if name == "zero_ev":
        inst = gen_ev(20, 0)
        problem = inst.to_problem()
        # mu is EV's former tuned weak-convexity cap at beta = 1,
        # 0.2 |lambda_min(Q)| + 0.25 beta.
        mu = 0.2 * max(0.0, -float(np.linalg.eigvalsh(inst.Q)[0])) + 0.25 * 1.0
        return problem, 1.0, problem.nonsmooth, zero_function(), mu, False
    # At mu = 0.1 a step pair of this nonconvex model fails the test at
    # iteration 27.
    problem = gen_ev(20, 0).to_problem()
    return problem, 1.0, problem.nonsmooth, zero_function(), 0.1, True


class TestApgReplay:
    @pytest.mark.parametrize("name", ["box_lcqp", "zero_ev", "test_mu"])
    def test_matches_reference_loop_bitwise(self, name):
        # The lean loop evaluates the same gradients at the same points, bit
        # for bit, and ends with the same certificate, count and estimate.
        problem, beta, H, H_ref, mu, test_mu = replay_case(name)
        grad = al_subproblem(problem, beta, mu)
        runs = []
        for solve, h in ((apg_solve, H), (reference_apg, H_ref)):
            points = []

            def logged(x):
                points.append(x.tobytes())
                return grad(x)

            res = solve(logged, h, problem.x0, mu, math.inf, 1e-8, 3000,
                        L_init=problem.smooth.L, test_mu=test_mu)
            runs.append((res, points))
        (lean, lean_points), (ref, ref_points) = runs
        # Equal point lists mean equal call counts.
        assert len(lean_points) > 10
        assert lean_points == ref_points
        assert lean.x.tobytes() == ref.x.tobytes()
        assert lean.gradient.tobytes() == ref.gradient.tobytes()
        assert lean.stationarity.hex() == ref.stationarity.hex()
        assert (lean.iterations, lean.L, lean.converged) == (ref.iterations, ref.L, ref.converged)
        # The convexity case stops at a failing pair; the others certify.
        assert lean.converged is not test_mu
        assert lean.stop == ("pair_test" if test_mu else "converged")
