import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import almkit.ippm
from almkit.core import SmoothOracle
from almkit.ippm import RHO_FLOOR, SubsolverStall, ippm_solve, outer_iteration_bound
from almkit.prox import BoxSet, box_indicator, zero_function


def concave_scalar(a, b=0.0):
    """phi(x) = -(a/2) x^2 + b x: a-weakly convex, a-smooth."""
    return SmoothOracle(
        lambda x: -0.5 * a * float(x @ x) + b * float(x[0]),
        lambda x: -a * x + b,
        smoothness=a,
    )


def convex_quadratic(n):
    return SmoothOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), smoothness=1.0)


class TestIppmExamples:
    def test_stationary_start_stops_immediately(self):
        res = ippm_solve(
            convex_quadratic(3).gradient, zero_function(), np.zeros(3), rho=1.0, L_phi=1.0, eps=1e-6
        )
        assert res.stationarity <= 1e-6
        assert res.outer_iterations == 1
        assert res.x == pytest.approx([0.0, 0.0, 0.0], abs=0)

    def test_concave_objective_pushed_to_boundary(self):
        psi = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0])))
        res = ippm_solve(
            concave_scalar(1.0).gradient, psi, np.array([0.5]), rho=1.0, L_phi=1.0, eps=1e-6
        )
        assert res.stationarity <= 1e-6
        assert res.x == pytest.approx([1.0], abs=1e-6)
        # Independently recomputed stationarity at the output.
        grad = -res.x
        exact = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0]))).subdiff_distance(res.x, -grad)
        assert exact <= 1e-6

    def test_worst_case_outer_bound_value(self):
        assert outer_iteration_bound(rho=1.0, eps=0.1, gap=1.0) == 3200


def recorded_apg_calls(monkeypatch):
    """Record (mu, result) of each APG call iPPM makes."""
    calls = []
    apg = almkit.ippm.apg_solve

    def recorded(grad, H, x, mu, *args, **kwargs):
        res = apg(grad, H, x, mu, *args, **kwargs)
        calls.append((mu, res))
        return res

    monkeypatch.setattr(almkit.ippm, "apg_solve", recorded)
    return calls


class TestIppmProperties:
    def test_monotone_proximal_descent(self, monkeypatch):
        # Each converged APG call ends one proximal step; its mu is the
        # step's rho, and its model is mu-strongly convex on every pair
        # APG tested.
        calls = recorded_apg_calls(monkeypatch)
        psi = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0])))
        phi = concave_scalar(1.0, b=0.3)
        eps = 1e-6
        res = ippm_solve(phi.gradient, psi, np.array([-0.9]), rho=1.0, L_phi=1.0, eps=eps)
        steps = [(r.x, r.stationarity, mu) for mu, r in calls if r.converged]
        assert res.stationarity <= eps and len(steps) == res.outer_iterations

        def total(x):
            return phi.value(x) + psi.value(x)

        prev = np.array([-0.9])
        for x_next, stat, rho in steps:
            assert stat <= eps / 4.0
            lhs = total(x_next) + rho * float(np.sum((x_next - prev) ** 2))
            assert lhs <= total(prev) + (eps / 4.0) ** 2 / (2.0 * rho) + 1e-12
            prev = x_next

    def test_outer_count_within_bound_when_optimum_known(self):
        psi = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0])))
        phi = concave_scalar(1.0)
        eps = 1e-4
        res = ippm_solve(phi.gradient, psi, np.array([0.5]), rho=1.0, L_phi=1.0, eps=eps)
        gap = (phi.value(np.array([0.5]))) - (phi.value(np.array([1.0])))
        assert res.outer_iterations <= outer_iteration_bound(1.0, eps, gap)

    def test_certified_stationarity_verified_independently(self):
        rng = np.random.default_rng(0)
        box = BoxSet.cube(-1.0, 1.0, 2)
        psi = box_indicator(box)
        for _ in range(5):
            d = rng.uniform(0.5, 3.0, size=2) * np.array([-1.0, 1.0])
            b = rng.standard_normal(2)
            phi = SmoothOracle(
                lambda x, d=d, b=b: 0.5 * float(x @ (d * x)) + float(b @ x),
                lambda x, d=d, b=b: d * x + b,
                smoothness=float(np.max(np.abs(d))),
            )
            eps = 1e-6
            rho = max(-float(np.min(d)), 0.5)
            res = ippm_solve(phi.gradient, psi, np.zeros(2), rho=rho, L_phi=phi.L, eps=eps)
            assert res.stationarity <= eps
            exact = box_indicator(box).subdiff_distance(res.x, -phi.gradient(res.x))
            assert exact <= eps
            assert exact <= res.stationarity + 1e-12

    def test_grad_evals_are_real_calls_and_centre_gradients_are_reused(self, monkeypatch):
        # Every APG call after the first reuses the gradient at its start
        # point (a step's centre, or a redo's warm start), and a redo from
        # the centre reuses the failed call's first gradient when its first
        # point is bitwise the same, so the total stays below one gradient
        # per proximal step plus two per APG iteration.
        rng = np.random.default_rng(3)
        d = np.array([-2.0, 0.5, 3.0, 10.0, 40.0])
        b = rng.standard_normal(5)
        calls = [0]

        def grad(x):
            calls[0] += 1
            return d * x + b

        # The calls into the gradient each APG call receives, the point of
        # its first one, and its result.
        apg_grads, firsts, results = [], [], []
        apg = almkit.ippm.apg_solve

        def counted_apg(grad, *args, **kwargs):
            apg_grads.append(0)

            def counted(x):
                if apg_grads[-1] == 0:
                    firsts.append(x.tobytes())
                apg_grads[-1] += 1
                return grad(x)

            results.append(apg(counted, *args, **kwargs))
            return results[-1]

        monkeypatch.setattr(almkit.ippm, "apg_solve", counted_apg)
        psi = box_indicator(BoxSet.cube(-1.0, 1.0, 5))
        res = ippm_solve(grad, psi, np.zeros(5), rho=2.0, L_phi=40.0, eps=1e-6)
        assert res.stationarity <= 1e-6 and len(apg_grads) > 10
        assert len(apg_grads) == res.outer_iterations + res.rho_doublings
        reused = sum(
            not failed.converged and first == redo_first
            for failed, first, redo_first in zip(results, firsts, firsts[1:])
        )
        assert reused > 0
        assert calls[0] == 1 + sum(apg_grads) - reused
        assert calls[0] < res.outer_iterations + 2 * res.apg_iterations

    def test_deterministic(self):
        psi = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0])))
        phis = [concave_scalar(1.0, 0.2) for _ in range(2)]
        runs = [ippm_solve(phi.gradient, psi, np.array([0.1]), 1.0, 1.0, 1e-8) for phi in phis]
        assert np.array_equal(runs[0].x, runs[1].x)
        assert runs[0].outer_iterations == runs[1].outer_iterations
        assert phis[0].grad_evals == phis[1].grad_evals > 0


def box_qp(d, seed):
    """phi(x) = x'diag(d)x/2 + b'x on the box [-1, 1]^n: its gradient
    callable, the box and the box indicator."""
    b = np.random.default_rng(seed).standard_normal(len(d))
    box = BoxSet.cube(-1.0, 1.0, len(d))
    return (lambda x: d * x + b), box, box_indicator(box)


class TestAdaptiveWeakConvexity:
    def test_convex_problem_keeps_the_floor_and_saves_gradients(self, monkeypatch):
        d = np.array([0.5, 1.0, 3.0, 10.0, 40.0])
        grad, _, psi = box_qp(d, 3)
        calls = [0, 0]

        def counted(run):
            def wrapped(x):
                calls[run] += 1
                return grad(x)

            return wrapped

        res = ippm_solve(counted(0), psi, np.zeros(5), rho=1.0, L_phi=40.0, eps=1e-6)
        assert res.stationarity <= 1e-6
        assert res.rho == RHO_FLOOR and res.rho_doublings == 0
        # Starting the estimate at the cap runs the fixed-rho method.
        monkeypatch.setattr(almkit.ippm, "RHO_FLOOR", 1.0)
        fixed = ippm_solve(counted(1), psi, np.zeros(5), rho=1.0, L_phi=40.0, eps=1e-6)
        assert fixed.stationarity <= 1e-6 and fixed.rho == 1.0
        assert calls[0] < calls[1]

    def test_nonconvex_problem_doubles_and_certifies(self):
        d = np.array([-2.0, 0.5, 3.0, 10.0, 40.0])
        grad, box, psi = box_qp(d, 3)
        eps = 1e-6
        res = ippm_solve(grad, psi, np.zeros(5), rho=2.0, L_phi=40.0, eps=eps)
        assert res.stationarity <= eps
        assert res.rho_doublings >= 1 and RHO_FLOOR < res.rho <= 2.0
        # The bound the module docstring proves: an estimate that never
        # shrinks doubles at most ceil(log2(cap / RHO_FLOOR)) times, and
        # decay adds at most one failed call per further step.
        bound = math.ceil(math.log2(2.0 / RHO_FLOOR)) + res.outer_iterations - 1
        assert res.rho_doublings <= bound
        assert box_indicator(box).subdiff_distance(res.x, -grad(res.x)) <= eps

    def test_warm_redo_starts_at_the_failed_iterate_without_a_gradient(self, monkeypatch):
        evaluated = []
        grad, _, psi = box_qp(np.array([-2.0, 0.5, 3.0, 10.0, 40.0]), 3)

        def logged(x):
            evaluated.append(x.tobytes())
            return grad(x)

        calls = []
        apg = almkit.ippm.apg_solve

        def recorded(grad, H, x, mu, *args, **kwargs):
            first, received = len(evaluated), []

            def counted(z):
                received.append(z.tobytes())
                return grad(z)

            res = apg(counted, H, x, mu, *args, **kwargs)
            calls.append((x, mu, kwargs["grad_init"], res, evaluated[first:], received))
            return res

        monkeypatch.setattr(almkit.ippm, "apg_solve", recorded)
        res = ippm_solve(logged, psi, np.zeros(5), rho=math.inf, L_phi=math.inf, eps=1e-6,
                         L_init=40.0)
        assert res.stationarity <= 1e-6
        # A redo whose first point is the failed call's first point reuses
        # that call's gradient there.
        reused = sum(
            failed[5][0] == redo[5][0] for failed, redo in zip(calls, calls[1:])
            if not failed[3].converged
        )
        assert len(evaluated) == 1 + sum(len(c[5]) for c in calls) - reused
        centre, warm = np.zeros(5), 0
        for (_, mu, _, failed, _, _), (x, mu_next, g, _, points, _) in zip(calls, calls[1:]):
            if failed.converged:
                centre = failed.x
            elif failed.x is not None:
                # A redo after a failed pair test starts at the failed call's
                # best iterate, with the new model's gradient there handed
                # in, and evaluates no gradient at that start.
                warm += 1
                assert failed.stop == "pair_test" and mu_next == 2.0 * mu
                assert x is failed.x
                model = grad(x) + 2.0 * mu_next * (x - centre)
                assert np.allclose(g, model, rtol=0.0, atol=1e-12)
                assert x.tobytes() not in points
        assert warm > 0

    def test_centre_redo_reuses_the_failed_calls_first_gradient(self, monkeypatch):
        # phi = (-x1^2 + 2 x2^2)/2 + b'x on [-1, 1]^2 from (0.8, 0): at
        # rho = 0.6 the first call fails its first pair test, and the redo
        # from the centre, at rho = 1.2 and the same curvature estimate,
        # evaluates the failed call's first point first.  That gradient is
        # reused: the solve makes one call fewer than the gradients its APG
        # calls ask for plus the one at x0, and no point twice.
        monkeypatch.setattr(almkit.ippm, "RHO_FLOOR", 0.6)
        d, b = np.array([-1.0, 2.0]), np.array([0.3, 0.5])
        points = []

        def grad(x):
            points.append(x.tobytes())
            return d * x + b

        calls = []
        apg = almkit.ippm.apg_solve

        def recorded(grad, H, x, mu, *args, **kwargs):
            received = []

            def counted(z):
                received.append(z.tobytes())
                return grad(z)

            res = apg(counted, H, x, mu, *args, **kwargs)
            calls.append((kwargs["L_init"], res, received))
            return res

        monkeypatch.setattr(almkit.ippm, "apg_solve", recorded)
        psi = box_indicator(BoxSet.cube(-1.0, 1.0, 2))
        res = ippm_solve(grad, psi, np.array([0.8, 0.0]), rho=math.inf, L_phi=math.inf,
                         eps=1e-6, L_init=4.0)
        assert res.stationarity <= 1e-6 and res.rho_doublings == 1
        (_, failed, failed_points), (L_redo, _, redo_points) = calls[:2]
        assert failed.stop == "pair_test" and failed.x is None and L_redo == failed.L
        assert redo_points[0] == failed_points[0]
        assert len(points) == 1 + sum(len(received) for _, _, received in calls) - 1
        assert len(set(points)) == len(points)

    def test_only_failed_pair_tests_double_rho_and_steps_halve_it(self, monkeypatch):
        calls = recorded_apg_calls(monkeypatch)
        grad, _, psi = box_qp(np.array([-2.0, 0.5, 3.0, 10.0, 40.0]), 3)
        res = ippm_solve(grad, psi, np.zeros(5), rho=math.inf, L_phi=math.inf, eps=1e-6,
                         L_init=40.0)
        assert res.stationarity <= 1e-6 and res.rho_doublings > 0
        stops = [r.stop for _, r in calls]
        assert set(stops) == {"converged", "pair_test"}
        assert stops.count("pair_test") == res.rho_doublings
        # No pair fails once rho reaches grad phi's Lipschitz constant (40),
        # and decay adds at most one failed call per further step.
        bound = math.ceil(math.log2(2.0 * 40.0 / RHO_FLOOR)) + res.outer_iterations - 1
        assert max(mu for mu, _ in calls) < 2.0 * 40.0 and res.rho_doublings <= bound
        steps = [(mu, r.converged) for mu, r in calls]
        # After a converged step the next call runs at half its rho (not
        # below the floor); after a failed pair test, at twice it.
        for (mu, converged), (mu_next, _) in zip(steps, steps[1:]):
            assert mu_next == (max(RHO_FLOOR, 0.5 * mu) if converged else 2.0 * mu)
        # So a step that ran at a doubled rho is followed by a smaller one.
        assert any(
            converged and mu_next < mu for (mu, converged), (mu_next, _) in zip(steps, steps[1:])
        )


def box_qp_gap(d, seed):
    """Phi(0) - min Phi for box_qp(d, seed): the minimum is separable, each
    coordinate's at an end of [-1, 1] or at its stationary point inside."""
    b = np.random.default_rng(seed).standard_normal(len(d))
    lowest = np.minimum(0.5 * d - b, 0.5 * d + b)
    inside = (d > 0) & (np.abs(b) < d)
    lowest[inside] = -0.5 * b[inside] ** 2 / d[inside]
    return -float(np.sum(lowest))


class TestRelativeStopProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        d=hnp.arrays(float, st.integers(1, 5), elements=st.floats(-3.0, 3.0)),
        seed=st.integers(0, 2**16),
        eps=st.sampled_from([1e-1, 1e-3, 1e-6]),
    )
    @example(d=np.array([0.5, 1.0, 3.0]), seed=3, eps=1e-6)
    @example(d=np.array([-2.0, 0.5, 3.0]), seed=3, eps=1e-6)
    def test_converged_solve_certifies_and_meets_the_step_bound(self, d, seed, eps):
        # Convex and nonconvex box QPs: the certificate of a converged solve
        # bounds the re-measured stationarity, and at a pinned rho that
        # bounds the weak convexity the step count meets
        # outer_iteration_bound (the module docstring's descent argument).
        grad, _, psi = box_qp(d, seed)
        x0 = np.zeros(len(d))
        L_phi = max(1.0, float(np.max(np.abs(d))))
        rho = max(0.5, -float(np.min(d)))
        adaptive = ippm_solve(grad, psi, x0, 2.0 * L_phi, L_phi, eps)
        with mock.patch.object(almkit.ippm, "RHO_FLOOR", rho):
            pinned = ippm_solve(grad, psi, x0, rho, L_phi, eps)
        assert pinned.rho == rho and pinned.rho_doublings == 0
        for res in (adaptive, pinned):
            remeasured = psi.subdiff_distance(res.x, -grad(res.x))
            assert remeasured <= res.stationarity + 1e-12 and res.stationarity <= eps
        assert pinned.outer_iterations <= outer_iteration_bound(rho, eps, box_qp_gap(d, seed))


class TestIppmErrors:
    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ippm_solve(
                convex_quadratic(1).gradient, zero_function(), np.zeros(1), rho=0.0, L_phi=1.0,
                eps=1e-6,
            )
        psi = box_indicator(BoxSet(np.array([0.0]), np.array([1.0])))
        with pytest.raises(ValueError):
            ippm_solve(
                convex_quadratic(1).gradient, psi, np.array([5.0]), rho=1.0, L_phi=1.0, eps=1e-6
            )

    def test_underestimated_rho_stalls_with_diagnostic(self):
        # phi = -(5/2) x^2 is 5-weakly convex; claiming rho = 0.1 leaves the
        # shifted model nonconvex and unbounded, so APG cannot certify.
        phi = concave_scalar(5.0)
        with pytest.raises(SubsolverStall, match="rho"):
            ippm_solve(
                phi.gradient, zero_function(), np.array([1.0]), rho=0.1, L_phi=5.0, eps=1e-8,
                max_inner=300,
            )

    def test_tiny_eps_stalls_instead_of_dividing_by_zero(self):
        # (eps/4)^2 underflows to 0 at eps = 1e-170; APG's stall budget is
        # formed in log space and stays finite.  No float iterate is
        # stationary to 2.5e-171, so the first call stops unconverged (here
        # at max_inner) and raises.
        psi = box_indicator(BoxSet.cube(-1.0, 1.0, 1))
        with pytest.raises(SubsolverStall, match="rho"):
            ippm_solve(lambda x: x - 0.3, psi, np.zeros(1), 1.0, 1.0, 1e-170, max_inner=50)

    def test_stall_raises_after_one_apg_call(self, monkeypatch):
        # Below any cap, a call that stops at max_inner raises at once
        # instead of doubling rho and trying again.  The steps before it
        # stop on the relative test, far above eps/4.
        calls = recorded_apg_calls(monkeypatch)
        evals = [0]

        def grad(x):
            evals[0] += 1
            return x - 0.3

        psi = box_indicator(BoxSet.cube(-1.0, 1.0, 1))
        with pytest.raises(SubsolverStall, match="max_inner"):
            ippm_solve(grad, psi, np.zeros(1), 1.0, 1.0, 1e-170, max_inner=10_000)
        *steps, (_, stalled) = calls
        assert stalled.stop == "max_iter" and stalled.iterations == 10_000
        assert all(r.converged and r.stationarity > 1e-170 / 4.0 for _, r in steps)
        assert all(mu == RHO_FLOOR for mu, _ in calls)
        # The centre gradient, and at most three per APG iteration: the
        # extrapolated point, a step rejected at 0.9 L_G and one at L_G.
        assert evals[0] <= 1 + 3 * sum(r.iterations for _, r in calls)

    def test_max_outer_exhaustion_flags_failure(self):
        # Running out of proximal steps is a stall, like an APG call that
        # runs out of iterations: no unconverged result is returned.
        psi = box_indicator(BoxSet(np.array([-1.0]), np.array([1.0])))
        with pytest.raises(SubsolverStall, match="max_outer=1 "):
            ippm_solve(
                concave_scalar(1.0).gradient, psi, np.array([0.01]), rho=1.0, L_phi=1.0,
                eps=1e-12, max_outer=1,
            )
