import dataclasses
import math

import numpy as np
import pytest

from almkit.core import ConstraintOracle, NonFiniteValue, SmoothOracle
from almkit.ialm import IalmConfig, PracticalDual, TheoreticalDual, ialm_solve
from almkit.ineq import (
    IneqConstants,
    IneqProblemSpec,
    _HingeBlock,
    al_ineq_gradient_smooth,
    al_ineq_value,
    dual_update_z,
    ialm_ineq_solve,
    ineq_dual_step_size,
    kkt_residual_ineq,
    slack_reformulate,
)
from almkit.prox import zero_function
from helpers import finite_difference_gradient, toy_eq_qp, toy_ineq_qp


def hinge_scalar_problem():
    """f0 = 0, single inequality f(x) = x, no affine part."""
    smooth = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0, 0.0)
    ineq = ConstraintOracle(
        evaluate_fn=lambda x: x.copy(),
        jacobian_t_apply_fn=lambda x, v: v.copy(),
        n_constraints=1,
        component_smoothness=[0.0],
        component_weak_convexity=[0.0],
        component_bounds=[5.0],
    )
    return IneqProblemSpec(
        smooth=smooth,
        nonsmooth=zero_function(),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        ineq=ineq,
        constants=IneqConstants(B0=5.0, B_f=1.0, B_bar_c=0.0, AtA_norm=0.0, D=10.0),
        rho0=0.0,
        x0=np.zeros(1),
    )


def two_constraint_problem():
    """g = 0.5||x||^2, affine x1 + x2 = 1, inequalities x <= 0.8 per coordinate."""
    smooth = SmoothOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0, 0.0)
    ineq = ConstraintOracle(
        evaluate_fn=lambda x: x - 0.8,
        jacobian_t_apply_fn=lambda x, v: v.copy(),
        n_constraints=2,
        component_smoothness=[0.0, 0.0],
        component_weak_convexity=[0.0, 0.0],
        component_bounds=[6.0, 6.0],
    )
    A = np.array([[1.0, 1.0]])
    return IneqProblemSpec(
        smooth=smooth,
        nonsmooth=zero_function(),
        A=A,
        b=np.array([1.0]),
        ineq=ineq,
        constants=IneqConstants(
            B0=20.0, B_f=math.sqrt(2.0), B_bar_c=6.0, AtA_norm=2.0, D=10.0
        ),
        rho0=0.0,
        x0=np.zeros(2),
    )


class TestIneqProblemSpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_affine_data_raises_at_construction(self, bad, where):
        problem = two_constraint_problem()
        A, b = problem.A.copy(), problem.b.copy()
        (A[0] if where == "A" else b)[0] = bad
        with pytest.raises(NonFiniteValue, match="^affine constraint data contains NaN or Inf$"):
            dataclasses.replace(problem, A=A, b=b)

    def test_no_equality_rows_get_the_problem_width(self):
        problem = dataclasses.replace(hinge_scalar_problem(), A=np.zeros((0, 0)))
        assert problem.A.shape == (0, 1) and problem.n_eq == 0
        assert np.array_equal(
            al_ineq_gradient_smooth(np.ones(1), np.zeros(0), np.ones(1), 2.0, problem), [3.0]
        )


class TestAlIneqValue:
    def test_inactive_hinge_reduces_to_equality_al(self):
        prob = two_constraint_problem()
        x = np.array([-1.0, -1.0])  # f(x) < 0 everywhere
        y = np.array([0.7])
        beta = 2.0
        val = al_ineq_value(x, y, np.zeros(2), beta, prob)
        r = prob.A @ x - prob.b
        expected = 0.5 * float(x @ x) + float(y @ r) + 0.5 * beta * float(r @ r)
        assert val == pytest.approx(expected)

    def test_scalar_hinge_example(self):
        # (1/(2 beta)) (||[z + beta f]_+||^2 - ||z||^2) = (1/4)((1+1)^2 - 1)
        prob = hinge_scalar_problem()
        val = al_ineq_value(np.array([0.5]), np.zeros(0), np.array([1.0]), 2.0, prob)
        assert val == pytest.approx(0.75)

    def test_hinge_scales_linearly_in_beta_when_active(self):
        prob = hinge_scalar_problem()
        x = np.array([0.7])
        v1 = al_ineq_value(x, np.zeros(0), np.zeros(1), 1.0, prob)
        v2 = al_ineq_value(x, np.zeros(0), np.zeros(1), 2.0, prob)
        assert v2 == pytest.approx(2.0 * v1)

    def test_negative_z_rejected(self):
        prob = hinge_scalar_problem()
        with pytest.raises(ValueError):
            al_ineq_value(np.zeros(1), np.zeros(0), np.array([-1.0]), 1.0, prob)

    def test_no_inequalities_matches_equality_al(self):
        from almkit.core import al_value

        eq_prob, _ = toy_eq_qp()
        m0 = ConstraintOracle(
            evaluate_fn=lambda x: np.zeros(0),
            jacobian_t_apply_fn=lambda x, v: np.zeros_like(x),
            n_constraints=0,
            component_smoothness=[],
            component_weak_convexity=[],
            component_bounds=[],
        )
        prob = IneqProblemSpec(
            smooth=eq_prob.smooth,
            nonsmooth=eq_prob.nonsmooth,
            A=np.array([[1.0, 1.0]]),
            b=np.zeros(1),
            ineq=m0,
            constants=IneqConstants(B0=30.0, B_f=0.0, B_bar_c=10.0, AtA_norm=2.0, D=15.0),
            rho0=0.0,
            x0=np.zeros(2),
        )
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.uniform(-4, 4, size=2)
            y = rng.standard_normal(1)
            beta = float(rng.uniform(0.5, 4.0))
            assert al_ineq_value(x, y, np.zeros(0), beta, prob) == al_value(
                x, y, beta, eq_prob
            )


class TestAlIneqGradient:
    def test_inactive_hinge_gradient(self):
        prob = two_constraint_problem()
        x = np.array([-1.0, -1.0])
        y = np.array([0.7])
        beta = 2.0
        g = al_ineq_gradient_smooth(x, y, np.zeros(2), beta, prob)
        r = prob.A @ x - prob.b
        assert g == pytest.approx(x + prob.A.T @ (y + beta * r))

    def test_single_active_constraint_example(self):
        # f(x) = x - 1 at x = 2, z = 0, beta = 1, g = 0: gradient is 1.
        smooth = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0, 0.0)
        ineq = ConstraintOracle(
            evaluate_fn=lambda x: x - 1.0,
            jacobian_t_apply_fn=lambda x, v: v.copy(),
            n_constraints=1,
            component_smoothness=[0.0],
            component_weak_convexity=[0.0],
            component_bounds=[5.0],
        )
        prob = IneqProblemSpec(
            smooth=smooth,
            nonsmooth=zero_function(),
            A=np.zeros((0, 1)),
            b=np.zeros(0),
            ineq=ineq,
            constants=IneqConstants(B0=5.0, B_f=1.0, B_bar_c=0.0, AtA_norm=0.0, D=10.0),
            rho0=0.0,
            x0=np.zeros(1),
        )
        g = al_ineq_gradient_smooth(np.array([2.0]), np.zeros(0), np.zeros(1), 1.0, prob)
        assert g == pytest.approx([1.0])

    def test_matches_finite_differences_away_from_kinks(self):
        prob = two_constraint_problem()
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 8:
            x = rng.uniform(-2, 2, size=2)
            y = rng.standard_normal(1)
            z = np.abs(rng.standard_normal(2))
            beta = float(rng.uniform(0.5, 3.0))
            f = prob.ineq.evaluate(x)
            if np.any(np.abs(z + beta * f) < 1e-6):
                continue  # resample: one-sided derivatives would poison the check
            grad = al_ineq_gradient_smooth(x, y, z, beta, prob)
            fd = finite_difference_gradient(
                lambda u: al_ineq_value(u, y, z, beta, prob), x
            )
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))
            checked += 1


class TestDualUpdates:
    def test_step_example(self):
        z = dual_update_z(np.zeros(1), np.array([0.5]), w=1.0, beta=1.0)
        assert z == pytest.approx([0.5])

    def test_clamp_keeps_z_nonnegative(self):
        z = dual_update_z(np.array([2.0]), np.array([-5.0]), w=1.0, beta=1.0)
        assert z == pytest.approx([0.0])

    def test_w_above_beta_rejected(self):
        with pytest.raises(ValueError):
            dual_update_z(np.zeros(1), np.zeros(1), w=2.0, beta=1.0)

    def test_step_size_capped_at_beta(self):
        for policy in (PracticalDual(), TheoreticalDual(w0=100.0)):
            w = ineq_dual_step_size(policy, 0, 1e-9, 1.0, beta=0.5)
            assert w <= 0.5


class TestIneqSolve:
    def test_toy_reaches_hand_kkt(self):
        prob, x_star, z_star = toy_ineq_qp()
        rep = ialm_ineq_solve(prob, IalmConfig(eps=1e-3))
        assert rep.success
        assert abs(rep.x[0] - x_star) <= 1e-2
        assert abs(rep.z[0] - z_star) <= 1e-2
        assert rep.kkt.compl <= 1e-3

    def test_damped_policy_moves_y_when_x0_satisfies_the_inequalities(self):
        # x0 = 0 satisfies x <= 0.8 but not x1 + x2 = 1: the damping scale
        # is the equality residual, not 0, so the damped policy still
        # updates y instead of reducing to the penalty method.
        prob = two_constraint_problem()
        assert _HingeBlock(prob).damping == 1.0
        rep = ialm_ineq_solve(prob, IalmConfig(policy=TheoreticalDual(w0=1.0)))
        assert rep.success
        assert any(rec.w > 0.0 for rec in rep.records)
        assert np.linalg.norm(rep.y_running) > 0.0

    def test_mixed_constraints_solve(self):
        # min 0.5||x||^2 s.t. x1+x2 = 1, x <= 0.8: solution on the affine
        # plane at x = (0.5, 0.5) where the inequalities are inactive.
        prob = two_constraint_problem()
        rep = ialm_ineq_solve(prob, IalmConfig(eps=1e-3))
        assert rep.success
        assert np.linalg.norm(rep.x - np.array([0.5, 0.5])) <= 1e-2
        assert rep.kkt.pres <= 1e-3 and rep.kkt.dres <= 1e-3 and rep.kkt.compl <= 1e-3

    def test_z_stays_nonnegative_and_w_capped(self):
        prob, _, _ = toy_ineq_qp()
        rep = ialm_ineq_solve(prob, IalmConfig(eps=1e-3))
        for rec in rep.records:
            assert np.all(rec.z >= 0.0)
            assert rec.w <= rec.beta

    @pytest.mark.parametrize("bad", [(1.0, math.nan), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_curvature_override_rejected(self, bad):
        prob, _, _ = toy_ineq_qp()
        with pytest.raises(ValueError, match="curvature"):
            ialm_ineq_solve(prob, IalmConfig(curvature_override=lambda beta, norm: bad))

    def test_penalty_mode_freezes_both_multipliers(self):
        prob, _, _ = toy_ineq_qp()
        rep = ialm_ineq_solve(prob, IalmConfig(penalty_mode=True, eps=1e-3, max_outer=40))
        assert all(rec.z_norm == 0.0 for rec in rep.records)
        assert np.array_equal(rep.z_running, np.zeros(1))


class TestKktResidualIneq:
    def test_feasible_stationary_point(self):
        prob = two_constraint_problem()
        # x = (0.5, 0.5): feasible; grad g + A'y = x + y (1,1) = 0 at y = -0.5.
        res = kkt_residual_ineq(
            np.array([0.5, 0.5]), np.array([-0.5]), np.zeros(2), prob
        )
        assert res.pres == pytest.approx(0.0, abs=1e-15)
        assert res.dres == pytest.approx(0.0, abs=1e-15)
        assert res.compl == 0.0

    def test_toy_solution_exact(self):
        prob, _, _ = toy_ineq_qp()
        res = kkt_residual_ineq(np.array([1.0]), np.zeros(0), np.array([1.0]), prob)
        assert res.pres == 0.0 and res.dres == 0.0 and res.compl == 0.0

    def test_complementarity_sums_absolute_products(self):
        prob, _, _ = toy_ineq_qp()
        res = kkt_residual_ineq(np.array([1.1]), np.zeros(0), np.array([2.0]), prob)
        # f(1.1) = -0.1, z = 2 -> contribution 0.2
        assert res.compl == pytest.approx(0.2)


class TestSlackReformulation:
    def test_dimension_bookkeeping(self):
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        assert ref.problem.dim == prob.dim + prob.n_ineq
        assert ref.problem.constraints.n_constraints == prob.n_eq + prob.n_ineq

    def test_translator_drops_negative_part(self):
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        x_full = np.array([0.5, 0.5, 0.3, 0.3])
        y_full = np.array([0.0, 0.5, -0.0004])
        cert = ref.translate(x_full, y_full, prob.ineq)
        assert cert.z_hat == pytest.approx([0.5, 0.0])
        assert cert.neg_part_norm == pytest.approx(4e-4)
        assert cert.neg_part_norm <= 1e-3

    def test_slack_path_agrees_with_direct_path(self):
        prob, x_star, _ = toy_ineq_qp()
        eps = 1e-3
        direct = ialm_ineq_solve(prob, IalmConfig(eps=eps))
        ref = slack_reformulate(prob)
        lifted = ialm_solve(ref.problem, IalmConfig(eps=eps))
        assert lifted.success
        cert = ref.translate(lifted.x, lifted.y, prob.ineq)
        assert abs(cert.x[0] - direct.x[0]) <= 2 * eps
        assert abs(cert.x[0] - x_star) <= 1e-2
        assert cert.compl <= 2 * eps
        assert cert.neg_part_norm <= eps

    def test_slack_solves_leave_the_callers_counters_alone(self):
        prob = toy_ineq_qp()[0]
        calls = [0]
        user_gradient = prob.smooth._gradient_fn

        def gradient(x):
            calls[0] += 1
            return user_gradient(x)

        prob.smooth = SmoothOracle(prob.smooth._value_fn, gradient, prob.smooth.L, prob.smooth.rho)
        ref = slack_reformulate(prob)
        for _ in range(2):
            before = calls[0]
            rep = ialm_solve(ref.problem, IalmConfig())
            assert rep.success
            assert rep.grad_evals == calls[0] - before > 0
        assert prob.smooth.grad_evals == 0
