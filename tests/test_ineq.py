import dataclasses
import math

import numpy as np
import pytest

from almkit.core import (
    ConstraintOracle,
    DimensionMismatch,
    NonFiniteValue,
    ProxCapableFunction,
    SmoothOracle,
    _al_gradient,
    al_gradient_smooth,
    al_value,
    kkt_residual,
)
from almkit.ialm import (
    IalmConfig,
    PenaltyDual,
    PracticalDual,
    TheoreticalDual,
    dual_step_size,
    dual_update_z,
    gamma_schedule,
    ialm_solve,
)
from almkit.ineq import (
    IneqConstants,
    IneqProblemSpec,
    ialm_ineq_solve,
    kkt_residual_ineq,
    slack_reformulate,
)
from almkit.problems import gen_ev
from almkit.prox import BoxSet, box_indicator, zero_function
from helpers import finite_difference_gradient, toy_eq_qp, toy_ineq_qp


def hinge_scalar_problem():
    """f0 = 0, single inequality f(x) = x, no affine part."""
    smooth = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0)
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
    smooth = SmoothOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
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


def linearized_twin(problem):
    """``problem`` with its inequality oracle rebuilt as one linearizing
    callback over the two-callback oracle's public value and product, and
    the calls into it counted."""
    two = problem.ineq
    calls = [0]

    def linearize(x):
        calls[0] += 1
        return two.evaluate(x), lambda v: two.jacobian_transpose_apply(x, v)

    ineq = ConstraintOracle.linearized(linearize, two.n_constraints)
    return dataclasses.replace(problem, ineq=ineq), calls


class TestLinearizedInequalities:
    """A linearized inequality oracle gives the solver and the slack
    bridge the same gradients, bit for bit, as its two-callback twin, with
    one call into its callback per gradient."""

    @pytest.mark.parametrize("make", [hinge_scalar_problem, two_constraint_problem])
    def test_hinge_gradient_equals_the_two_callback_twin(self, make):
        two = make()
        lin, calls = linearized_twin(two)
        rng = np.random.default_rng(3)
        for _ in range(6):
            x = rng.uniform(-2.0, 2.0, two.dim)
            y = rng.standard_normal(two.constraints.n_constraints)
            z = np.abs(rng.standard_normal(two.ineq.n_constraints))
            beta = float(10.0 ** rng.uniform(-1, 1))
            kernels = [_al_gradient(problem, y, z, beta) for problem in (lin, two)]
            before = calls[0]
            assert kernels[0](x).tobytes() == kernels[1](x).tobytes()
            assert calls[0] == before + 1
            public = al_gradient_smooth(x, y, beta, lin, z)
            assert public.tobytes() == al_gradient_smooth(x, y, beta, two, z).tobytes()

    def test_slack_bridge_gradient_equals_the_two_callback_twin(self):
        two = two_constraint_problem()
        lin, calls = linearized_twin(two)
        slack_lin, slack_two = slack_reformulate(lin).problem, slack_reformulate(two).problem
        rng = np.random.default_rng(4)
        for _ in range(6):
            xs = rng.uniform(-2.0, 2.0, slack_two.dim)
            y = rng.standard_normal(slack_two.constraints.n_constraints)
            beta = float(10.0 ** rng.uniform(-1, 1))
            kernels = [_al_gradient(problem, y, None, beta) for problem in (slack_lin, slack_two)]
            before = calls[0]
            assert kernels[0](xs).tobytes() == kernels[1](xs).tobytes()
            assert calls[0] == before + 1
            c = slack_lin.constraints.evaluate(xs)
            assert c.tobytes() == slack_two.constraints.evaluate(xs).tobytes()
            v = rng.standard_normal(y.shape[0])
            jt = slack_lin.constraints.jacobian_transpose_apply(xs, v)
            assert jt.tobytes() == slack_two.constraints.jacobian_transpose_apply(xs, v).tobytes()


class TestIneqConstants:
    @pytest.mark.parametrize("field", ["B0", "B_f", "B_bar_c", "AtA_norm"])
    def test_nan_constant_rejected(self, field):
        kwargs = {"B0": 1.0, "B_f": 1.0, "B_bar_c": 1.0, "AtA_norm": 1.0, "D": 1.0, field: np.nan}
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative$"):
            IneqConstants(**kwargs)


class TestIneqProblemSpec:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_affine_data_raises_at_construction(self, bad, where):
        problem = two_constraint_problem()
        A, b = (a.copy() for a in problem.constraints.affine_data)
        (A[0] if where == "A" else b)[0] = bad
        with pytest.raises(NonFiniteValue, match="^affine constraint data contains NaN or Inf$"):
            IneqProblemSpec(
                problem.smooth, problem.nonsmooth, A, b, problem.ineq, None, 0.0, problem.x0
            )

    def test_no_equality_rows_get_the_problem_width(self):
        scalar = hinge_scalar_problem()
        problem = IneqProblemSpec(
            scalar.smooth, scalar.nonsmooth, np.zeros((0, 0)), np.zeros(0), scalar.ineq, None,
            0.0, scalar.x0,
        )
        A = problem.constraints.affine_data[0]
        assert A.shape == (0, 1) and problem.constraints.n_constraints == 0
        assert np.array_equal(
            al_gradient_smooth(np.ones(1), np.zeros(0), 2.0, problem, np.ones(1)), [3.0]
        )


class TestAlIneqValue:
    def test_inactive_hinge_reduces_to_equality_al(self):
        prob = two_constraint_problem()
        x = np.array([-1.0, -1.0])  # f(x) < 0 everywhere
        y = np.array([0.7])
        beta = 2.0
        val = al_value(x, y, beta, prob, np.zeros(2))
        r = prob.constraints.evaluate(x)
        expected = 0.5 * float(x @ x) + float(y @ r) + 0.5 * beta * float(r @ r)
        assert val == pytest.approx(expected)

    def test_scalar_hinge_example(self):
        # (1/(2 beta)) (||[z + beta f]_+||^2 - ||z||^2) = (1/4)((1+1)^2 - 1)
        prob = hinge_scalar_problem()
        val = al_value(np.array([0.5]), np.zeros(0), 2.0, prob, np.array([1.0]))
        assert val == pytest.approx(0.75)

    def test_hinge_scales_linearly_in_beta_when_active(self):
        prob = hinge_scalar_problem()
        x = np.array([0.7])
        v1 = al_value(x, np.zeros(0), 1.0, prob, np.zeros(1))
        v2 = al_value(x, np.zeros(0), 2.0, prob, np.zeros(1))
        assert v2 == pytest.approx(2.0 * v1)

    def test_negative_z_rejected(self):
        prob = hinge_scalar_problem()
        with pytest.raises(ValueError):
            al_value(np.zeros(1), np.zeros(0), 1.0, prob, np.array([-1.0]))

    def test_no_inequalities_matches_equality_al(self):
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
            assert al_value(x, y, beta, prob, np.zeros(0)) == al_value(
                x, y, beta, eq_prob
            )


class TestAlIneqGradient:
    def test_inactive_hinge_gradient(self):
        prob = two_constraint_problem()
        x = np.array([-1.0, -1.0])
        y = np.array([0.7])
        beta = 2.0
        g = al_gradient_smooth(x, y, beta, prob, np.zeros(2))
        A, b = prob.constraints.affine_data
        r = A @ x - b
        assert g == pytest.approx(x + A.T @ (y + beta * r))

    def test_single_active_constraint_example(self):
        # f(x) = x - 1 at x = 2, z = 0, beta = 1, g = 0: gradient is 1.
        smooth = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0)
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
        g = al_gradient_smooth(np.array([2.0]), np.zeros(0), 1.0, prob, np.zeros(1))
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
            grad = al_gradient_smooth(x, y, beta, prob, z)
            fd = finite_difference_gradient(lambda u: al_value(u, y, beta, prob, z), x)
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
            w = dual_step_size(policy, 0, 1e-9, 1.0, 0.5)
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
        policy = TheoreticalDual(w0=1.0)
        rep = ialm_ineq_solve(prob, IalmConfig(policy=policy))
        assert rep.success
        for rec in rep.records:
            res = max(rec.pres_eq, rec.pres_ineq)
            assert rec.w == dual_step_size(policy, rec.k, res, gamma_schedule(rec.k, 1.0), rec.beta)
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
        rep = ialm_ineq_solve(prob, IalmConfig(policy=PenaltyDual(), eps=1e-3, max_outer=40))
        assert all(np.all(rec.z == 0.0) for rec in rep.records)
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

    @pytest.mark.parametrize("cone_subdiff", [True, False])
    def test_rejects_x_outside_the_domain(self, cone_subdiff):
        # A term without an exact distance cannot be built, whatever its
        # geometry; with the exact box, x off dom h is refused.
        def prox(v, step):
            return np.clip(v, -2.0, 2.0)

        for missing in ((), (None,)):
            with pytest.raises(TypeError, match="subdiff_distance_fn"):
                ProxCapableFunction(prox, lambda x: 0.0, *missing, cone_subdiff=cone_subdiff)
        prob, _, _ = toy_ineq_qp()
        prob = dataclasses.replace(prob, nonsmooth=box_indicator(BoxSet.cube(-2.0, 2.0, 1)))
        assert kkt_residual_ineq(np.array([2.0]), np.zeros(0), np.ones(1), prob).dres >= 0.0
        with pytest.raises(ValueError, match="x lies outside the domain of the nonsmooth term"):
            kkt_residual_ineq(np.array([3.0]), np.zeros(0), np.ones(1), prob)


MISSING_Z_CALLS = {
    "kkt_residual": lambda prob: kkt_residual(np.array([1.0]), np.zeros(0), prob),
    "al_value": lambda prob: al_value(np.array([1.0]), np.zeros(0), 1.0, prob),
    "al_gradient_smooth": lambda prob: al_gradient_smooth(np.array([1.0]), np.zeros(0), 1.0, prob),
}


@pytest.mark.parametrize("name", sorted(MISSING_Z_CALLS))
def test_omitted_z_is_named_as_required_by_the_inequality_rows(name):
    prob, _, _ = toy_ineq_qp()
    with pytest.raises(ValueError, match="z is required because the problem has inequality rows"):
        MISSING_Z_CALLS[name](prob)


class TestSlackReformulation:
    def test_dimension_bookkeeping(self):
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        n_eq, n_ineq = prob.constraints.n_constraints, prob.ineq.n_constraints
        assert ref.problem.dim == prob.dim + n_ineq
        assert ref.problem.constraints.n_constraints == n_eq + n_ineq

    def test_translator_drops_negative_part(self):
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        x_full = np.array([0.5, 0.5, 0.3, 0.3])
        y_full = np.array([0.0, 0.5, -0.0004])
        cert = ref.translate(x_full, y_full, prob.ineq)
        assert cert.z_hat == pytest.approx([0.5, 0.0])
        assert cert.neg_part_norm == pytest.approx(4e-4)
        assert cert.neg_part_norm <= 1e-3

    @pytest.mark.parametrize("length", [1, 5])
    def test_translator_rejects_multipliers_of_the_wrong_length(self, length):
        # One equality and two inequalities: y_full has 3 entries, and a
        # longer or shorter one must not split into y_eq and z_raw.
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        with pytest.raises(DimensionMismatch, match=f"^y_full has length {length}, expected 3$"):
            ref.translate(np.full(4, 0.3), np.zeros(length), prob.ineq)

    def test_translator_accepts_a_list(self):
        prob = two_constraint_problem()
        ref = slack_reformulate(prob)
        cert = ref.translate([0.5, 0.5, 0.3, 0.3], [0.0, 0.5, -0.0004], prob.ineq)
        assert cert.y_eq.shape == (1,) and cert.z_raw.shape == (2,)
        assert cert.z_hat == pytest.approx([0.5, 0.0])

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

        prob.smooth = SmoothOracle(prob.smooth._value_fn, gradient, prob.smooth.L)
        ref = slack_reformulate(prob)
        for _ in range(2):
            before = calls[0]
            rep = ialm_solve(ref.problem, IalmConfig())
            assert rep.success
            assert rep.grad_evals == calls[0] - before > 0
        assert prob.smooth.grad_evals == 0


@pytest.fixture(scope="module")
def ev_nonnegative():
    """gen_ev(20, 0), whose row x'Bx = 1 is a nonlinear equality, with
    x >= 0 as 20 convex inequality rows -x <= 0, solved by the one block."""
    n = 20
    nonneg = ConstraintOracle.affine(-np.eye(n), np.zeros(n))
    problem = dataclasses.replace(gen_ev(n, 0).to_problem(), ineq=nonneg)
    return problem, ialm_solve(problem, IalmConfig())


class TestNonlinearEqualityWithInequalities:
    def test_report_is_the_remeasured_certificate(self, ev_nonnegative):
        problem, rep = ev_nonnegative
        assert rep.success
        kkt = kkt_residual(rep.x, rep.y, problem, rep.z)
        for name in ("pres", "dres", "compl", "pres_eq", "pres_ineq"):
            assert math.isclose(getattr(kkt, name), getattr(rep.kkt, name), rel_tol=1e-9)
        assert max(kkt.pres, kkt.dres, kkt.compl) <= 1e-3
        # The rows bind: some coordinates sit at 0 with a positive multiplier.
        assert np.any(rep.z > 0.0)

    def test_slack_bridge_certifies_the_same_instance(self, ev_nonnegative):
        problem, direct = ev_nonnegative
        ref = slack_reformulate(problem)
        lifted = ialm_solve(ref.problem, IalmConfig())
        assert lifted.success
        cert = ref.translate(lifted.x, lifted.y, problem.ineq)
        assert cert.neg_part_norm <= 1e-3 and cert.compl <= 1e-2
        assert np.linalg.norm(cert.x - direct.x) <= 1e-2
