import numpy as np
import pytest

from almkit.core import (
    ConstraintOracle,
    DimensionMismatch,
    KktResidual,
    NonFiniteValue,
    ProblemSpec,
    ProxCapableFunction,
    SmoothOracle,
    al_gradient_smooth,
    al_value,
    as_vector,
    kkt_residual,
)
from almkit.problems import gen_lcqp
from almkit.prox import BoxSet, project_box, zero_function
from helpers import box_qp_problem, finite_difference_gradient, toy_eq_qp


def scalar_problem():
    """g(x) = x^2, h = 0, c(x) = x - 1 in one dimension."""
    smooth = SmoothOracle(lambda x: float(x[0] ** 2), lambda x: 2.0 * x, 2.0, 0.0)
    cons = ConstraintOracle(
        evaluate_fn=lambda x: x - 1.0,
        jacobian_t_apply_fn=lambda x, v: v.copy(),
        n_constraints=1,
    )
    return ProblemSpec(
        smooth=smooth,
        nonsmooth=zero_function(),
        constraints=cons,
        constants=None,
        x0=np.zeros(1),
    )


class TestAlValue:
    def test_scalar_example(self):
        # g(2) + y*c + (beta/2)c^2 = 4 + 3 + 2 = 9
        prob = scalar_problem()
        assert al_value(np.array([2.0]), np.array([3.0]), 4.0, prob) == pytest.approx(9.0)

    def test_feasible_point_reduces_to_objective(self):
        prob = scalar_problem()
        for y in (0.0, -7.5, 123.0):
            val = al_value(np.array([1.0]), np.array([y]), 11.0, prob)
            assert val == pytest.approx(1.0)

    def test_zero_multiplier_is_penalty_value(self):
        prob, _ = toy_eq_qp()
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=2)
            beta = float(rng.uniform(0.1, 10))
            c = prob.constraints.evaluate(x)
            expected = (
                prob.smooth.value(x)
                + prob.nonsmooth.value(x)
                + 0.5 * beta * float(c @ c)
            )
            assert al_value(x, np.zeros(1), beta, prob) == expected

    def test_counter_increments_once(self):
        # One call into the value callable, and none counted as #Grad.
        prob = scalar_problem()
        calls = [0]
        value = prob.smooth._value_fn

        def counted(x):
            calls[0] += 1
            return value(x)

        prob.smooth._value_fn = counted
        al_value(np.array([2.0]), np.array([0.0]), 1.0, prob)
        assert calls[0] == 1
        assert prob.smooth.grad_evals == 0

    def test_rejects_bad_beta_and_nan(self):
        prob = scalar_problem()
        with pytest.raises(ValueError):
            al_value(np.array([1.0]), np.array([0.0]), 0.0, prob)
        with pytest.raises(NonFiniteValue):
            al_value(np.array([np.nan]), np.array([0.0]), 1.0, prob)


class TestAlGradient:
    def test_scalar_example(self):
        # 2*2 + (3 + 4*1)*1 = 11
        prob = scalar_problem()
        g = al_gradient_smooth(np.array([2.0]), np.array([3.0]), 4.0, prob)
        assert g == pytest.approx([11.0])

    def test_feasible_zero_multiplier_gives_objective_gradient(self):
        prob, _ = toy_eq_qp()
        x = np.array([1.5, -1.5])  # on the constraint plane
        g = al_gradient_smooth(x, np.zeros(1), 2.0, prob)
        assert g == pytest.approx(x + np.array([1.0, -1.0]))

    def test_matches_finite_differences_on_random_lcqp(self):
        prob = gen_lcqp(2, 5, 1.0, seed=7).to_problem()
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-4.5, 4.5, size=5)
            y = rng.standard_normal(2)
            beta = float(rng.uniform(0.5, 5.0))
            grad = al_gradient_smooth(x, y, beta, prob)
            fd = finite_difference_gradient(lambda z: al_value(z, y, beta, prob), x)
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_dimension_mismatch_rejected_before_oracles(self):
        prob = scalar_problem()
        calls = prob.smooth.grad_evals
        with pytest.raises(DimensionMismatch):
            al_gradient_smooth(np.array([1.0, 2.0]), np.array([0.0]), 1.0, prob)
        assert prob.smooth.grad_evals == calls

    def test_counter_increments_once(self):
        prob = scalar_problem()
        before = prob.smooth.grad_evals
        al_gradient_smooth(np.array([2.0]), np.array([0.0]), 1.0, prob)
        assert prob.smooth.grad_evals == before + 1


class TestKktResidual:
    def test_equality_residual_has_no_hinge_parts(self):
        res = kkt_residual(np.array([2.0]), np.array([3.0]), scalar_problem())
        assert res.compl == 0.0
        assert res.pres_eq is None and res.pres_ineq is None

    @pytest.mark.parametrize("name", ["pres", "dres", "compl", "pres_eq", "pres_ineq"])
    @pytest.mark.parametrize("bad, error", [(-1e-3, ValueError), (np.nan, NonFiniteValue)])
    def test_rejects_negative_or_nan_fields(self, name, bad, error):
        fields = {"pres": 0.0, "dres": 0.0, name: bad}
        with pytest.raises(error, match=name):
            KktResidual(**fields)

    def test_zero_nonsmooth_gives_gradient_norm(self):
        prob = scalar_problem()
        res = kkt_residual(np.array([2.0]), np.array([3.0]), prob)
        assert res.pres == pytest.approx(1.0)
        assert res.dres == pytest.approx(abs(2.0 * 2.0 + 3.0))
        assert not res.dres_is_upper_bound

    def test_toy_qp_solution_is_exact_kkt(self):
        prob, x_star = toy_eq_qp()
        res = kkt_residual(x_star, np.zeros(1), prob)
        assert res.pres == 0.0
        assert res.dres == 0.0

    def test_stationary_feasible_point(self):
        # g = 0.5||x||^2 minimized at the feasible x = 0 with c(x) = x1 + x2.
        prob = box_qp_problem(
            Q=np.eye(2),
            c=np.zeros(2),
            A=np.array([[1.0, 1.0]]),
            b=np.zeros(1),
            box=BoxSet.cube(-5, 5, 2),
            x0=np.zeros(2),
        )
        res = kkt_residual(np.zeros(2), np.zeros(1), prob)
        assert res.pres == 0.0 and res.dres == 0.0

    def test_exact_never_exceeds_flagged_surrogate(self):
        # The cone fallback bound ||v|| must dominate the exact distance.
        prob, _ = toy_eq_qp()
        box = BoxSet.cube(-5, 5, 2)
        no_exact = ProxCapableFunction(
            prox_fn=lambda v, step: project_box(v, box),
            value_fn=lambda x: 0.0,
            subdiff_distance_fn=None,
            diameter=box.diameter,
            cone_subdiff=True,
        )
        surrogate_prob = ProblemSpec(
            smooth=prob.smooth,
            nonsmooth=no_exact,
            constraints=prob.constraints,
            constants=prob.constants,
            x0=prob.x0,
        )
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = project_box(rng.uniform(-6, 6, size=2), box)
            y = rng.standard_normal(1)
            exact = kkt_residual(x, y, prob)
            flagged = kkt_residual(x, y, surrogate_prob)
            assert flagged.dres_is_upper_bound
            assert exact.dres <= flagged.dres + 1e-12


class TestProblemSpec:
    def test_x0_outside_domain_rejected(self):
        prob, _ = toy_eq_qp()
        with pytest.raises(ValueError):
            ProblemSpec(
                smooth=prob.smooth,
                nonsmooth=prob.nonsmooth,
                constraints=prob.constraints,
                constants=prob.constants,
                x0=np.array([9.0, 0.0]),
            )

    def test_fresh_counters_are_independent(self):
        prob, _ = toy_eq_qp()
        al_gradient_smooth(np.zeros(2), np.zeros(1), 1.0, prob)
        clone = prob.for_solve()
        assert clone.smooth.grad_evals == 0
        al_gradient_smooth(np.zeros(2), np.zeros(1), 1.0, clone)
        assert clone.smooth.grad_evals == 1
        assert prob.smooth.grad_evals == 1


class TestAffineOracle:
    def test_rows_are_kept_as_validated_data(self):
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        oracle = ConstraintOracle.affine(A.tolist(), [1.0, 2.0])
        data_A, data_b = oracle.affine_data
        assert data_A.dtype == data_b.dtype == np.float64
        assert np.array_equal(data_A, A) and np.array_equal(data_b, [1.0, 2.0])
        assert oracle.jacobian_norm_bound == float(np.linalg.norm(A, 2))
        assert np.array_equal(oracle.evaluate(np.ones(2)), [2.0, -3.0])
        assert np.array_equal(oracle.jacobian_transpose_apply(np.ones(2), [1.0, 1.0]), [1.0, 1.0])

    def test_callback_oracles_carry_no_data(self):
        prob, _ = toy_eq_qp()
        assert prob.constraints.affine_data is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_non_finite_data_raises_at_construction(self, bad, where):
        A, b = np.ones((2, 3)), np.ones(2)
        (A[1] if where == "A" else b)[1] = bad
        with pytest.raises(NonFiniteValue, match="^affine constraint data contains NaN or Inf$"):
            ConstraintOracle.affine(A, b)

    def test_inconsistent_shapes_raise(self):
        with pytest.raises(DimensionMismatch):
            ConstraintOracle.affine(np.ones((2, 3)), np.ones(3))
        with pytest.raises(DimensionMismatch):
            ConstraintOracle.affine(np.ones(3), np.ones(3))

    def test_lcqp_ledger_and_oracle_share_one_norm(self):
        problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
        A = problem.constraints.affine_data[0]
        assert problem.constraints.jacobian_norm_bound == problem.constants.B_c
        assert problem.constants.B_c == float(np.linalg.norm(A, 2))


def constant_oracles(out):
    """Oracles whose gradient, constraint value and Jacobian-transpose
    product all return ``out``."""
    smooth = SmoothOracle(lambda x: 0.0, lambda x: out, 1.0)
    cons = ConstraintOracle(lambda x: out, lambda x, v: out, out.shape[0])
    return smooth, cons


class TestOutputFiniteness:
    # numpy reports the overflow of out'out; the output is accepted.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_output_whose_square_overflows_passes(self):
        out = np.full(5, 1e200)
        assert not np.isfinite(out @ out)
        smooth, cons = constant_oracles(out)
        x = np.zeros(5)
        assert np.array_equal(smooth.gradient(x), out)
        assert np.array_equal(cons.evaluate(x), out)
        assert np.array_equal(cons.jacobian_transpose_apply(x, np.zeros(5)), out)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n", [1, 200, 201])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_nan_or_inf_output_raises(self, bad, n, where):
        out = np.ones(n)
        out[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = bad
        smooth, cons = constant_oracles(out)
        x = np.zeros(n)
        with pytest.raises(NonFiniteValue, match="^smooth oracle gradient overflowed$"):
            smooth.gradient(x)
        with pytest.raises(NonFiniteValue, match="^constraint oracle overflowed$"):
            cons.evaluate(x)
        with pytest.raises(NonFiniteValue, match="^Jacobian-transpose product overflowed$"):
            cons.jacobian_transpose_apply(x, np.zeros(n))
        with pytest.raises(NonFiniteValue, match="^x contains NaN or Inf$"):
            as_vector(out)

    def test_no_constraints_and_scalar_values_pass(self):
        x = np.ones(3)
        empty = ConstraintOracle(lambda x: np.zeros(0), lambda x, v: np.zeros(3), 0)
        assert empty.evaluate(x).shape == (0,)
        assert np.array_equal(empty.jacobian_transpose_apply(x, np.zeros(0)), np.zeros(3))
        # A one-row constraint may return a scalar.
        scalar = ConstraintOracle(lambda x: 2.5, lambda x, v: v[0] * x, 1)
        assert np.array_equal(scalar.evaluate(x), [2.5])
        with pytest.raises(NonFiniteValue):
            ConstraintOracle(lambda x: np.nan, lambda x, v: x, 1).evaluate(x)
