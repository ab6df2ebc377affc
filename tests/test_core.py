import dataclasses

import numpy as np
import pytest

from almkit.core import (
    ConstantsLedger,
    ConstraintOracle,
    DimensionMismatch,
    KktResidual,
    NonFiniteValue,
    ProblemSpec,
    ProxCapableFunction,
    SmoothOracle,
    _al_gradient,
    al_gradient_smooth,
    al_value,
    as_vector,
    kkt_residual,
)
from almkit.ineq import IneqProblemSpec
from almkit.problems import gen_lcqp
from almkit.prox import BoxSet, NonnegBallSet, box_indicator, nonneg_ball_indicator, zero_function
from helpers import (
    box_qp_problem,
    finite_difference_gradient,
    toy_eq_qp,
    toy_ineq_qp,
)


def scalar_problem():
    """g(x) = x^2, h = 0, c(x) = x - 1 in one dimension."""
    smooth = SmoothOracle(lambda x: float(x[0] ** 2), lambda x: 2.0 * x, 2.0)
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

    @pytest.mark.parametrize("hinge", [False, True], ids=["equality", "hinge"])
    def test_x_outside_the_domain_is_named(self, hinge):
        # x = (9, 0) lies outside the box [-5, 5]^2: the domain check names
        # it, where summing h's +inf into the value reported an overflow.
        prob, _ = toy_eq_qp()
        x, y = np.array([9.0, 0.0]), np.zeros(1)
        row = ConstraintOracle.affine(np.array([[1.0, 0.0]]), np.array([10.0]))
        with pytest.raises(ValueError, match="^x lies outside the domain") as info:
            if hinge:
                al_value(x, y, 1.0, dataclasses.replace(prob, ineq=row), np.zeros(1))
            else:
                al_value(x, y, 1.0, prob)
        assert not isinstance(info.value, NonFiniteValue)


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
        assert res.pres_eq == res.pres and res.pres_ineq == 0.0

    @pytest.mark.parametrize("name", ["pres", "dres", "compl", "pres_eq", "pres_ineq"])
    @pytest.mark.parametrize("bad, error", [(-1e-3, ValueError), (np.nan, NonFiniteValue)])
    def test_rejects_negative_or_nan_fields(self, name, bad, error):
        fields = {"pres": 0.0, "dres": 0.0, "pres_eq": 0.0, "pres_ineq": 0.0, name: bad}
        with pytest.raises(error, match=name):
            KktResidual(**fields)

    def test_zero_nonsmooth_gives_gradient_norm(self):
        prob = scalar_problem()
        res = kkt_residual(np.array([2.0]), np.array([3.0]), prob)
        assert res.pres == pytest.approx(1.0)
        assert res.dres == pytest.approx(abs(2.0 * 2.0 + 3.0))

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

    def test_dres_is_the_exact_distance_of_h(self):
        # For each h, with and without inequality rows, dres is h's own
        # distance at -(grad g + J_f'z + J_c'y), summed in that order, bit
        # for bit, at in-domain points (h's projections of random points,
        # so some lie on the boundary).
        n, rng = 6, np.random.default_rng(5)
        Q = rng.standard_normal((n, n))
        smooth = SmoothOracle(lambda x: 0.0, lambda x: Q @ x + np.sin(x), 10.0)
        A, b = rng.standard_normal((2, n)), rng.standard_normal(2)
        eq = ConstraintOracle(
            lambda x: A @ x - b + x @ x, lambda x, v: A.T @ v + 2 * v.sum() * x, 2
        )
        ineq = ConstraintOracle(lambda x: np.array([x @ x - 1.0]), lambda x, v: 2 * v[0] * x, 1)
        box = box_indicator(BoxSet.cube(-0.5, 0.5, n))
        for h in (zero_function(), box, nonneg_ball_indicator(NonnegBallSet(1.0))):
            for rows in (None, ineq):
                prob = ProblemSpec(smooth, h, eq, None, np.zeros(n), rows)
                for _ in range(20):
                    x = h.prox(rng.uniform(-1.0, 1.0, n), 1.0)
                    y = rng.standard_normal(2)
                    v = smooth.gradient(x)
                    z = None
                    if rows is not None:
                        z = rng.uniform(0.0, 2.0, 1)
                        v = v + rows.jacobian_transpose_apply(x, z)
                    v = v + eq.jacobian_transpose_apply(x, y)
                    assert kkt_residual(x, y, prob, z).dres == h.subdiff_distance(x, -v)

    def test_rejects_x_outside_the_domain(self):
        prob, _ = toy_eq_qp()
        with pytest.raises(ValueError, match="x lies outside the domain of the nonsmooth term"):
            kkt_residual(np.array([9.0, 0.0]), np.zeros(1), prob)

    @pytest.mark.parametrize("cone_subdiff", [True, False])
    def test_rejects_x_outside_the_domain_without_an_exact_subdiff(self, cone_subdiff):
        # The KKT certificate measures h's exact distance, so a term without
        # one, the distance missing or None, cannot be built; nor can one
        # whose prox or value is not callable.
        def prox(v, step):
            return np.clip(v, -5.0, 5.0)

        def value(x):
            return 0.0 if np.all(np.abs(x) <= 5.0) else np.inf

        def dist(x, v):
            return 0.0

        for missing in ((), (None,), (1.0,)):
            with pytest.raises(TypeError, match="subdiff_distance_fn"):
                ProxCapableFunction(prox, value, *missing, cone_subdiff=cone_subdiff)
        for bad in (None, 1.0):
            with pytest.raises(TypeError, match="prox_fn"):
                ProxCapableFunction(bad, value, dist, cone_subdiff=cone_subdiff)
            with pytest.raises(TypeError, match="value_fn"):
                ProxCapableFunction(prox, bad, dist, cone_subdiff=cone_subdiff)


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

    @pytest.mark.parametrize("block", ["constraints", "ineq"])
    def test_affine_rows_of_another_width_rejected(self, block):
        # Without the check this built, and ialm_solve then failed inside
        # numpy's matmul.
        smooth = SmoothOracle(lambda x: 0.0, np.zeros_like, 0.0)
        fits = ConstraintOracle.affine(np.ones((1, 2)), [0.0])
        rows = {"constraints": fits, "ineq": fits}
        rows[block] = ConstraintOracle.affine(np.ones((1, 3)), [0.0])
        with pytest.raises(DimensionMismatch, match=f"^affine {block} column count must match"):
            ProblemSpec(smooth, zero_function(), constants=None, x0=np.zeros(2), **rows)
        assert ProblemSpec(smooth, zero_function(), fits, None, np.zeros(2), fits).dim == 2

    def test_fresh_counters_are_independent(self):
        prob, _ = toy_eq_qp()
        al_gradient_smooth(np.zeros(2), np.zeros(1), 1.0, prob)
        clone = prob.for_solve()
        assert clone.smooth.grad_evals == 0
        al_gradient_smooth(np.zeros(2), np.zeros(1), 1.0, clone)
        assert clone.smooth.grad_evals == 1
        assert prob.smooth.grad_evals == 1


class TestOneCallPerPoint:
    """A solve's oracle hands back the gradient of the array it last
    evaluated; every public entry calls the gradient each time, so an array
    changed in place between two calls gets its fresh gradient."""

    def test_solve_oracle_reuses_the_last_array_only(self):
        smooth = toy_eq_qp()[0].for_solve().smooth
        x = np.array([1.0, 2.0])
        g = smooth._gradient(x)
        assert smooth._gradient(x) is g and smooth.grad_evals == 1
        # An equal array that is another object is another call.
        assert np.array_equal(smooth._gradient(x.copy()), g) and smooth.grad_evals == 2

    @pytest.mark.parametrize("solve_copy", [False, True])
    def test_public_gradient_sees_an_array_changed_in_place(self, solve_copy):
        prob, _ = toy_eq_qp()
        smooth = prob.for_solve().smooth if solve_copy else prob.smooth
        x = np.array([1.0, 2.0])
        first = smooth.gradient(x)
        x[0] = -3.0
        second = smooth.gradient(x)
        assert smooth.grad_evals == 2
        assert not np.array_equal(first, second)
        assert np.array_equal(second, SmoothOracle(None, smooth._gradient_fn, 1.0).gradient(x))

    def test_kkt_residual_sees_an_array_changed_in_place(self):
        prob, _ = toy_eq_qp()
        x, y = np.array([1.0, 2.0]), np.zeros(1)
        kkt_residual(x, y, prob)
        x[0] = -3.0
        again = kkt_residual(x, y, prob)
        assert prob.smooth.grad_evals == 2
        assert again == kkt_residual(x.copy(), y, toy_eq_qp()[0])


class TestAffineOracle:
    def test_rows_are_kept_as_validated_data(self):
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        oracle = ConstraintOracle.affine(A.tolist(), [1.0, 2.0])
        data_A, data_b = oracle.affine_data
        assert data_A.dtype == data_b.dtype == np.float64
        assert np.array_equal(data_A, A) and np.array_equal(data_b, [1.0, 2.0])
        assert oracle.jacobian_norm_bound is None and oracle.component_bounds is None
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

    def test_lcqp_ledger_takes_the_spectral_norm_of_the_rows(self):
        problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
        A = problem.constraints.affine_data[0]
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


def counted_linearized(value, product, n_constraints):
    """Linearized oracle returning ``value(x)`` and v -> ``product(x, v)``,
    with the calls into its callback and into jt counted in ``calls``."""
    calls = {"linearize": 0, "jt": 0}

    def linearize(x):
        calls["linearize"] += 1

        def jt(v):
            calls["jt"] += 1
            return product(x, v)

        return value(x), jt

    return ConstraintOracle.linearized(linearize, n_constraints), calls


def quadratic_row(x):
    """c(x) = x'x - 1, one row, whose Jacobian is 2x'."""
    return np.array([float(x @ x) - 1.0])


class TestLinearizedOracle:
    def test_one_callback_call_per_al_gradient(self):
        cons, calls = counted_linearized(quadratic_row, lambda x, v: 2.0 * v[0] * x, 1)
        smooth = SmoothOracle(lambda x: 0.0, lambda x: x.copy(), 1.0)
        problem = ProblemSpec(smooth, zero_function(), cons, None, np.ones(3))
        kernel = _al_gradient(problem, np.zeros(1), None, 2.0)
        x, y = np.array([0.5, -1.0, 2.0]), np.array([0.25])
        for k in range(1, 4):
            g = kernel(x)
            assert calls == {"linearize": k, "jt": k}
            assert smooth.grad_evals == k
        assert g.tobytes() == (x + 2.0 * (2.0 * (quadratic_row(x)[0])) * x).tobytes()
        public = al_gradient_smooth(x, y, 2.0, problem)
        assert calls == {"linearize": 4, "jt": 4} and smooth.grad_evals == 4
        c = quadratic_row(x)
        assert public.tobytes() == (x + (2.0 * (y + 2.0 * c)[0]) * x).tobytes()

    def test_public_methods_derive_from_the_callback(self):
        cons, calls = counted_linearized(quadratic_row, lambda x, v: 2.0 * v[0] * x, 1)
        x = np.array([1.0, 2.0])
        assert np.array_equal(cons.evaluate(x), [4.0])
        assert np.array_equal(cons.jacobian_transpose_apply(x, [0.5]), [1.0, 2.0])
        assert calls == {"linearize": 2, "jt": 1}
        assert cons.affine_data is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_or_product_raises(self, bad):
        x = np.ones(3)
        nan_value, _ = counted_linearized(lambda x: np.array([bad]), lambda x, v: x, 1)
        with pytest.raises(NonFiniteValue, match="^constraint oracle overflowed$"):
            nan_value._linearize(x)
        with pytest.raises(NonFiniteValue, match="^constraint oracle overflowed$"):
            nan_value.evaluate(x)
        nan_product, _ = counted_linearized(quadratic_row, lambda x, v: np.full(3, bad), 1)
        c, jt = nan_product._linearize(x)
        assert np.array_equal(c, [2.0])
        with pytest.raises(NonFiniteValue, match="^Jacobian-transpose product overflowed$"):
            jt(np.ones(1))
        with pytest.raises(NonFiniteValue, match="^Jacobian-transpose product overflowed$"):
            nan_product.jacobian_transpose_apply(x, np.ones(1))
        smooth = SmoothOracle(lambda x: 0.0, lambda x: x.copy(), 1.0)
        problem = ProblemSpec(smooth, zero_function(), nan_product, None, x)
        with pytest.raises(NonFiniteValue, match="^Jacobian-transpose product overflowed$"):
            _al_gradient(problem, np.zeros(1), None, 1.0)(x)

    def test_wrong_shapes_raise(self):
        x = np.ones(3)
        long_value, _ = counted_linearized(lambda x: np.zeros(2), lambda x, v: x, 1)
        with pytest.raises(DimensionMismatch, match="^constraint value has shape"):
            long_value._linearize(x)
        short_product, _ = counted_linearized(quadratic_row, lambda x, v: x[:2], 1)
        _, jt = short_product._linearize(x)
        with pytest.raises(DimensionMismatch, match="^Jacobian-transpose product dimension"):
            jt(np.ones(1))
        with pytest.raises(DimensionMismatch):
            short_product.jacobian_transpose_apply(x, np.ones(1))

    def test_scalar_value_accepted_for_one_row(self):
        cons, _ = counted_linearized(lambda x: 2.5, lambda x, v: v[0] * x, 1)
        c, jt = cons._linearize(np.ones(3))
        assert c.shape == (1,) and np.array_equal(c, [2.5])
        assert np.array_equal(jt(np.array([2.0])), [2.0, 2.0, 2.0])
        assert np.array_equal(cons.evaluate(np.ones(3)), [2.5])

    def test_two_callback_oracle_linearizes_through_its_private_methods(self):
        # The pair is wrapped into the one callback; _linearize and the
        # public methods all return what the two callbacks return.
        prob, _ = toy_eq_qp()
        A, b = np.array([[1.0, 1.0]]), np.zeros(1)
        x, v = np.array([0.3, -1.2]), np.array([0.7])
        c, jt = prob.constraints._linearize(x)
        assert c.tobytes() == prob.constraints.evaluate(x).tobytes() == (A @ x - b).tobytes()
        product = prob.constraints.jacobian_transpose_apply(x, v)
        assert jt(v).tobytes() == product.tobytes() == (A.T @ v).tobytes()


class TestConstantsRejectNaN:
    """Each constructor rejects a NaN constant, which a ``< 0`` test lets
    through."""

    @pytest.mark.parametrize("field", ["smoothness"])
    def test_smooth_oracle(self, field):
        with pytest.raises(ValueError, match="must be nonnegative"):
            SmoothOracle(lambda x: 0.0, lambda x: x, **{field: np.nan})

    @pytest.mark.parametrize(
        "field", ["component_smoothness", "component_weak_convexity", "component_bounds"]
    )
    def test_constraint_oracle_rows(self, field):
        with pytest.raises(ValueError, match="must be nonnegative"):
            ConstraintOracle(lambda x: x, lambda x, v: v, 2, **{field: [1.0, np.nan]})

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_constraint_oracle_jacobian_norm_bound(self, bad):
        with pytest.raises(ValueError, match="^Jacobian norm bound must be nonnegative$"):
            ConstraintOracle(lambda x: x, lambda x, v: v, 2, jacobian_norm_bound=bad)
        assert ConstraintOracle(lambda x: x, lambda x, v: v, 2, jacobian_norm_bound=0.0)

    def test_prox_diameter(self):
        with pytest.raises(ValueError, match="^diameter must be positive"):
            ProxCapableFunction(lambda v, t: v, lambda x: 0.0, lambda x, v: 0.0, diameter=np.nan)

    @pytest.mark.parametrize("field", ["B0", "B_c"])
    def test_constants_ledger(self, field):
        kwargs = {"B0": 1.0, "B_c": 1.0, field: np.nan}
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative$"):
            ConstantsLedger(**kwargs)


# Each public AL entry point at x = 2 (equality) or x = 0 (hinge) of a
# one-dimensional problem, with the penalty parameter given.  The hinge
# cases keep the names of the removed ``al_ineq_*`` wrappers as their ids.
AL_CALLS = {
    "al_value": lambda beta: al_value(np.array([2.0]), np.zeros(1), beta, scalar_problem()),
    "al_gradient_smooth": lambda beta: al_gradient_smooth(
        np.array([2.0]), np.zeros(1), beta, scalar_problem()
    ),
    "al_ineq_value": lambda beta: al_value(
        np.zeros(1), np.zeros(0), beta, toy_ineq_qp()[0], np.zeros(1)
    ),
    "al_ineq_gradient_smooth": lambda beta: al_gradient_smooth(
        np.zeros(1), np.zeros(0), beta, toy_ineq_qp()[0], np.zeros(1)
    ),
}


class TestNaNParametersFail:
    """A NaN step or penalty parameter fails where a ``<= 0`` test let it
    through."""

    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", sorted(AL_CALLS))
    def test_al_entry_points_reject_beta(self, name, beta):
        with pytest.raises(ValueError, match="beta must be positive$"):
            AL_CALLS[name](beta)

    def test_ineq_spec_rejects_nan_rho0(self):
        problem = toy_ineq_qp()[0]
        empty = np.zeros((0, 1)), np.zeros(0)
        with pytest.raises(ValueError, match="^rho0 must be nonnegative$"):
            IneqProblemSpec(
                problem.smooth, problem.nonsmooth, *empty, problem.ineq, None, np.nan, problem.x0
            )

    @pytest.mark.parametrize("step", [np.nan, 0.0])
    def test_prox_rejects_nan_step(self, step):
        with pytest.raises(ValueError, match="^prox step must be positive$"):
            zero_function().prox(np.zeros(2), step)
