import math

import numpy as np
import pytest

from almkit.core import KktResidual, ProblemSpec, ProxCapableFunction
from almkit.diagnostics import (
    cbar_partial_sum,
    cbar_tail_bound,
    check_feasibility_decay,
    dual_norm_bound,
    estimate_regularity_v,
    predict_outer_iterations,
    trajectory_from_report,
)
from almkit.ialm import (
    IalmConfig,
    OuterIterationRecord,
    PracticalDual,
    SolveReport,
    TheoreticalDual,
    dual_step_size,
    dual_update_z,
    gamma_schedule,
    ialm_solve,
)
from almkit.problems import gen_lcqp
from almkit.prox import zero_function


def affine_free_problem(A, b):
    """h = 0 with affine constraints: the regularity ratio is ||A'c|| / ||c||."""
    from almkit.core import ConstraintOracle, SmoothOracle

    smooth = SmoothOracle(lambda x: 0.0, lambda x: np.zeros_like(x), 1.0, 0.0)
    return ProblemSpec(
        smooth=smooth,
        nonsmooth=zero_function(),
        constraints=ConstraintOracle.affine(A, b),
        constants=None,
        x0=np.zeros(A.shape[1]),
    )


def fake_report(presequence, beta0=0.01, sigma=3.0):
    records = []
    beta = beta0
    for k, pres in enumerate(presequence):
        records.append(
            OuterIterationRecord(
                k=k,
                beta=beta,
                w=0.0,
                pres=pres,
                dres=0.0,
                y_norm=0.0,
                grad_evals=0,
                seconds=0.0,
                x=np.zeros(1),
            )
        )
        beta *= sigma
    return SolveReport(
        records=records,
        x=np.zeros(1),
        y=np.zeros(1),
        y_running=np.zeros(1),
        kkt=KktResidual(pres=presequence[-1], dres=0.0),
        success=True,
        termination="converged",
        grad_evals=0,
        seconds=0.0,
    )


# Each public dual-step or diagnostics helper called with one NaN (or
# negative) input that a "< 0" or "<= 1" test let through, returning inf,
# NaN or a negative damping term instead of raising.
BAD_HELPER_INPUTS = {
    "step_nan_residual": lambda: dual_step_size(PracticalDual(), 0, math.nan, 0.0),
    "step_nan_gamma": lambda: dual_step_size(TheoreticalDual(), 0, 1.0, math.nan),
    "step_nan_cap": lambda: dual_step_size(TheoreticalDual(), 0, 1.0, 1.0, math.nan),
    "update_z_nan_w": lambda: dual_update_z(np.ones(2), np.ones(2), math.nan, 1.0),
    "gamma_negative_c0": lambda: gamma_schedule(0, -1.0),
    "gamma_nan_c0": lambda: gamma_schedule(0, math.nan),
    "dual_norm_bound_nan_w0": lambda: dual_norm_bound(math.nan, 1.0),
    "feasibility_decay_nan_sigma": lambda: check_feasibility_decay(
        fake_report([1.0, 0.5, 0.2]), math.nan
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_HELPER_INPUTS))
def test_nan_input_to_a_public_helper_fails(name):
    with pytest.raises(ValueError, match="must be nonnegative|must exceed 1|need 0 <= w"):
        BAD_HELPER_INPUTS[name]()


class TestRegularityEstimator:
    def test_affine_ratio_dominates_smallest_singular_value(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 10))
        prob = affine_free_problem(A, rng.standard_normal(3))
        sigma_min = float(np.linalg.svd(A, compute_uv=False)[-1])
        pairs = [(rng.standard_normal(10), 1.0) for _ in range(25)]
        trace = estimate_regularity_v(pairs, prob)
        assert trace.supported
        for x, v_hat in zip([p[0] for p in pairs], trace.values):
            c = prob.constraints.evaluate(x)
            expected = float(np.linalg.norm(A.T @ c) / np.linalg.norm(c))
            assert v_hat == pytest.approx(expected)
        assert trace.v_min >= sigma_min - 1e-9

    def test_feasible_iterates_skipped(self):
        A = np.array([[1.0, 0.0]])
        prob = affine_free_problem(A, np.zeros(1))
        trace = estimate_regularity_v(
            [(np.array([0.0, 3.0]), 1.0), (np.array([2.0, 0.0]), 1.0)], prob
        )
        assert trace.values[0] is None
        assert trace.values[1] == pytest.approx(1.0)
        assert trace.v_min == pytest.approx(1.0)

    def test_lcqp_trajectory_has_positive_minimum(self):
        prob = gen_lcqp(3, 20, 1.0, seed=0).to_problem()
        report = ialm_solve(prob, IalmConfig())
        trace = estimate_regularity_v(trajectory_from_report(report), prob)
        assert trace.supported
        assert trace.v_min is not None and trace.v_min > 0.0

    def test_unsupported_geometry_is_explicit(self):
        # A nonsmooth term without an exact cone subdifferential: report
        # unsupported, never a silent zero.
        prob, _ = (lambda: __import__("helpers").toy_eq_qp())()
        soft = ProxCapableFunction(
            prox_fn=lambda v, step: v / (1.0 + step),
            value_fn=lambda x: 0.5 * float(x @ x),
            subdiff_distance_fn=None,
            diameter=math.inf,
            cone_subdiff=False,
        )
        prob = ProblemSpec(
            smooth=prob.smooth,
            nonsmooth=soft,
            constraints=prob.constraints,
            constants=prob.constants,
            x0=prob.x0,
        )
        trace = estimate_regularity_v([(np.array([1.0, 0.0]), 1.0)], prob)
        assert not trace.supported
        assert trace.v_min is None
        assert trace.reason


class TestFeasibilityDecay:
    def test_exact_inverse_decay_passes_with_unit_constant(self):
        betas = [0.01 * 3.0**k for k in range(8)]
        report = fake_report([1.0 / b for b in betas])
        verdict = check_feasibility_decay(report, 3.0)
        assert verdict.passed
        assert verdict.constant == pytest.approx(1.0)

    def test_constant_residual_fails(self):
        report = fake_report([1.0] * 8)
        verdict = check_feasibility_decay(report, 3.0)
        assert not verdict.passed

    def test_real_run_passes(self):
        prob = gen_lcqp(3, 25, 1.0, seed=1).to_problem()
        report = ialm_solve(prob, IalmConfig())
        assert check_feasibility_decay(report, 3.0).passed

    def test_short_reports_rejected(self):
        report = fake_report([1.0, 0.5])
        with pytest.raises(ValueError):
            check_feasibility_decay(report, 3.0)


class TestDualNormBound:
    def test_zero_step_size_gives_zero(self):
        assert dual_norm_bound(0.0, 5.0) == 0.0

    def test_linear_in_w0(self):
        one = dual_norm_bound(1.0, 2.0, horizon=10**4)
        two = dual_norm_bound(2.0, 2.0, horizon=10**4)
        assert two == 2.0 * one

    def test_partial_sum_matches_compensated_summation(self):
        horizon = 10**6
        ours = cbar_partial_sum(horizon)
        exact = math.fsum(
            1.0 / ((t + 1.0) * math.log(t + 2.0) ** 2) for t in range(horizon)
        )
        assert abs(ours - exact) <= 1e-9

    def test_tail_bound_dominates_continuation(self):
        # The bound must cover (many) further terms of the series.
        horizon = 10**4
        tail = cbar_tail_bound(horizon)
        continuation = sum(
            1.0 / ((t + 1.0) * math.log(t + 2.0) ** 2)
            for t in range(horizon, horizon * 50)
        )
        assert continuation <= tail

    def test_bound_holds_on_theoretical_run(self):
        prob = gen_lcqp(3, 20, 1.0, seed=2).to_problem()
        c0 = float(np.linalg.norm(prob.constraints.evaluate(prob.x0)))
        report = ialm_solve(prob, IalmConfig(policy=TheoreticalDual(w0=1.0)))
        y_max = dual_norm_bound(1.0, c0)
        assert max(rec.y_norm for rec in report.records) <= y_max


class TestPredictOuterIterations:
    def test_unit_ratio(self):
        # C = 1: prediction collapses to a single outer iteration.
        assert predict_outer_iterations(1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 3.0) == 1

    def test_exact_power(self):
        # C = 9 with sigma = 3: ceil(2) + 1 = 3.
        eps, v, beta0 = 1.0, 1.0, 1.0
        B0 = 8.0  # C = (1 + 8 + 0) / 1 = 9
        assert predict_outer_iterations(eps, B0, 0.0, 0.0, v, beta0, 3.0) == 3

    def test_monotone_in_v_and_beta0(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            eps = float(rng.uniform(1e-4, 1e-1))
            B0 = float(rng.uniform(0.1, 100))
            Bc = float(rng.uniform(0.0, 10))
            ymax = float(rng.uniform(0.0, 10))
            v1, v2 = sorted(rng.uniform(0.01, 10, size=2))
            b1, b2 = sorted(rng.uniform(0.001, 10, size=2))
            k_v1 = predict_outer_iterations(eps, B0, Bc, ymax, v1, b1, 3.0)
            k_v2 = predict_outer_iterations(eps, B0, Bc, ymax, v2, b1, 3.0)
            assert k_v2 <= k_v1
            k_b2 = predict_outer_iterations(eps, B0, Bc, ymax, v1, b2, 3.0)
            assert k_b2 <= k_v1

    def test_real_run_within_prediction(self):
        prob = gen_lcqp(3, 20, 1.0, seed=3).to_problem()
        cfg = IalmConfig(policy=TheoreticalDual(w0=1.0))
        report = ialm_solve(prob, cfg)
        assert report.success
        trace = estimate_regularity_v(trajectory_from_report(report), prob)
        c0 = float(np.linalg.norm(prob.constraints.evaluate(prob.x0)))
        y_max = dual_norm_bound(1.0, c0)
        K = predict_outer_iterations(
            cfg.eps,
            prob.constants.B0,
            prob.constants.B_c,
            y_max,
            trace.v_min,
            cfg.beta0,
            cfg.sigma,
        )
        assert len(report.records) <= K
