import dataclasses
import math

import numpy as np
import pytest

import almkit.ialm
import almkit.ippm
from almkit.core import (
    ConstraintOracle,
    NonFiniteValue,
    SmoothOracle,
    al_gradient_smooth,
    kkt_residual,
)
from almkit.diagnostics import check_feasibility_decay, dual_norm_bound
from almkit.ialm import (
    RHO_FLOOR,
    IalmConfig,
    _EqualityBlock,
    PowerGrowthDual,
    PracticalDual,
    TheoreticalDual,
    dual_step_size,
    gamma_schedule,
    ialm_solve,
)
from almkit.ineq import _HingeBlock, al_ineq_gradient_smooth, ialm_ineq_solve
from almkit.ippm import SubsolverStall, ippm_solve
from almkit.problems import gen_clustering, gen_ev, gen_lcqp
from almkit.prox import zero_function
from helpers import box_qp_problem, toy_eq_qp, toy_ineq_qp
from test_ineq import two_constraint_problem
from almkit.prox import BoxSet


@pytest.fixture(scope="module")
def small_lcqp_problem():
    return gen_lcqp(3, 20, 1.0, seed=5).to_problem()


class TestDualStepSize:
    def test_theoretical_example(self):
        w = dual_step_size(TheoreticalDual(w0=1.0), 0, 0.5, gamma_k=1.0)
        assert w == pytest.approx(1.0)

    def test_theoretical_damps_large_residuals(self):
        w = dual_step_size(TheoreticalDual(w0=2.0), 0, 4.0, gamma_k=1.0)
        assert w == pytest.approx(0.5)

    def test_theoretical_zero_residual_returns_w0(self):
        assert dual_step_size(TheoreticalDual(w0=3.0), 1, 0.0, 0.5) == 3.0

    def test_practical_example(self):
        assert dual_step_size(PracticalDual(), 0, 0.5, 0.0) == pytest.approx(2.0)

    def test_power_growth_example(self):
        assert dual_step_size(PowerGrowthDual(M=1.0, q=1), 2, 0.1, 0.0) == pytest.approx(30.0)

    def test_residual_normalized_policies_vanish_at_zero(self):
        assert dual_step_size(PracticalDual(), 0, 0.0, 0.0) == 0.0
        assert dual_step_size(PowerGrowthDual(M=1.0, q=2), 3, 0.0, 0.0) == 0.0

    def test_gamma_schedule_starts_at_initial_residual(self):
        assert gamma_schedule(0, 7.5) == pytest.approx(7.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TheoreticalDual(w0=0.0)
        with pytest.raises(ValueError):
            PowerGrowthDual(M=-1.0, q=0)


class TestIalmSolve:
    def test_toy_qp_reaches_hand_solution(self):
        prob, x_star = toy_eq_qp()
        rep = ialm_solve(prob, IalmConfig(eps=1e-3))
        assert rep.success
        assert np.linalg.norm(rep.x - x_star) <= 1e-2
        assert rep.kkt.pres <= 1e-3 and rep.kkt.dres <= 1e-3

    def test_penalty_schedule_is_geometric(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig(beta0=0.01, sigma=3.0))
        assert len(rep.records) >= 3
        assert rep.records[0].beta == 0.01
        assert rep.records[2].beta == 0.01 * 3.0 * 3.0
        for prev, cur in zip(rep.records, rep.records[1:]):
            assert cur.beta == prev.beta * 3.0

    def test_feasible_stationary_start_terminates_at_k0(self):
        prob = box_qp_problem(
            Q=np.eye(2),
            c=np.zeros(2),
            A=np.array([[1.0, 1.0]]),
            b=np.zeros(1),
            box=BoxSet.cube(-5, 5, 2),
            x0=np.zeros(2),
        )
        prob.nonsmooth = zero_function()
        rep = ialm_solve(prob, IalmConfig(eps=1e-6))
        assert rep.success
        assert len(rep.records) == 1
        assert rep.records[0].pres == 0.0

    def test_certificate_revalidates_independently(self, small_lcqp_problem):
        cfg = IalmConfig()
        rep = ialm_solve(small_lcqp_problem, cfg)
        assert rep.success
        re_measured = kkt_residual(rep.x, rep.y, small_lcqp_problem)
        assert re_measured.pres == pytest.approx(rep.kkt.pres, abs=1e-15)
        assert re_measured.dres == pytest.approx(rep.kkt.dres, abs=1e-15)
        assert re_measured.pres <= cfg.eps and re_measured.dres <= cfg.eps

    def test_deterministic_across_runs(self, small_lcqp_problem):
        r1 = ialm_solve(small_lcqp_problem, IalmConfig())
        r2 = ialm_solve(small_lcqp_problem, IalmConfig())
        assert np.array_equal(r1.x, r2.x)
        assert r1.grad_evals == r2.grad_evals
        assert r1.kkt.pres == r2.kkt.pres and r1.kkt.dres == r2.kkt.dres

    def test_records_carry_counters_and_multiplier_norms(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig())
        grads = [rec.grad_evals for rec in rep.records]
        assert grads == sorted(grads)
        assert all(rec.y_norm >= 0 for rec in rep.records)
        assert all(np.isfinite(rec.dres_running) for rec in rep.records)

    def test_max_outer_exhaustion_reports_failure(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig(max_outer=2, eps=1e-9))
        assert not rep.success
        assert rep.termination == "max_outer_exhausted"
        assert len(rep.records) == 2

    def test_loose_subproblems_cannot_fake_the_certificate(self):
        # Three outer iterations leave the later subproblems looser than
        # eps; the report must still fail, with a re-measurable kkt.
        problem = gen_lcqp(10, 200, 1.0, 0).to_problem()
        eps = 1e-3
        rep = ialm_solve(problem, IalmConfig(eps=eps, max_outer=3))
        assert any(rec.sub_eps > eps for rec in rep.records)
        assert not rep.success and rep.termination == "max_outer_exhausted"
        assert rep.kkt == kkt_residual(rep.x, rep.y, problem)

    def test_oracles_alone_certify(self):
        # Neither an override nor a ledger: both caps are inf, and the
        # measured estimates do all the work, exactly as under an explicit
        # (inf, inf) override.
        prob, x_star = toy_eq_qp()
        prob.constants = None
        rep = ialm_solve(prob, IalmConfig())
        assert rep.success
        assert rep.kkt == kkt_residual(rep.x, rep.y, prob)
        assert max(rep.kkt.pres, rep.kkt.dres) <= IalmConfig().eps
        assert np.linalg.norm(rep.x - x_star) <= 1e-2
        uncapped = IalmConfig(curvature_override=lambda beta, y_norm: (math.inf, math.inf))
        explicit = ialm_solve(prob, uncapped)
        assert np.array_equal(explicit.x, rep.x) and explicit.grad_evals == rep.grad_evals

    def test_finite_override_caps_every_curvature_estimate(self, monkeypatch):
        # A finite L_hat caps APG's estimate of the model phi + rho||. - c||^2
        # at L_hat + 2 rho, in every call and in every record.
        inst = gen_lcqp(3, 20, 1.0, seed=5)
        L_hats = {}

        def exact(beta, _norm):
            L_hats[beta] = float(np.linalg.norm(inst.Q + beta * inst.A.T @ inst.A, 2))
            return 1.0, L_hats[beta]

        calls = []
        apg = almkit.ippm.apg_solve

        def recorded(grad, H, x, mu, L_G, *args, **kwargs):
            res = apg(grad, H, x, mu, L_G, *args, **kwargs)
            calls.append((L_G, res.L))
            return res

        monkeypatch.setattr(almkit.ippm, "apg_solve", recorded)
        rep = ialm_solve(inst.to_problem(), IalmConfig(curvature_override=exact))
        assert rep.success and calls
        assert all(L <= L_G < math.inf for L_G, L in calls)
        for rec in rep.records:
            assert rec.L <= L_hats[rec.beta] + 2.0 * rec.rho


class TestDualBoundedness:
    def test_theoretical_policy_respects_certified_bound(self, small_lcqp_problem):
        prob = small_lcqp_problem
        c0 = float(np.linalg.norm(prob.constraints.evaluate(prob.x0)))
        rep = ialm_solve(prob, IalmConfig(policy=TheoreticalDual(w0=1.0)))
        assert rep.success
        y_max = dual_norm_bound(1.0, c0)
        for rec in rep.records:
            assert rec.y_norm <= y_max

    def test_increment_norms_never_exceed_damping(self, small_lcqp_problem):
        prob = small_lcqp_problem
        c0 = float(np.linalg.norm(prob.constraints.evaluate(prob.x0)))
        rep = ialm_solve(prob, IalmConfig(policy=TheoreticalDual(w0=1.0)))
        for rec in rep.records:
            assert rec.w * rec.pres <= gamma_schedule(rec.k, c0) + 1e-12


class TestFeasibilityDecay:
    def test_product_bounded_on_real_run(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig())
        verdict = check_feasibility_decay(rep, 3.0)
        assert verdict.passed


class TestPenaltyMode:
    def test_matches_zero_step_loop_bitwise(self, small_lcqp_problem):
        # Without an override both caps are inf; an override's values cap
        # the estimates (here rho at the instance's exact weak convexity).
        prob = small_lcqp_problem
        for override in (None, lambda beta, y_norm: (1.0, math.inf)):
            cfg = IalmConfig(penalty_mode=True, max_outer=40, curvature_override=override)
            rep = ialm_solve(prob, cfg)
            assert rep.success
            curvature = override or (lambda beta, y_norm: (math.inf, math.inf))

            # Re-run the outer loop by hand with every dual step forced to
            # zero; each subproblem after the first is solved to
            # max(eps, 0.1 pres) of the previous record, and starts APG where
            # the previous ended.
            x = prob.x0
            y = np.zeros(prob.constraints.n_constraints)
            beta = cfg.beta0
            eps_k = cfg.eps
            L_k = prob.smooth.L
            for rec in rep.records:
                rho_hat, L_hat = curvature(beta, 0.0)
                sub = ippm_solve(
                    lambda u: al_gradient_smooth(u, y, beta, prob), prob.nonsmooth, x,
                    max(rho_hat, RHO_FLOOR), L_hat, eps_k, max_inner=cfg.max_inner, L_init=L_k,
                )
                x, L_k = sub.x, sub.L
                assert np.array_equal(rec.x, x)
                assert rec.w == 0.0
                beta *= cfg.sigma
                eps_k = max(cfg.eps, 0.1 * rec.pres)

    def test_penalty_mode_never_updates_multiplier(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig(penalty_mode=True, max_outer=40))
        assert all(rec.y_norm == 0.0 for rec in rep.records)
        assert np.array_equal(rep.y_running, np.zeros(small_lcqp_problem.constraints.n_constraints))


def with_counted_gradient(problem, nan_from=None):
    """Copy of ``problem`` whose smooth gradient callable counts its calls
    and, from call ``nan_from`` on, returns NaN."""
    calls = [0]
    smooth = problem.smooth

    def gradient(x):
        calls[0] += 1
        g = smooth.gradient(x)
        return g if nan_from is None or calls[0] < nan_from else np.full_like(g, np.nan)

    counted = SmoothOracle(smooth.value, gradient, smooth.L, smooth.rho)
    return dataclasses.replace(problem, smooth=counted), calls


SOLVERS = {
    "equality": (lambda: gen_lcqp(3, 20, 1.0, seed=5).to_problem(), ialm_solve),
    "hinge": (lambda: toy_ineq_qp()[0], ialm_ineq_solve),
}


@pytest.mark.parametrize("block", sorted(SOLVERS))
class TestSharedOuterLoop:
    def test_grad_evals_count_each_smooth_gradient_once(self, block, monkeypatch):
        make, solve = SOLVERS[block]
        problem, calls = with_counted_gradient(make())
        # Calls made before each subproblem solve: the previous record's count.
        before_subsolve = []
        ippm = almkit.ialm.ippm_solve

        def counted_ippm(*args, **kwargs):
            before_subsolve.append(calls[0])
            return ippm(*args, **kwargs)

        monkeypatch.setattr(almkit.ialm, "ippm_solve", counted_ippm)
        rep = solve(problem, IalmConfig())
        assert rep.success
        assert rep.grad_evals == calls[0]
        assert [rec.grad_evals for rec in rep.records] == before_subsolve[1:] + [calls[0]]

    def test_records_carry_the_capped_rho_estimate(self, block):
        # Each record's rho is iPPM's final estimate, which starts at the
        # floor and is capped by the override's rho_hat, here the declared
        # weak convexity of g (exact for both blocks' subproblems).
        make, solve = SOLVERS[block]
        problem = make()
        rho_hats = []

        def capped(beta, norm):
            rho_hats.append(problem.smooth.rho)
            return problem.smooth.rho, math.inf

        rep = solve(problem, IalmConfig(curvature_override=capped))
        assert rep.success and len(rho_hats) == len(rep.records)
        for rec, rho_hat in zip(rep.records, rho_hats):
            assert RHO_FLOOR <= rec.rho <= max(rho_hat, RHO_FLOOR)

    def test_curvature_estimate_carries_across_subproblems(self, block, monkeypatch):
        # Subproblem 0 starts APG at the declared smooth.L; subproblem k+1
        # at the final estimate of subproblem k, which its record carries.
        make, solve = SOLVERS[block]
        problem = make()
        starts = []
        ippm = almkit.ialm.ippm_solve

        def recorded(*args, **kwargs):
            starts.append(kwargs["L_init"])
            return ippm(*args, **kwargs)

        monkeypatch.setattr(almkit.ialm, "ippm_solve", recorded)
        rep = solve(problem, IalmConfig())
        assert rep.success and len(rep.records) >= 2
        assert starts == [problem.smooth.L] + [rec.L for rec in rep.records[:-1]]
        assert all(0.0 < rec.L < math.inf for rec in rep.records)

    def test_subproblem_tolerance_follows_the_last_primal_residual(self, block):
        # k = 0 has no measured residual and solves to eps; every later
        # subproblem to max(eps, 0.1 pres_{k-1}), and records its iPPM work.
        make, solve = SOLVERS[block]
        eps = 1e-3
        rep = solve(make(), IalmConfig(eps=eps))
        records = rep.records
        assert rep.success and len(records) >= 2
        assert records[0].sub_eps == eps
        for prev, rec in zip(records, records[1:]):
            assert rec.sub_eps == max(eps, 0.1 * prev.pres)
        assert any(rec.sub_eps > eps for rec in records)
        assert all(rec.ippm_steps >= 1 and rec.apg_iters >= rec.ippm_steps for rec in records)

    def test_records_split_the_time_between_subsolver_and_certificate(self, block):
        make, solve = SOLVERS[block]
        rep = solve(make(), IalmConfig())
        assert rep.success and len(rep.records) >= 2
        since = 0.0
        for rec in rep.records:
            assert rec.sub_s > 0.0 and rec.cert_s > 0.0
            assert rec.sub_s + rec.cert_s <= rec.seconds - since
            since = rec.seconds

    def test_stall_reports_the_gradients_spent(self, block):
        make, solve = SOLVERS[block]
        problem, calls = with_counted_gradient(make())
        with pytest.raises(SubsolverStall) as stall:
            solve(problem, IalmConfig(max_inner=1))
        assert stall.value.grad_evals == calls[0] > 0

    def test_nan_gradient_fails_fast(self, block):
        make, solve = SOLVERS[block]
        problem, calls = with_counted_gradient(make(), nan_from=50)
        with pytest.raises(NonFiniteValue):
            solve(problem, IalmConfig())
        assert 50 <= calls[0] < 100

    def test_public_gradient_calls_are_certificate_calls_only(self, block, monkeypatch):
        # The solver's own gradients go through the oracles' private,
        # output-checked methods; only certificates use the public
        # SmoothOracle.gradient, once per record for either block (the
        # equality block's running-multiplier dres shares the certificate's
        # gradient).  Each certificate also evaluates the constraints once,
        # and the damping scale once more at x0.
        make, solve = SOLVERS[block]
        public = {"gradient": 0, "evaluate": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, *args):
                public[name] += 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, counted)

        counting(SmoothOracle, "gradient")
        counting(ConstraintOracle, "evaluate")
        rep = solve(make(), IalmConfig())
        assert rep.success
        assert public["gradient"] <= len(rep.records)
        assert public["evaluate"] <= len(rep.records) + 1


def equality_subproblem_case(rng, make=lambda: gen_lcqp(3, 20, 1.0, seed=5).to_problem()):
    problem = make()
    block = _EqualityBlock(problem.for_solve())
    block.y = rng.standard_normal(problem.constraints.n_constraints)
    return problem, block, lambda x, beta: al_gradient_smooth(x, block.y, beta, problem)


def ev_subproblem_case(rng):
    return equality_subproblem_case(rng, lambda: gen_ev(40, 0).to_problem())


def cluster_subproblem_case(rng):
    points = np.random.default_rng(0).standard_normal((12, 2))
    return equality_subproblem_case(
        rng, lambda: gen_clustering(points, r=3, s=100.0).to_problem()
    )


def hinge_subproblem_case(rng, make=lambda: toy_ineq_qp()[0]):
    problem = make()
    block = _HingeBlock(problem.for_solve())
    block.y = rng.standard_normal(problem.n_eq)
    block.z = rng.uniform(0.0, 3.0, problem.n_ineq)
    return problem, block, lambda x, beta: al_ineq_gradient_smooth(
        x, block.y, block.z, beta, problem
    )


def hinge_affine_subproblem_case(rng):
    return hinge_subproblem_case(rng, two_constraint_problem)


# LCQP (affine rows as data), EV and clustering (callback rows), and the
# hinge block without and with affine rows.
SUBPROBLEM_CASES = [
    equality_subproblem_case,
    ev_subproblem_case,
    cluster_subproblem_case,
    hinge_subproblem_case,
    hinge_affine_subproblem_case,
]


@pytest.mark.parametrize("case", SUBPROBLEM_CASES)
def test_subproblem_gradient_equals_public_al_gradient(case):
    rng = np.random.default_rng(7)
    for _ in range(5):
        problem, block, public = case(rng)
        beta = float(rng.uniform(0.01, 100.0))
        grad = block.subproblem(beta)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, problem.dim)
            assert np.array_equal(grad(x), public(x, beta))


def replayed_gradient(problem, block, beta):
    """The AL gradient as written before the per-subproblem closures: the
    equality block's rows all through the constraint oracle's checked
    private methods, the hinge block's affine rows from its data."""
    if isinstance(block, _EqualityBlock):
        def grad(x):
            c = problem.constraints._evaluate(x)
            return problem.smooth._gradient(x) + problem.constraints._jac_t(x, block.y + beta * c)

        return grad

    def grad(x):
        g = problem.smooth._gradient(x)
        if problem.n_eq:
            r = problem.A @ x - problem.b
            g = g + problem.A.T @ (block.y + beta * r)
        f = problem.ineq._evaluate(x)
        return g + problem.ineq._jac_t(x, np.maximum(block.z + beta * f, 0.0))

    return grad


@pytest.mark.parametrize("case", SUBPROBLEM_CASES)
def test_subproblem_gradient_replays_the_old_formula_bitwise(case):
    rng = np.random.default_rng(11)
    for _ in range(4):
        problem, block, _ = case(rng)
        beta = 10.0 ** rng.uniform(-2, 2)
        kernel = block.subproblem(beta)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, problem.dim)
            before = block.problem.smooth.grad_evals
            got = kernel(x)
            assert block.problem.smooth.grad_evals == before + 1
            assert got.tobytes() == replayed_gradient(problem, block, beta)(x).tobytes()


def test_lcqp_rows_are_read_as_data():
    # The affine path calls no constraint callback: only the gradient.
    problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
    A, b = problem.constraints.affine_data
    assert A.shape == (3, 20) and b.shape == (3,)

    def refused(*args):
        raise AssertionError("constraint callback called")

    problem.constraints._evaluate_fn = problem.constraints._jac_t_fn = refused
    y = np.ones(3)
    g = al_gradient_smooth(problem.x0, y, 2.0, problem)
    expected = problem.smooth.gradient(problem.x0) + A.T @ (y + 2.0 * (A @ problem.x0 - b))
    assert g.tobytes() == expected.tobytes()


def test_nan_gradient_on_affine_rows_raises():
    problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
    problem.smooth._gradient_fn = lambda x: np.full_like(x, np.nan)
    kernel = _EqualityBlock(problem).subproblem(1.0)
    with pytest.raises(NonFiniteValue, match="^smooth oracle gradient overflowed$"):
        kernel(problem.x0)
    with pytest.raises(NonFiniteValue):
        al_gradient_smooth(problem.x0, np.zeros(3), 1.0, problem)
