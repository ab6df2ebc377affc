import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import almkit.core
import almkit.ialm
import almkit.ippm
from almkit.apg import apg_solve
from almkit.core import (
    ConstraintOracle,
    NonFiniteValue,
    ProblemSpec,
    SmoothOracle,
    _al_gradient,
    _kkt,
    _linearize_rows,
    al_gradient_smooth,
    kkt_residual,
)
from almkit.diagnostics import (
    check_feasibility_decay,
    dual_norm_bound,
    estimate_regularity_v,
    trajectory_from_report,
)
from almkit.ialm import (
    RHO_FLOOR,
    IalmConfig,
    PenaltyDual,
    PracticalDual,
    TheoreticalDual,
    dual_step_size,
    dual_update_z,
    gamma_schedule,
    ialm_solve,
)
from almkit.ineq import ialm_ineq_solve, kkt_residual_ineq
from almkit.ippm import SubsolverStall, ippm_solve
from almkit.problems import gen_clustering, gen_ev, gen_lcqp
from almkit.prox import zero_function
from helpers import box_qp_problem, toy_eq_qp, toy_ineq_qp
from test_ineq import linearized_twin, two_constraint_problem
from almkit.prox import BoxSet


@pytest.fixture(scope="module")
def small_lcqp_problem():
    return gen_lcqp(3, 20, 1.0, seed=5).to_problem()


POLICIES = st.one_of(
    st.builds(TheoreticalDual, w0=st.floats(1e-3, 1e3)),
    st.builds(PracticalDual, M=st.floats(1e-3, 1e3), q=st.integers(0, 3)),
    st.just(PenaltyDual()),
)


@settings(max_examples=200, deadline=None)
@given(
    policy=POLICIES,
    k=st.integers(0, 50),
    c=hnp.arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
    gamma=st.floats(0.0, 1e3),
    beta=st.floats(1e-3, 1e3),
)
def test_capped_increment_never_exceeds_the_uncapped_one(policy, k, c, gamma, beta):
    # The solver's increment w_k c, with w_k from ``dual_step_size`` at the
    # measured residual res, uncapped and under the beta cap: the capped
    # one is no longer, and within min(w_k, beta_k) ||c|| up to rounding,
    # which is absolute (at most one subnormal ulp) for subnormal entries.
    # Norms are taken by hypot, which does not underflow to 0 where c'c does.
    res = float(np.linalg.norm(c))
    uncapped, capped = (
        math.hypot(*(dual_step_size(policy, k, res, gamma, cap) * c)) for cap in (math.inf, beta)
    )
    assert capped <= uncapped * (1.0 + 1e-12)
    bound = min(policy.step_size(k, res, gamma), beta) * math.hypot(*c)
    assert capped <= bound * (1.0 + 1e-12) + 3 * math.ulp(0.0)


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
        assert dual_step_size(PracticalDual(M=1.0, q=1), 2, 0.1, 0.0) == pytest.approx(30.0)

    def test_default_practical_step_is_the_unit_norm_rule_bitwise(self):
        c = np.array([1e-9, 3.0, -0.7])
        c_norm = float(np.linalg.norm(c))
        for policy in (PracticalDual(), PracticalDual(M=1.0, q=0)):
            for k in range(5):
                for r in (1e-12, 0.37, c_norm, 5e3):
                    assert policy.step_size(k, r, 0.0) == 1.0 / r
                w = dual_step_size(policy, k, c_norm, 0.0)
                assert np.linalg.norm(w * c) == pytest.approx(1.0, rel=1e-15)

    def test_residual_normalized_policies_vanish_at_zero(self):
        assert dual_step_size(PracticalDual(), 0, 0.0, 0.0) == 0.0
        assert dual_step_size(PracticalDual(M=1.0, q=2), 3, 0.0, 0.0) == 0.0

    def test_gamma_schedule_starts_at_initial_residual(self):
        assert gamma_schedule(0, 7.5) == pytest.approx(7.5)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TheoreticalDual(w0=0.0)
        with pytest.raises(ValueError):
            PracticalDual(M=-1.0, q=0)


def inner_call(solver, *params, **options):
    """``solver`` on a 2-D zero-function problem whose gradient must not be
    called, with the given positional parameters and keyword options."""

    def never_called(x):
        raise AssertionError("gradient called")

    return lambda: solver(never_called, zero_function(), np.zeros(2), *params, **options)


# Each builds a solver object, or calls an inner solver, with one NaN or
# fractional parameter, which a "<= 0" test or a later range() let through.
BAD_PARAMETERS = {
    "eps": lambda: IalmConfig(eps=math.nan),
    "beta0": lambda: IalmConfig(beta0=math.nan),
    "sigma": lambda: IalmConfig(sigma=math.nan),
    "max_outer": lambda: IalmConfig(max_outer=2.5),
    "max_inner": lambda: IalmConfig(max_inner=1e6),
    "w0": lambda: TheoreticalDual(w0=math.nan),
    "M": lambda: PracticalDual(M=math.nan),
    "q": lambda: PracticalDual(q=math.nan),
    "ippm_eps": inner_call(ippm_solve, 1.0, 1.0, math.nan),
    "ippm_rho": inner_call(ippm_solve, math.nan, 1.0, 1.0),
    "ippm_L_phi": inner_call(ippm_solve, 1.0, math.nan, 1.0),
    "apg_eps": inner_call(apg_solve, 1.0, 1.0, math.nan),
    "ippm_max_outer": inner_call(ippm_solve, 1.0, 1.0, 1e-6, 2.5),
    "ippm_max_inner": inner_call(ippm_solve, 1.0, 1.0, 1e-6, 10, 2.5),
    "apg_max_iter": inner_call(apg_solve, 1.0, 1.0, 1e-6, 2.5),
    "apg_max_iter_zero": inner_call(apg_solve, 1.0, 1.0, 1e-6, 0),
}


@pytest.mark.parametrize("name", sorted(BAD_PARAMETERS))
def test_nan_or_fractional_solver_parameter_rejected(name):
    with pytest.raises(ValueError, match="must be positive|must exceed 1|nonnegative integer"):
        BAD_PARAMETERS[name]()


def test_nan_ippm_curvature_start_rejected_before_any_gradient():
    # Refused before the first gradient call, as iPPM's other parameters
    # are; APG would refuse it only after iPPM's gradient at x0.
    with pytest.raises(ValueError, match="^L_init must be a number, got nan$"):
        inner_call(ippm_solve, 1.0, 1.0, 1e-6, L_init=math.nan)()


INFINITE_PARAMETERS = {
    "beta0": lambda: IalmConfig(beta0=math.inf),
    "sigma": lambda: IalmConfig(sigma=math.inf),
    "eps": lambda: IalmConfig(eps=math.inf),
    "w0": lambda: TheoreticalDual(w0=math.inf),
    "M": lambda: PracticalDual(M=math.inf),
}


@pytest.mark.parametrize("name", sorted(INFINITE_PARAMETERS))
def test_infinite_solver_parameter_rejected(name):
    # Refused at construction, not in the middle of a solve (an infinite
    # eps would certify any residual).
    with pytest.raises(ValueError, match=f"^{name} must be .*finite, got inf$"):
        INFINITE_PARAMETERS[name]()


@pytest.mark.parametrize("policy", ["practical", PracticalDual, {"variant": "practical"}, None])
def test_policy_that_is_not_a_policy_rejected(policy):
    with pytest.raises(TypeError, match="^policy must be a dual step policy"):
        IalmConfig(policy=policy)


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

    def test_max_outer_exhaustion_reports_failure(self, small_lcqp_problem):
        rep = ialm_solve(small_lcqp_problem, IalmConfig(max_outer=2, eps=1e-9))
        assert not rep.success
        assert len(rep.records) == 2

    def test_loose_subproblems_cannot_fake_the_certificate(self):
        # Three outer iterations leave the later subproblems looser than
        # eps; the report must still fail, with a re-measurable kkt.
        problem = gen_lcqp(10, 200, 1.0, 0).to_problem()
        eps = 1e-3
        rep = ialm_solve(problem, IalmConfig(eps=eps, max_outer=3))
        assert any(rec.sub_eps > eps for rec in rep.records)
        assert not rep.success
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
            cfg = IalmConfig(policy=PenaltyDual(), max_outer=40, curvature_override=override)
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
        rep = ialm_solve(small_lcqp_problem, IalmConfig(policy=PenaltyDual(), max_outer=40))
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

    counted = SmoothOracle(smooth.value, gradient, smooth.L)
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
        # floor and is capped by the override's rho_hat, here the known
        # weak convexity of g (exact for both blocks' subproblems): the
        # LCQP's rho = 1, and 0 for the toy's convex g.
        make, solve = SOLVERS[block]
        rho_hat = {"equality": 1.0, "hinge": 0.0}[block]
        overrides = []

        def capped(beta, norm):
            overrides.append(beta)
            return rho_hat, math.inf

        rep = solve(make(), IalmConfig(curvature_override=capped))
        assert rep.success and len(overrides) == len(rep.records)
        for rec in rep.records:
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
        # The NaN lands halfway through a clean run's calls, and the
        # gradient's output check raises at that very call.
        make, solve = SOLVERS[block]
        clean, clean_calls = with_counted_gradient(make())
        assert solve(clean, IalmConfig()).success
        nan_from = clean_calls[0] // 2
        problem, calls = with_counted_gradient(make(), nan_from=nan_from)
        with pytest.raises(NonFiniteValue):
            solve(problem, IalmConfig())
        assert calls[0] == nan_from

    def test_public_gradient_calls_are_certificate_calls_only(self, block, monkeypatch):
        # The solver's gradients, certificates and damping scale go through
        # the oracles' private, output-checked methods, so no public
        # SmoothOracle.gradient or ConstraintOracle.evaluate is called.
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
        assert public == {"gradient": 0, "evaluate": 0}


def counted_ev(n=12, seed=0):
    """gen_ev(n, seed) with its constraint rebuilt as a counting linearized
    oracle: c(x) = x'Bx - 1 and v -> 2 v Bx from one B @ x."""
    inst = gen_ev(n, seed)
    calls = [0]

    def linearize(x):
        calls[0] += 1
        Bx = inst.B @ x
        return np.array([float(x @ Bx) - 1.0]), lambda v: (2.0 * v[0]) * Bx

    constraints = ConstraintOracle.linearized(linearize, n_constraints=1)
    return dataclasses.replace(inst.to_problem(), constraints=constraints), calls


class TestOneLinearizationPerCertificate:
    """Every certificate and diagnostic linearizes the constraint rows once
    per point and reuses the product for each multiplier there."""

    def test_kkt_residual(self):
        problem, calls = counted_ev()
        kkt_residual(problem.x0, np.array([0.5]), problem)
        assert calls[0] == 1

    def test_equality_certificate_and_running_dres(self):
        # Two _kkt calls on one linearization, at y + beta c(x) and at y.
        problem, calls = counted_ev()
        y, x, beta = np.array([0.3]), problem.x0 + 0.1, 2.0
        rows = _linearize_rows(problem, x)
        g = problem.smooth._gradient(x)
        y_cert = y + beta * rows[0]
        kkt = _kkt(problem, x, y_cert, None, rows, g)
        running = _kkt(problem, x, y, None, rows, g)
        assert calls[0] == 1
        # The reused product gives what a fresh certificate measures.
        assert kkt == kkt_residual(x, y_cert, problem)
        assert running == kkt_residual(x, y, problem)

    def test_each_outer_iteration_linearizes_once_besides_its_gradients(self):
        # Each AL gradient and each certificate linearizes once, and the
        # damping scale reads c(x0) once more.  The certificate's grad g
        # and every later subproblem's first AL gradient reuse the gradient
        # of APG's last iterate x_{k+1}, so they count no #Grad.
        problem, calls = counted_ev()
        rep = ialm_solve(problem, IalmConfig())
        assert rep.success and len(rep.records) >= 2
        assert calls[0] == rep.grad_evals + 2 * len(rep.records)

    def test_kkt_residual_ineq_and_hinge_certificate(self):
        problem, calls = linearized_twin(two_constraint_problem())
        x, y, z = np.array([0.9, 0.4]), np.array([0.2]), np.array([0.5, 0.0])
        kkt_residual_ineq(x, y, z, problem)
        assert calls[0] == 1
        calls[0] = 0
        rows = _linearize_rows(problem, x)
        g = problem.smooth._gradient(x)
        z_cert = np.maximum(z + 2.0 * rows[2], 0.0)
        kkt = _kkt(problem, x, y + 2.0 * rows[0], z_cert, rows, g)
        running = _kkt(problem, x, y, z, rows, g)
        assert calls[0] == 1
        assert kkt == kkt_residual(x, y + 2.0 * rows[0], problem, z_cert)
        assert running == kkt_residual_ineq(x, y, z, problem)

    def test_each_record_of_the_regularity_estimate(self):
        problem, calls = counted_ev()
        rep = ialm_solve(problem, IalmConfig())
        calls[0] = 0
        trace = estimate_regularity_v(trajectory_from_report(rep), problem)
        assert trace.supported and calls[0] == len(rep.records)


def with_logged_points(problem):
    """Copy of ``problem`` whose smooth gradient callable logs the bytes of
    each point it is called at."""
    points, smooth = [], problem.smooth

    def logged(x):
        points.append(x.tobytes())
        return smooth._gradient_fn(x)

    return dataclasses.replace(problem, smooth=SmoothOracle(None, logged, smooth.L)), points


ONE_CALL_CASES = {
    "lcqp": lambda: gen_lcqp(3, 20, 1.0, seed=5).to_problem(),
    "ev": lambda: gen_ev(12, 0).to_problem(),
    "cluster": lambda: gen_clustering(
        np.random.default_rng(0).standard_normal((12, 2)), r=3, s=100.0
    ).to_problem(),
    "hinge": lambda: toy_ineq_qp()[0],
}


@pytest.mark.parametrize("name", sorted(ONE_CALL_CASES))
def test_a_solve_calls_the_gradient_at_each_point_once(name):
    # The certificate at x_{k+1}, the next subproblem's start there and a
    # redo from the centre reuse gradients the solve already holds.
    problem, points = with_logged_points(ONE_CALL_CASES[name]())
    rep = ialm_solve(problem, IalmConfig())
    assert rep.success and rep.grad_evals == len(points)
    assert len(set(points)) == len(points)


def test_unreachable_eps_on_an_unbounded_domain_stalls_in_bounded_time():
    # EV's h is zero, so dom h is unbounded, and no iterate certifies to
    # eps = 1e-13: the APG stall guard, sized from the first certified
    # iterate's distance bound, ends the solve.
    with pytest.raises(SubsolverStall, match="stall guard") as stall:
        ialm_solve(gen_ev(20, 0).to_problem(), IalmConfig(eps=1e-13))
    assert stall.value.grad_evals < 200_000


def equality_subproblem_case(rng, make=lambda: gen_lcqp(3, 20, 1.0, seed=5).to_problem()):
    """(problem, its solve copy, y, z) with random multipliers."""
    problem = make()
    y = rng.standard_normal(problem.constraints.n_constraints)
    return problem, problem.for_solve(), y, None


def ev_subproblem_case(rng):
    return equality_subproblem_case(rng, lambda: gen_ev(40, 0).to_problem())


def cluster_subproblem_case(rng):
    points = np.random.default_rng(0).standard_normal((12, 2))
    return equality_subproblem_case(
        rng, lambda: gen_clustering(points, r=3, s=100.0).to_problem()
    )


def hinge_subproblem_case(rng, make=lambda: toy_ineq_qp()[0]):
    problem = make()
    y = rng.standard_normal(problem.constraints.n_constraints)
    return problem, problem.for_solve(), y, rng.uniform(0.0, 3.0, problem.ineq.n_constraints)


def hinge_affine_subproblem_case(rng):
    return hinge_subproblem_case(rng, two_constraint_problem)


# LCQP (affine rows as data), EV and clustering (callback rows), and the
# inequality rows without and with affine equality rows.
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
        problem, copy, y, z = case(rng)
        beta = float(rng.uniform(0.01, 100.0))
        grad = _al_gradient(copy, y, z, beta)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, problem.dim)
            assert np.array_equal(grad(x), al_gradient_smooth(x, y, beta, problem, z))


def replayed_gradient(problem, y, z, beta):
    """The AL gradient as written before the per-subproblem closures: the
    rows of a problem without inequality rows all through the constraint
    oracle's public value and product, the affine equality rows of one with
    them from their data."""
    if z is None:
        def grad(x):
            c = problem.constraints.evaluate(x)
            jt = problem.constraints.jacobian_transpose_apply
            return problem.smooth.gradient(x) + jt(x, y + beta * c)

        return grad

    def grad(x):
        g = problem.smooth.gradient(x)
        if problem.constraints.n_constraints:
            A, b = problem.constraints.affine_data
            r = A @ x - b
            g = g + A.T @ (y + beta * r)
        f = problem.ineq.evaluate(x)
        return g + problem.ineq.jacobian_transpose_apply(x, np.maximum(z + beta * f, 0.0))

    return grad


@pytest.mark.parametrize("case", SUBPROBLEM_CASES)
def test_subproblem_gradient_replays_the_old_formula_bitwise(case):
    rng = np.random.default_rng(11)
    for _ in range(4):
        problem, copy, y, z = case(rng)
        beta = 10.0 ** rng.uniform(-2, 2)
        kernel = _al_gradient(copy, y, z, beta)
        for _ in range(3):
            x = rng.uniform(-1.0, 1.0, problem.dim)
            before = copy.smooth.grad_evals
            got = kernel(x)
            assert copy.smooth.grad_evals == before + 1
            assert got.tobytes() == replayed_gradient(problem, y, z, beta)(x).tobytes()


def lcqp_split():
    """gen_lcqp(6, 20, 1, 5) with rows 0-2 as equalities and rows 3-5 as
    inequalities a_i'x <= b_i, all held as data."""
    inst = gen_lcqp(6, 20, 1.0, seed=5)
    return dataclasses.replace(
        inst.to_problem(),
        constraints=ConstraintOracle.affine(inst.A[:3], inst.b[:3]),
        ineq=ConstraintOracle.affine(inst.A[3:], inst.b[3:]),
    )


# Seed 1 is an instance where M c / ||c|| and (M / ||c||) c, the practical
# policy's step written two ways, round apart.
REPLAY_CASES = {
    "equality": lambda: gen_lcqp(3, 20, 1.0, seed=1).to_problem(),
    "hinge": lcqp_split,
}


@pytest.mark.parametrize("kind", sorted(REPLAY_CASES))
def test_running_multipliers_replay_from_the_records(kind):
    # Every problem moves y by w_k c(x_{k+1}), and z by dual_update_z when
    # it has inequality rows, so the records replay the running multipliers
    # bit for bit; and both kinds of record set the same fields, but z.
    problem = REPLAY_CASES[kind]()
    rep = ialm_solve(problem, IalmConfig(policy=PracticalDual()))
    assert rep.success and len(rep.records) >= 3
    y = np.zeros(problem.constraints.n_constraints)
    z = None if problem.ineq is None else np.zeros(problem.ineq.n_constraints)
    for rec in rep.records:
        y = y + rec.w * problem.constraints.evaluate(rec.x)
        if z is not None:
            z = dual_update_z(z, problem.ineq.evaluate(rec.x), rec.w, rec.beta)
            assert rec.z.tobytes() == z.tobytes()
        unset = {f.name for f in dataclasses.fields(rec) if getattr(rec, f.name) is None}
        assert unset == (set() if z is not None else {"z"})
    assert y.tobytes() == rep.y_running.tobytes()
    assert (z is None and rep.z_running is None) or z.tobytes() == rep.z_running.tobytes()


def test_lcqp_rows_are_read_as_data():
    # The affine path calls no constraint callback: only the gradient.
    problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
    A, b = problem.constraints.affine_data
    assert A.shape == (3, 20) and b.shape == (3,)

    def refused(*args):
        raise AssertionError("constraint callback called")

    problem.constraints._linearize_fn = refused
    y = np.ones(3)
    g = al_gradient_smooth(problem.x0, y, 2.0, problem)
    expected = problem.smooth.gradient(problem.x0) + A.T @ (y + 2.0 * (A @ problem.x0 - b))
    assert g.tobytes() == expected.tobytes()


def test_nan_gradient_on_affine_rows_raises():
    problem = gen_lcqp(3, 20, 1.0, seed=5).to_problem()
    problem.smooth._gradient_fn = lambda x: np.full_like(x, np.nan)
    kernel = _al_gradient(problem, np.zeros(3), None, 1.0)
    with pytest.raises(NonFiniteValue, match="^smooth oracle gradient overflowed$"):
        kernel(problem.x0)
    with pytest.raises(NonFiniteValue):
        al_gradient_smooth(problem.x0, np.zeros(3), 1.0, problem)


def lcqp_split_s0(affine_ineq):
    """gen_lcqp(10, 200, 1, 0) with rows 0-4 as equalities held as data and
    rows 5-9 as inequalities, held as data too or given as two callbacks."""
    inst = gen_lcqp(10, 200, 1.0, seed=0)
    A_in, b_in = inst.A[5:], inst.b[5:]
    if affine_ineq:
        ineq = ConstraintOracle.affine(A_in, b_in)
    else:
        ineq = ConstraintOracle(lambda x: A_in @ x - b_in, lambda x, v: A_in.T @ v, 5)
    return dataclasses.replace(
        inst.to_problem(), constraints=ConstraintOracle.affine(inst.A[:5], inst.b[:5]), ineq=ineq
    )


class TestAffineRowsAreDataOnBothBlocks:
    def test_a_solve_checks_no_product_of_affine_rows(self, monkeypatch):
        checked = [0]
        product = almkit.core._checked_product

        def counted(out, x):
            checked[0] += 1
            return product(out, x)

        monkeypatch.setattr(almkit.core, "_checked_product", counted)
        rep = ialm_solve(lcqp_split_s0(affine_ineq=True), IalmConfig())
        assert rep.success and checked[0] == 0

    def test_data_and_callback_inequality_rows_take_the_same_trajectory(self):
        data, callbacks = (ialm_solve(lcqp_split_s0(a), IalmConfig()) for a in (True, False))
        assert data.grad_evals == callbacks.grad_evals
        assert len(data.records) == len(callbacks.records)
        assert data.x.tobytes() == callbacks.x.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("block", ["constraints", "ineq"])
    def test_an_overflowing_affine_product_still_fails_fast(self, block):
        # The data are finite, but A x0 overflows to inf; the unchecked data
        # kernel hands it on, and the certificate's residuals or the first
        # AL gradient reject it.
        rows = ConstraintOracle.affine([[1e300, 1e300]], [0.0])
        empty = ConstraintOracle.affine(np.zeros((0, 2)), np.zeros(0))
        smooth = SmoothOracle(lambda x: 0.5 * float(x @ x), lambda x: x.copy(), 1.0)
        problem = ProblemSpec(
            smooth, zero_function(), rows if block == "constraints" else empty, None,
            np.array([1e10, 1e10]), ineq=None if block == "constraints" else rows,
        )
        y, z = np.zeros(problem.constraints.n_constraints), None
        if block == "ineq":
            z = np.zeros(1)
        with pytest.raises(NonFiniteValue):
            kkt_residual(problem.x0, y, problem, z)
        with pytest.raises(NonFiniteValue):
            ialm_solve(problem, IalmConfig())
        # The public value stays checked.
        with pytest.raises(NonFiniteValue, match="^constraint oracle overflowed$"):
            rows.evaluate(problem.x0)
