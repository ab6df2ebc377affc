"""End-to-end acceptance checks at the benchmark defaults.

Each test prints one pass/fail line; run with plain ``pytest`` (the lines
bypass capture).  The LCQP and generalized-eigenvalue gradient-count targets
are order-of-magnitude reproduction windows around the reference averages
34294 and 24672 measured on this family of instances.
"""

import statistics

import numpy as np
import pytest

from almkit.apg import apg_solve, worst_case_iteration_bound
from almkit.core import SmoothOracle
from almkit.diagnostics import check_feasibility_decay, dual_norm_bound
from almkit.ialm import IalmConfig, PenaltyDual, PracticalDual, TheoreticalDual, ialm_solve
from almkit.ineq import ialm_ineq_solve, slack_reformulate
from almkit.ippm import ippm_solve
from almkit.problems import gen_ev, gen_lcqp
from almkit.prox import BoxSet, box_indicator, zero_function
from helpers import toy_eq_qp, toy_ineq_qp

LCQP_REFERENCE_GRADS = 34294
EV_REFERENCE_GRADS = 24672
SEEDS = tuple(range(10))
EPS = 1e-3


def announce(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance {number}] {name}: {status} {detail}".rstrip())


@pytest.fixture(scope="module")
def lcqp_practical():
    runs = []
    for seed in SEEDS:
        problem = gen_lcqp(10, 200, 1.0, seed).to_problem()
        runs.append((problem, ialm_solve(problem, IalmConfig(policy=PracticalDual()))))
    return runs


@pytest.fixture(scope="module")
def lcqp_penalty():
    runs = []
    for seed in SEEDS:
        problem = gen_lcqp(10, 200, 1.0, seed).to_problem()
        runs.append((problem, ialm_solve(problem, IalmConfig(policy=PenaltyDual()))))
    return runs


@pytest.fixture(scope="module")
def lcqp_theoretical():
    runs = []
    for seed in SEEDS[:3]:
        problem = gen_lcqp(10, 200, 1.0, seed).to_problem()
        runs.append(
            (problem, ialm_solve(problem, IalmConfig(policy=TheoreticalDual(w0=1.0))))
        )
    return runs


@pytest.fixture(scope="module")
def ev_run():
    problem = gen_ev(200, 0).to_problem()
    return problem, ialm_solve(problem, IalmConfig())


def test_criterion_1_lcqp_reproduction(lcqp_practical, capsys):
    certified = all(
        rep.success and rep.kkt.pres <= EPS and rep.kkt.dres <= EPS
        for _, rep in lcqp_practical
    )
    avg_grads = float(np.mean([rep.grad_evals for _, rep in lcqp_practical]))
    in_window = LCQP_REFERENCE_GRADS / 5.0 <= avg_grads <= LCQP_REFERENCE_GRADS * 5.0
    total_seconds = sum(rep.seconds for _, rep in lcqp_practical)
    within_time = total_seconds < 120.0
    ok = certified and in_window and within_time
    announce(
        capsys,
        1,
        "LCQP reproduction (m=10, n=200, 10 trials)",
        ok,
        f"avg #grad={avg_grads:.0f} (reference {LCQP_REFERENCE_GRADS}), "
        f"total {total_seconds:.1f}s",
    )
    assert certified, "some trial failed to certify pres/dres <= 1e-3"
    assert in_window, f"avg gradient count {avg_grads:.0f} outside the 5x window"
    assert within_time, f"campaign took {total_seconds:.1f}s >= 120s"


def test_criterion_2_feasibility_decay(lcqp_practical, lcqp_penalty, lcqp_theoretical, capsys):
    verdicts = []
    for _, rep in (*lcqp_practical, *lcqp_penalty, *lcqp_theoretical):
        verdicts.append(check_feasibility_decay(rep, 3.0).passed)
    ok = all(verdicts)
    announce(
        capsys,
        2,
        "feasibility decay ||c|| beta bounded after burn-in",
        ok,
        f"{sum(verdicts)}/{len(verdicts)} runs",
    )
    assert ok


def test_criterion_3_dual_boundedness(lcqp_theoretical, capsys):
    ok = True
    margins = []
    for problem, rep in lcqp_theoretical:
        c0 = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))
        y_max = dual_norm_bound(1.0, c0)
        observed = max(rec.y_norm for rec in rep.records)
        margins.append(observed / y_max)
        ok = ok and observed <= y_max and rep.success
    announce(
        capsys,
        3,
        "dual norm bound on damped-policy runs (w0=1, exact)",
        ok,
        f"max ratio {max(margins):.3f}",
    )
    assert ok


def _random_ppm_instance(rng, dim):
    """Box-constrained indefinite quadratic with exactly known curvature."""
    d = rng.uniform(0.5, 4.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    b = rng.standard_normal(dim)
    phi = SmoothOracle(
        lambda x, d=d, b=b: 0.5 * float(x @ (d * x)) + float(b @ x),
        lambda x, d=d, b=b: d * x + b,
        smoothness=float(np.max(np.abs(d))),
    )
    box = BoxSet.cube(-1.0, 1.0, dim)
    x0 = rng.uniform(-1.0, 1.0, size=dim)
    return phi, float(max(0.0, -np.min(d))), box, x0


def test_criterion_4_subsolver_certificates(capsys):
    rng = np.random.default_rng(2024)
    eps = 1e-6
    worst = 0.0
    for trial in range(20):
        dim = 1 if trial < 10 else 2
        phi, rho, box, x0 = _random_ppm_instance(rng, dim)
        res = ippm_solve(
            phi.gradient,
            box_indicator(box),
            x0,
            rho=max(rho, 0.5),
            L_phi=phi.L,
            eps=eps,
        )
        assert res.stationarity <= eps
        exact = box_indicator(box).subdiff_distance(res.x, -phi.gradient(res.x))
        worst = max(worst, exact)
        assert exact <= eps

    bound_ok = True
    for _ in range(10):
        d = np.concatenate([[1.0, 100.0], rng.uniform(1.0, 100.0, size=4)])
        b = rng.standard_normal(6)
        G = SmoothOracle(
            lambda x, d=d, b=b: 0.5 * float(x @ (d * x)) - float(b @ x),
            lambda x, d=d, b=b: d * x - b,
            smoothness=100.0,
        )
        x_init = rng.standard_normal(6)
        x_star = b / d
        res = apg_solve(G.gradient, zero_function(), x_init, mu=1.0, L_G=100.0, eps=eps)
        x0 = x_init - G.gradient(x_init) / 100.0
        T = worst_case_iteration_bound(
            1.0,
            100.0,
            eps,
            float(np.sum((x_init - x_star) ** 2)),
            float(np.sum((x0 - x_star) ** 2)),
        )
        bound_ok = bound_ok and res.converged and res.iterations <= T
    announce(
        capsys,
        4,
        "subsolver certificates (20 proximal-point instances, APG bounds)",
        bound_ok,
        f"worst recomputed stationarity {worst:.2e}",
    )
    assert bound_ok


def test_criterion_5_oracle_equivalence_toys(capsys):
    eq_problem, x_star = toy_eq_qp()
    eq_rep = ialm_solve(eq_problem, IalmConfig(eps=EPS))
    eq_ok = eq_rep.success and np.linalg.norm(eq_rep.x - x_star) <= 1e-2

    ineq_problem, xi_star, _ = toy_ineq_qp()
    direct = ialm_ineq_solve(ineq_problem, IalmConfig(eps=EPS))
    direct_ok = direct.success and abs(direct.x[0] - xi_star) <= 1e-2

    ref = slack_reformulate(ineq_problem)
    lifted = ialm_solve(ref.problem, IalmConfig(eps=EPS))
    cert = ref.translate(lifted.x, lifted.y, ineq_problem.ineq)
    slack_ok = lifted.success and abs(cert.x[0] - direct.x[0]) <= 2 * EPS

    ok = eq_ok and direct_ok and slack_ok
    announce(
        capsys,
        5,
        "hand-KKT toys and slack/direct agreement",
        ok,
        f"|x_eq - x*|={np.linalg.norm(eq_rep.x - x_star):.2e}, "
        f"path gap={abs(cert.x[0] - direct.x[0]):.2e}",
    )
    assert eq_ok and direct_ok and slack_ok


def test_criterion_6_ev_reproduction(ev_run, capsys):
    problem, rep = ev_run
    certified = rep.success and rep.kkt.pres <= EPS and rep.kkt.dres <= EPS
    in_window = EV_REFERENCE_GRADS / 10.0 <= rep.grad_evals <= EV_REFERENCE_GRADS * 10.0
    within_time = rep.seconds < 60.0
    ok = certified and in_window and within_time
    announce(
        capsys,
        6,
        "generalized-eigenvalue run (n=200)",
        ok,
        f"pres={rep.kkt.pres:.2e} dres={rep.kkt.dres:.2e} "
        f"#grad={rep.grad_evals} (reference {EV_REFERENCE_GRADS}), {rep.seconds:.1f}s",
    )
    assert certified and in_window and within_time


def test_criterion_7_penalty_ablation(lcqp_practical, lcqp_penalty, capsys):
    med_ialm = statistics.median(rep.grad_evals for _, rep in lcqp_practical)
    med_penalty = statistics.median(rep.grad_evals for _, rep in lcqp_penalty)
    ok = med_ialm <= med_penalty
    announce(
        capsys,
        7,
        "penalty ablation (median #grad, multiplier updates vs frozen)",
        ok,
        f"ialm={med_ialm:.0f} penalty={med_penalty:.0f}",
    )
    if not ok:
        pytest.xfail(
            "soft criterion: multiplier updates did not beat the penalty "
            f"ablation (median {med_ialm:.0f} vs {med_penalty:.0f}); investigate"
        )


def test_criterion_8_property_suites(capsys, tmp_path):
    # Re-run one representative property check per module; the full suites
    # live in the per-module test files.
    import test_cli
    import test_core
    import test_diagnostics
    import test_ineq
    import test_problems
    import test_prox

    test_core.TestAlGradient().test_matches_finite_differences_on_random_lcqp()
    test_core.TestKktResidual().test_dres_is_the_exact_distance_of_h()
    test_prox.TestProjectNonnegBall().test_matches_grid_oracle_on_random_points()
    test_ineq.TestAlIneqGradient().test_matches_finite_differences_away_from_kinks()
    test_problems.TestGenLcqp().test_seeded_determinism_is_bitwise()
    test_problems.TestGenLcqp().test_row_bounds_match_vertex_enumeration()
    test_diagnostics.TestRegularityEstimator().test_affine_ratio_dominates_smallest_singular_value()
    test_cli.TestReport().test_residuals_are_independently_recomputed(tmp_path)
    announce(capsys, 8, "module invariant and property suites", True, "representatives green")
