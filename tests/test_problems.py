import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from almkit.ialm import IalmConfig, ialm_solve
from almkit.problems import (
    ClusteringInstance,
    EvInstance,
    LcqpInstance,
    distance_matrix,
    gen_clustering,
    gen_ev,
    gen_lcqp,
    instance_from_dict,
    instance_to_dict,
    lcqp_row_bounds,
    load_instance,
    load_points_csv,
    save_instance,
)
from almkit.prox import BoxSet


class TestGenLcqp:
    def test_seeded_determinism_is_bitwise(self):
        a = gen_lcqp(4, 16, 1.0, seed=42)
        b = gen_lcqp(4, 16, 1.0, seed=42)
        for field in ("Q", "c", "A", "b", "x0"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        c = gen_lcqp(4, 16, 1.0, seed=43)
        assert not np.array_equal(a.Q, c.Q)

    def test_spectrum_shifted_to_target(self):
        inst = gen_lcqp(3, 30, 2.5, seed=1)
        lam_min = float(np.linalg.eigvalsh(inst.Q)[0])
        assert abs(lam_min + 2.5) <= 1e-8

    def test_constructed_feasible_point(self):
        inst = gen_lcqp(5, 25, 1.0, seed=9)
        # b = A xhat exactly, and xhat sits in the inner half of the box.
        residuals = [float(np.linalg.norm(inst.A @ x - inst.b)) for x in [inst.x0]]
        assert all(np.isfinite(residuals))
        assert np.all(inst.lower == -5.0) and np.all(inst.upper == 5.0)
        # Recover the feasible point's residual through the generator's own draw.
        from almkit.problems import STREAM_FEASIBLE, _rng

        xhat = _rng(9, STREAM_FEASIBLE).uniform(inst.lower / 2.0, inst.upper / 2.0)
        assert float(np.linalg.norm(inst.A @ xhat - inst.b)) == 0.0

    def test_row_bounds_match_vertex_enumeration(self):
        inst = gen_lcqp(3, 8, 1.0, seed=3)
        box = BoxSet(inst.lower, inst.upper)
        bounds = lcqp_row_bounds(inst.A, inst.b, box)
        for i in range(3):
            best = max(
                abs(float(inst.A[i] @ np.array(v) - inst.b[i]))
                for v in itertools.product(*zip(inst.lower, inst.upper))
            )
            expected = max(best, float(np.linalg.norm(inst.A[i])))
            assert bounds[i] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(ValueError):
            gen_lcqp(10, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_lcqp(2, 10, 0.0, seed=0)

    def test_nan_rho_rejected_by_its_own_check(self):
        with pytest.raises(ValueError, match="rho must be positive, got nan"):
            gen_lcqp(2, 10, math.nan, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_stream_key_range_rejected(self, seed):
        # Philox keys are 64-bit unsigned; numpy would raise OverflowError.
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\^64\), got {seed}$"):
            gen_lcqp(4, 40, 1.0, seed)
        assert gen_lcqp(4, 40, 1.0, 2**64 - 1).seed == 2**64 - 1

    def test_problem_ledger_consistency(self):
        inst = gen_lcqp(3, 12, 1.0, seed=2)
        prob = inst.to_problem()
        ledger = prob.constants
        assert ledger.B_c == pytest.approx(float(np.linalg.norm(inst.A, 2)))
        # The AL is rho-weakly convex for every beta, with rho the
        # instance's; as an override cap it bounds every estimate.
        cap = IalmConfig(curvature_override=lambda beta, y: (inst.rho, math.inf))
        rep = ialm_solve(prob, cap)
        assert rep.success and all(rec.rho <= inst.rho for rec in rep.records)


class TestGenEv:
    def test_seeded_determinism(self):
        a, b = gen_ev(40, seed=7), gen_ev(40, seed=7)
        assert np.array_equal(a.Q, b.Q) and np.array_equal(a.B, b.B)
        assert np.array_equal(a.x0, b.x0)

    def test_B_positive_definite_with_unit_floor(self):
        inst = gen_ev(50, seed=0)
        assert float(np.linalg.eigvalsh(inst.B)[0]) >= 1.0 - 1e-9

    def test_Q_exactly_symmetric(self):
        inst = gen_ev(30, seed=4)
        assert np.array_equal(inst.Q, inst.Q.T)

    def test_initial_point_off_the_constraint_surface(self):
        for seed in range(20):
            inst = gen_ev(25, seed=seed)
            c0 = abs(float(inst.x0 @ (inst.B @ inst.x0)) - 1.0)
            assert c0 >= 1e-3

    def test_small_size_rejected(self):
        with pytest.raises(ValueError):
            gen_ev(1, seed=0)


LOOSE_CAP_CASES = {
    "ev": lambda: (gen_ev(40, 0).to_problem(), IalmConfig()),
    "lcqp": lambda: (gen_lcqp(4, 40, 1.0, 0).to_problem(), IalmConfig()),
    "cluster": lambda: (
        gen_clustering(np.random.default_rng(0).standard_normal((12, 2)), r=3, s=100.0).to_problem(),
        IalmConfig(eps=1e-2),
    ),
}


class TestCurvatureSchedules:
    @pytest.mark.parametrize("family", sorted(LOOSE_CAP_CASES))
    def test_loose_smoothness_cap_costs_few_extra_gradients(self, family):
        # Without an override APG's curvature estimate is uncapped; a finite
        # L_hat through the override only caps it, and does not seed it, so
        # a cap 16x above every estimate the uncapped solve ended a
        # subproblem with may cost at most 25% more #Grad (seeding APG at a
        # 16x cap once cost up to 18%).
        problem, config = LOOSE_CAP_CASES[family]()
        default = ialm_solve(problem, config)
        L_cap = 16.0 * max(rec.L for rec in default.records)
        capped = dataclasses.replace(config, curvature_override=lambda beta, y: (math.inf, L_cap))
        capped_run = ialm_solve(problem, capped)
        assert default.success and capped_run.success
        assert capped_run.grad_evals <= 1.25 * default.grad_evals

    def test_loose_weak_convexity_cap_costs_few_extra_gradients(self):
        # rho_hat only caps iPPM's measured weak-convexity estimate, so
        # against the quadratic program's exact rho, a 16x looser cap and no
        # cap at all may each cost at most 25% more #Grad (a fixed
        # rho = 16 rho costs about 2.7x).
        problem, config = LOOSE_CAP_CASES["lcqp"]()
        rho = 1.0  # the rho this case's gen_lcqp is built with

        def run(rho_hat):
            def override(beta, y_norm):
                return rho_hat, math.inf

            return ialm_solve(problem, dataclasses.replace(config, curvature_override=override))

        exact = run(rho)
        for loose in (run(16.0 * rho), ialm_solve(problem, config)):
            assert exact.success and loose.success
            assert loose.grad_evals <= 1.25 * exact.grad_evals


class TestGenClustering:
    def test_nan_radius_rejected_by_its_own_check(self):
        points = np.random.default_rng(0).standard_normal((5, 2))
        with pytest.raises(ValueError, match="s = nan"):
            gen_clustering(points, r=2, s=math.nan)

    def test_distance_matrix_properties(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((12, 3))
        D = distance_matrix(pts)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.all(D >= 0.0)

    def test_uniform_point_satisfies_all_constraints(self):
        rng = np.random.default_rng(1)
        inst = gen_clustering(rng.standard_normal((9, 2)), r=3, s=10.0)
        prob = inst.to_problem()
        n = 9
        X = np.zeros((n, 3))
        X[:, 0] = 1.0 / math.sqrt(n)
        c = prob.constraints.evaluate(X.ravel())
        assert np.linalg.norm(c) <= 1e-12

    def test_objective_matches_brute_force(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((8, 2))
        inst = gen_clustering(pts, r=2, s=5.0)
        prob = inst.to_problem()
        for _ in range(5):
            X = np.abs(rng.standard_normal((8, 2)))
            brute = sum(
                inst.D[i, j] * float(X[i] @ X[j]) for i in range(8) for j in range(8)
            )
            val = prob.smooth.value(X.ravel())
            assert val == pytest.approx(brute, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        from helpers import finite_difference_gradient

        rng = np.random.default_rng(3)
        inst = gen_clustering(rng.standard_normal((6, 2)), r=2, s=5.0)
        prob = inst.to_problem()
        x = np.abs(rng.standard_normal(12)) * 0.3
        grad = prob.smooth.gradient(x)
        fd = finite_difference_gradient(prob.smooth.value, x)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))

    def test_constraint_jacobian_transpose_is_linear_and_correct(self):
        from helpers import finite_difference_gradient

        rng = np.random.default_rng(4)
        inst = gen_clustering(rng.standard_normal((5, 2)), r=2, s=5.0)
        prob = inst.to_problem()
        x = np.abs(rng.standard_normal(10)) * 0.4
        v = rng.standard_normal(5)
        jt = prob.constraints.jacobian_transpose_apply(x, v)
        fd = finite_difference_gradient(
            lambda u: float(v @ prob.constraints.evaluate(u)), x
        )
        assert np.linalg.norm(jt - fd) <= 1e-5 * max(1.0, np.linalg.norm(jt))
        # Linearity in v.
        v2 = rng.standard_normal(5)
        lhs = prob.constraints.jacobian_transpose_apply(x, 2.0 * v + v2)
        rhs = 2.0 * jt + prob.constraints.jacobian_transpose_apply(x, v2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_benchmark_scale_configuration_builds(self):
        rng = np.random.default_rng(5)
        inst = gen_clustering(rng.standard_normal((150, 4)), r=6, s=100.0)
        prob = inst.to_problem()
        assert prob.dim == 900
        assert prob.constraints.n_constraints == 150

    def test_initial_point_feasible_with_nonzero_residual(self):
        rng = np.random.default_rng(6)
        inst = gen_clustering(rng.standard_normal((10, 3)), r=2, s=4.0)
        prob = inst.to_problem()
        assert math.isfinite(prob.nonsmooth.value(prob.x0))
        assert float(np.linalg.norm(prob.constraints.evaluate(prob.x0))) >= 1e-3


class TestCsvLoader:
    def test_plain_numeric_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        mat = load_points_csv(str(path))
        assert mat.shape == (3, 2)
        assert mat[2, 1] == 6.0

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        mat = load_points_csv(str(path))
        assert mat.shape == (2, 2)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,4.0,9.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_points_csv(str(path))

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_points_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_line(self, tmp_path, cell):
        path = tmp_path / "pts.csv"
        path.write_text(f"1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: non-finite cell$"):
            load_points_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no numeric data"):
            load_points_csv(str(path))


class TestInstanceSerialization:
    def test_lcqp_round_trip(self, tmp_path):
        inst = gen_lcqp(3, 10, 1.0, seed=11)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        loaded = load_instance(str(path))
        assert isinstance(loaded, LcqpInstance)
        for field in ("Q", "c", "A", "b", "lower", "upper", "x0"):
            assert np.array_equal(getattr(inst, field), getattr(loaded, field))
        assert loaded.rho == inst.rho and loaded.seed == inst.seed

    def test_ev_and_cluster_round_trip(self, tmp_path):
        ev = gen_ev(12, seed=2)
        data = instance_to_dict(ev)
        back = instance_from_dict(json.loads(json.dumps(data)))
        assert isinstance(back, EvInstance)
        assert np.array_equal(ev.B, back.B)

        rng = np.random.default_rng(0)
        cl = gen_clustering(rng.standard_normal((6, 2)), r=2, s=3.0)
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(cl))))
        assert isinstance(back, ClusteringInstance)
        assert np.array_equal(cl.D, back.D)

    def test_cluster_sizes_keep_their_types(self):
        points = np.random.default_rng(0).standard_normal((5, 2))
        data = json.loads(json.dumps(instance_to_dict(gen_clustering(points, r=2, s=3))))
        back = instance_from_dict(data)
        assert type(back.r) is int and back.r == 2
        assert type(back.s) is float and back.s == 3.0

    @pytest.mark.parametrize("key, bad", [("r", 2.5), ("s", "3"), ("r", True)])
    def test_wrongly_typed_size_rejected(self, key, bad):
        points = np.random.default_rng(0).standard_normal((5, 2))
        data = instance_to_dict(gen_clustering(points, r=2, s=3.0)) | {key: bad}
        with pytest.raises(ValueError, match=f"^'{key}' needs a JSON"):
            instance_from_dict(data)

    @pytest.mark.parametrize("key", ["Q", "x0"])
    def test_nan_entry_names_the_key(self, key):
        data = json.loads(json.dumps(instance_to_dict(gen_lcqp(2, 4, 1.0, seed=0))))
        if key == "Q":
            data["Q"][1][2] = math.nan
        else:
            data["x0"][0] = math.nan
        with pytest.raises(ValueError, match=f"^'{key}' holds NaN$"):
            instance_from_dict(data)

    def test_infinite_box_bound_stays_legal(self):
        data = instance_to_dict(gen_lcqp(2, 4, 1.0, seed=0))
        data["upper"][0] = math.inf
        back = instance_from_dict(json.loads(json.dumps(data)))
        assert back.upper[0] == math.inf

    def test_format_version_enforced(self):
        data = instance_to_dict(gen_ev(5, seed=0))
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format_version"):
            instance_from_dict(data)

    def test_matrices_serialized_row_major(self):
        inst = gen_lcqp(2, 4, 1.0, seed=0)
        data = instance_to_dict(inst)
        assert data["A"][0] == inst.A[0].tolist()


class TestLinearizedConstraints:
    """EV and clustering build their constraints with one linearizing
    callback; its public value and product equal the two former callbacks
    bit for bit."""

    def test_ev_matches_the_two_callbacks(self):
        inst = gen_ev(30, 2)
        cons, B = inst.to_problem().constraints, inst.B
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, v = rng.standard_normal(30), rng.standard_normal(1)
            old_c = np.array([float(x @ (B @ x)) - 1.0])
            old_jt = (2.0 * v[0]) * (B @ x)
            assert cons.evaluate(x).tobytes() == old_c.tobytes()
            assert cons.jacobian_transpose_apply(x, v).tobytes() == old_jt.tobytes()
            c, jt = cons._linearize(x)
            assert c.tobytes() == old_c.tobytes() and jt(v).tobytes() == old_jt.tobytes()

    def test_clustering_matches_the_two_callbacks(self):
        rng = np.random.default_rng(9)
        n, r = 7, 3
        cons = gen_clustering(rng.standard_normal((n, 2)), r=r, s=5.0).to_problem().constraints
        for _ in range(5):
            x, v = np.abs(rng.standard_normal(n * r)), rng.standard_normal(n)
            X = x.reshape(n, r)
            old_c = X @ X.sum(axis=0) - 1.0
            old_jt = (np.outer(v, X.sum(axis=0)) + (X.T @ v)[None, :]).ravel()
            assert cons.evaluate(x).tobytes() == old_c.tobytes()
            assert cons.jacobian_transpose_apply(x, v).tobytes() == old_jt.tobytes()
            c, jt = cons._linearize(x)
            assert c.tobytes() == old_c.tobytes() and jt(v).tobytes() == old_jt.tobytes()

    @pytest.mark.parametrize("n, r", [(7, 3), (30, 3), (12, 1), (5, 8)])
    def test_clustering_oracles_match_the_d_formulas_bitwise(self, n, r):
        # The gradient and the value read the 2 D formed in to_problem.
        rng = np.random.default_rng(n * r)
        inst = gen_clustering(rng.standard_normal((n, 2)), r=r, s=5.0)
        smooth = inst.to_problem().smooth
        for scale in (1.0, 1e-3, 1e3):
            x = scale * rng.standard_normal(n * r)
            X = x.reshape(n, r)
            old = (2.0 * (inst.D @ X)).ravel()
            assert smooth._gradient_fn(x).tobytes() == old.tobytes()
            assert smooth.gradient(x).tobytes() == old.tobytes()
            assert smooth.value(x) == float(np.sum(inst.D * (X @ X.T)))
