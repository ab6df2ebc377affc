import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from almkit.core import DimensionMismatch, norm
from helpers import fancy_index_box_distance, fancy_index_nonneg_distance
from almkit.prox import (
    _box_bounds,
    _box_distance,
    _nonneg_ball_distance,
    _nonneg_distance,
    BallSet,
    BoxSet,
    NonnegBallSet,
    ball_indicator,
    box_indicator,
    nonneg_ball_indicator,
    nonneg_indicator,
    normal_cone_distance_ball,
    normal_cone_distance_box,
    normal_cone_distance_nonneg,
    normal_cone_distance_nonneg_ball,
    project_ball,
    project_box,
    project_nonneg_ball,
    stacked,
    zero_function,
)

BOX2 = BoxSet.cube(-5.0, 5.0, 2)
BALL1 = BallSet(1.0)
NNBALL1 = NonnegBallSet(1.0)

finite_vec2 = hnp.arrays(
    np.float64, 2, elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False)
)


class TestProjectBox:
    def test_clamp_example(self):
        assert project_box(np.array([7.0, -8.0]), BOX2) == pytest.approx([5.0, -5.0])

    def test_identity_inside(self):
        x = np.array([1.0, -2.0])
        assert project_box(x, BOX2) == pytest.approx(x)

    def test_grid_distance_minimality(self):
        g = np.linspace(-5.0, 5.0, 1001)
        gx, gy = np.meshgrid(g, g)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-10, 10, size=2)
            p = project_box(x, BOX2)
            best = float(np.min(np.linalg.norm(grid - x, axis=1)))
            # No feasible grid point may beat the projection by more than
            # the grid resolution.
            assert np.linalg.norm(x - p) <= best + 1e-12
            assert best <= np.linalg.norm(x - p) + 0.01 * math.sqrt(2)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec2, finite_vec2)
    def test_idempotent_and_nonexpansive(self, x, y):
        px, py = project_box(x, BOX2), project_box(y, BOX2)
        assert project_box(px, BOX2) == pytest.approx(px, abs=0)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            BoxSet(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lower, upper", [([0.0, math.nan], [1.0, 1.0]), ([0.0], [math.nan])])
    def test_nan_bound_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="must not be NaN"):
            BoxSet(lower, upper)


class TestProjectBall:
    def test_radial_scaling(self):
        assert project_ball(np.array([3.0, 4.0]), BALL1) == pytest.approx([0.6, 0.8])

    def test_interior_identity(self):
        x = np.array([0.2, -0.3])
        assert project_ball(x, BALL1) == pytest.approx(x)

    def test_center(self):
        assert project_ball(np.zeros(2), BALL1) == pytest.approx([0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(finite_vec2, finite_vec2)
    def test_idempotent_and_nonexpansive(self, x, y):
        px, py = project_ball(x, BALL1), project_ball(y, BALL1)
        assert np.linalg.norm(project_ball(px, BALL1) - px) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


class TestProjectNonnegBall:
    def test_positive_point_scales(self):
        assert project_nonneg_ball(np.array([3.0, 4.0]), NNBALL1) == pytest.approx([0.6, 0.8])

    def test_negative_part_zeroed(self):
        assert project_nonneg_ball(np.array([-2.0, 0.5]), NNBALL1) == pytest.approx([0.0, 0.5])

    def test_matches_grid_oracle_on_random_points(self):
        g = np.linspace(0.0, 1.0, 201)
        gx, gy = np.meshgrid(g, g)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        res = g[1] - g[0]
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = project_nonneg_ball(x, NNBALL1)
            assert np.all(p >= 0) and np.linalg.norm(p) <= 1.0 + 1e-12
            best = float(np.min(np.linalg.norm(grid - x, axis=1)))
            assert np.linalg.norm(x - p) <= best + 1e-12
            assert best <= np.linalg.norm(x - p) + res * math.sqrt(2)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec2, finite_vec2)
    def test_idempotent_and_nonexpansive(self, x, y):
        px = project_nonneg_ball(x, NNBALL1)
        py = project_nonneg_ball(y, NNBALL1)
        assert np.linalg.norm(project_nonneg_ball(px, NNBALL1) - px) <= 1e-12
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def box_cone_membership(x, v, box):
    """Analytic membership of v in the box normal cone at x."""
    for xi, vi, lo, hi in zip(x, v, box.lower, box.upper):
        if lo < xi < hi and vi != 0.0:
            return False
        if xi <= lo and xi < hi and vi > 0.0:
            return False
        if xi >= hi and xi > lo and vi < 0.0:
            return False
    return True


class TestNormalConeBox:
    def test_upper_bound_example(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        d = normal_cone_distance_box(np.array([1.0, 0.0]), np.array([2.0, -3.0]), box)
        assert d == pytest.approx(3.0)

    def test_interior_gives_norm(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        v = np.array([0.3, -0.4])
        assert normal_cone_distance_box(np.zeros(2), v, box) == pytest.approx(0.5)

    def test_mixed_corner_example(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        d = normal_cone_distance_box(np.array([-1.0, 1.0]), np.array([3.0, -2.0]), box)
        assert d == pytest.approx(math.sqrt(13.0))

    def test_outside_box_rejected(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        with pytest.raises(ValueError):
            normal_cone_distance_box(np.array([2.0, 0.0]), np.zeros(2), box)

    def test_zero_iff_membership(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        rng = np.random.default_rng(2)
        points = [np.array([1.0, 1.0]), np.array([-1.0, 0.3]), np.array([0.1, -0.2])]
        for x in points:
            for _ in range(40):
                v = rng.standard_normal(2) * rng.choice([0.0, 1.0], size=2)
                d = normal_cone_distance_box(x, v, box)
                assert (d <= 1e-12) == box_cone_membership(x, v, box)

    def test_matches_discretized_cone_search(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        # Corner (1, -1): cone is {a >= 0} x {b <= 0}.
        a = np.linspace(0.0, 8.0, 401)
        b = -a
        ca, cb = np.meshgrid(a, b)
        cone = np.column_stack([ca.ravel(), cb.ravel()])
        rng = np.random.default_rng(3)
        x = np.array([1.0, -1.0])
        for _ in range(20):
            v = rng.uniform(-4, 4, size=2)
            d = normal_cone_distance_box(x, v, box)
            sampled = float(np.min(np.linalg.norm(cone - v, axis=1)))
            assert d <= sampled + 1e-12
            assert sampled <= d + 0.05


def kernel_box_and_points(seed, n=40, count=30):
    """A box with pinned coordinates and signed-zero bounds, and points within
    its tolerance (interior, on a bound, just outside, signed zeros) paired
    with vectors v holding both signs and signed zeros."""
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-3.0, 0.0, n)
    upper = lower + rng.uniform(0.1, 3.0, n)
    upper[:8] = lower[:8]  # pinned
    lower[8:12], upper[8:12] = 0.0, rng.uniform(0.1, 3.0, 4)
    upper[12:16] = -0.0
    upper[16:18] = lower[16:18] = 0.0  # pinned at zero
    box = BoxSet(lower, upper)
    slack = 0.4e-12 * np.maximum(1.0, np.maximum(np.abs(lower), np.abs(upper)))
    for _ in range(count):
        kind = rng.integers(0, 6, n)
        x = np.choose(
            kind,
            [rng.uniform(lower, upper), lower, upper, lower - slack, upper + slack,
             np.where((lower <= 0.0) & (upper >= 0.0), rng.choice([0.0, -0.0], n), lower)],
        )
        v = rng.standard_normal(n) * rng.choice([1.0, 0.0, -0.0], n, p=[0.6, 0.2, 0.2])
        yield box, x, v


class TestMaskedKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_fancy_index_formula_bitwise(self, seed):
        for box, x, v in kernel_box_and_points(seed):
            h = box_indicator(box)
            v_before = v.tobytes()
            expected = fancy_index_box_distance(x, v, box)
            assert normal_cone_distance_box(x, v, box) == expected
            assert h.subdiff_distance(x, v) == expected
            assert h._subdiff(x, v) == expected
            assert v.tobytes() == v_before
            assert h.prox(v, 1.0).tobytes() == np.clip(v, box.lower, box.upper).tobytes()
            assert h.prox(x, 1.0).tobytes() == np.clip(x, box.lower, box.upper).tobytes()

    @pytest.mark.parametrize("where", [0, 20, 39])
    def test_nan_point_is_outside(self, where):
        box, x, v = next(kernel_box_and_points(0))
        x[where] = np.nan
        with pytest.raises(ValueError, match="outside"):
            box_indicator(box)._subdiff(x, v)

    def test_orthant_matches_the_fancy_index_formula_bitwise(self):
        rng = np.random.default_rng(4)
        h = nonneg_indicator()
        for _ in range(30):
            x = rng.choice([0.0, -0.0, 0.5e-12, -0.5e-12, 1e-12, 1.0], 50) * rng.uniform(1, 2, 50)
            v = rng.standard_normal(50) * rng.choice([1.0, 0.0, -0.0], 50, p=[0.6, 0.2, 0.2])
            v_before = v.tobytes()
            expected = fancy_index_nonneg_distance(x, v)
            assert normal_cone_distance_nonneg(x, v) == expected
            assert h.subdiff_distance(x, v) == expected
            assert h._subdiff(x, v) == expected
            assert v.tobytes() == v_before


def accepts(distance, *args) -> bool:
    try:
        distance(*args)
    except ValueError as err:
        assert "outside" in str(err)
        return False
    return True


def membership_variants(x, lo, hi, rng):
    """x itself, and copies with one coordinate just below ``lo``, just above
    ``hi``, exactly at either, or NaN."""
    yield x
    for make in (
        lambda i: np.nextafter(lo[i], -np.inf),
        lambda i: np.nextafter(hi[i], np.inf),
        lambda i: lo[i],
        lambda i: hi[i],
        lambda i: np.nan,
    ):
        out = x.copy()
        i = int(rng.integers(x.size))
        out[i] = make(i)
        yield out


class TestMembershipCount:
    # The kernels count the coordinates that pass instead of reducing with
    # .all(); they must accept exactly the points the reductions accepted.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_box_matches_the_all_reductions(self, seed):
        rng = np.random.default_rng(seed + 10)
        for box, x0, v in kernel_box_and_points(seed):
            bounds = _box_bounds(box)
            lo_tol, hi_tol = bounds[:2]
            for x in membership_variants(x0, lo_tol, hi_tol, rng):
                old = bool((x >= lo_tol).all() and (x <= hi_tol).all())
                assert accepts(_box_distance, x, v, *bounds) == old

    def test_orthant_and_orthant_ball_match_the_all_reductions(self):
        rng = np.random.default_rng(5)
        atol, radius = 1e-12, 2.0
        lo, hi = np.full(30, -atol), np.full(30, np.inf)
        seen = set()
        for _ in range(40):
            x0 = rng.choice([0.0, -0.0, -0.5e-12, -2e-12, 0.1, 0.3], 30)
            v = rng.standard_normal(30)
            for x in membership_variants(x0, lo, hi, rng):
                old = bool((x >= -atol).all())
                assert accepts(_nonneg_distance, x, v) == old
                inside = norm(x) <= radius * (1 + 1e-10) + atol
                assert accepts(_nonneg_ball_distance, x, v, radius) == (inside and old)
                seen.add(old)
        assert seen == {True, False}


class TestNormalConeBall:
    def test_ray_projection(self):
        d = normal_cone_distance_ball(np.array([1.0, 0.0]), np.array([2.0, 1.0]), BALL1)
        assert d == pytest.approx(1.0)

    def test_obtuse_case(self):
        d = normal_cone_distance_ball(np.array([1.0, 0.0]), np.array([-1.0, 1.0]), BALL1)
        assert d == pytest.approx(math.sqrt(2.0))

    def test_interior_gives_norm(self):
        d = normal_cone_distance_ball(np.array([0.1, 0.1]), np.array([1.0, 1.0]), BALL1)
        assert d == pytest.approx(math.sqrt(2.0))

    def test_matches_discretized_ray_search(self):
        x = np.array([0.6, 0.8])
        lams = np.linspace(0.0, 10.0, 2001)
        ray = lams[:, None] * x[None, :]
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = rng.uniform(-3, 3, size=2)
            d = normal_cone_distance_ball(x, v, BALL1)
            sampled = float(np.min(np.linalg.norm(ray - v, axis=1)))
            assert d <= sampled + 1e-12
            assert sampled <= d + 0.01


class TestNormalConeNonnegBall:
    def test_interior_gives_norm(self):
        x = np.array([0.2, 0.3])
        v = np.array([1.0, -2.0])
        d = normal_cone_distance_nonneg_ball(x, v, NNBALL1)
        assert d == pytest.approx(np.linalg.norm(v))

    def test_matches_discretized_cone_on_sphere_with_active_coordinate(self):
        # x = (1, 0): cone = {lam (1,0) + (0, u), lam >= 0, u <= 0}.
        x = np.array([1.0, 0.0])
        lam = np.linspace(0.0, 8.0, 201)
        u = np.linspace(-8.0, 0.0, 201)
        cl, cu = np.meshgrid(lam, u)
        cone = np.column_stack([cl.ravel(), cu.ravel()])
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.uniform(-4, 4, size=2)
            d = normal_cone_distance_nonneg_ball(x, v, NNBALL1)
            sampled = float(np.min(np.linalg.norm(cone - v, axis=1)))
            assert d <= sampled + 1e-12
            assert sampled <= d + 0.06

    def test_orthant_distance(self):
        d = normal_cone_distance_nonneg(np.array([0.0, 1.0]), np.array([2.0, -3.0]))
        assert d == pytest.approx(math.sqrt(4.0 + 9.0))


class TestProxFunctions:
    def test_zero_function(self):
        h = zero_function()
        v = np.array([1.0, -2.0])
        assert h.prox(v, 0.5) == pytest.approx(v)
        assert h.value(v) == 0.0
        assert h.subdiff_distance(v, np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_indicator_values(self):
        h = box_indicator(BOX2)
        assert h.value(np.array([0.0, 0.0])) == 0.0
        assert math.isinf(h.value(np.array([9.0, 0.0])))
        assert h.diameter == pytest.approx(10.0 * math.sqrt(2))
        hb = ball_indicator(BALL1)
        assert hb.value(np.array([2.0, 0.0])) == math.inf
        hn = nonneg_ball_indicator(NNBALL1)
        assert hn.value(np.array([0.5, 0.5])) == 0.0

    def test_stacked_combines_blocks(self):
        h = stacked(box_indicator(BOX2), nonneg_indicator(), 2)
        v = np.array([7.0, -8.0, -1.0, 2.0])
        assert h.prox(v, 1.0) == pytest.approx([5.0, -5.0, 0.0, 2.0])
        assert h.value(np.array([0.0, 0.0, 1.0, 0.0])) == 0.0
        assert math.isinf(h.value(np.array([0.0, 0.0, -1.0, 0.0])))
        d = h.subdiff_distance(np.array([0.0, 0.0, 0.0, 1.0]), np.array([3.0, 4.0, -1.0, 2.0]))
        assert d == pytest.approx(math.hypot(5.0, 2.0))
        assert math.isinf(h.diameter)

    @pytest.mark.parametrize(
        "h, project, distance",
        [
            (box_indicator(BOX2), lambda v: project_box(v, BOX2),
             lambda x, v: normal_cone_distance_box(x, v, BOX2)),
            (nonneg_ball_indicator(NNBALL1), lambda v: project_nonneg_ball(v, NNBALL1),
             lambda x, v: normal_cone_distance_nonneg_ball(x, v, NNBALL1)),
        ],
    )
    def test_indicator_kernels_match_public_functions(self, h, project, distance):
        rng = np.random.default_rng(3)
        for scale in (0.5, 3.0, 10.0):
            for _ in range(20):
                v = scale * rng.standard_normal(2)
                x = project(scale * rng.standard_normal(2))
                assert np.array_equal(h.prox(v, 1.0), project(v))
                assert h.subdiff_distance(x, v) == distance(x, v)

    @pytest.mark.parametrize(
        "h", [box_indicator(BOX2), nonneg_ball_indicator(NNBALL1), nonneg_indicator()]
    )
    def test_indicator_distance_rejects_nan_and_mismatched_input(self, h):
        # The solver calls the output-checked private method on iterates it
        # computed itself; the membership check still rejects a NaN point.
        with pytest.raises(ValueError, match="outside"):
            h._subdiff(np.array([np.nan, 0.0]), np.zeros(2))
        with pytest.raises(DimensionMismatch):
            h.subdiff_distance(np.zeros(2), np.zeros(3))
