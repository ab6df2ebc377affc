import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from almkit.core import DimensionMismatch, NonFiniteValue, norm
from helpers import fancy_index_box_distance, fancy_index_nonneg_distance
from almkit.prox import (
    _box_bounds,
    BoxSet,
    NonnegBallSet,
    box_indicator,
    nonneg_ball_indicator,
    nonneg_indicator,
    stacked,
    zero_function,
)

BOX2 = BoxSet.cube(-5.0, 5.0, 2)
NNBALL1 = NonnegBallSet(1.0)
H_BOX2 = box_indicator(BOX2)
H_NNBALL1 = nonneg_ball_indicator(NNBALL1)

finite_vec2 = hnp.arrays(
    np.float64, 2, elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False)
)


class TestProjectBox:
    def test_clamp_example(self):
        assert H_BOX2.prox(np.array([7.0, -8.0]), 1.0) == pytest.approx([5.0, -5.0])

    def test_identity_inside(self):
        x = np.array([1.0, -2.0])
        assert H_BOX2.prox(x, 1.0) == pytest.approx(x)

    def test_grid_distance_minimality(self):
        g = np.linspace(-5.0, 5.0, 1001)
        gx, gy = np.meshgrid(g, g)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-10, 10, size=2)
            p = H_BOX2.prox(x, 1.0)
            best = float(np.min(np.linalg.norm(grid - x, axis=1)))
            # No feasible grid point may beat the projection by more than
            # the grid resolution.
            assert np.linalg.norm(x - p) <= best + 1e-12
            assert best <= np.linalg.norm(x - p) + 0.01 * math.sqrt(2)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec2, finite_vec2)
    def test_idempotent_and_nonexpansive(self, x, y):
        px, py = H_BOX2.prox(x, 1.0), H_BOX2.prox(y, 1.0)
        assert H_BOX2.prox(px, 1.0) == pytest.approx(px, abs=0)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            BoxSet(np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lower, upper", [([0.0, math.nan], [1.0, 1.0]), ([0.0], [math.nan])])
    def test_nan_bound_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="must not be NaN"):
            BoxSet(lower, upper)


class TestProjectNonnegBall:
    def test_positive_point_scales(self):
        assert H_NNBALL1.prox(np.array([3.0, 4.0]), 1.0) == pytest.approx([0.6, 0.8])

    def test_negative_part_zeroed(self):
        assert H_NNBALL1.prox(np.array([-2.0, 0.5]), 1.0) == pytest.approx([0.0, 0.5])

    def test_matches_grid_oracle_on_random_points(self):
        g = np.linspace(0.0, 1.0, 201)
        gx, gy = np.meshgrid(g, g)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        grid = grid[np.linalg.norm(grid, axis=1) <= 1.0]
        res = g[1] - g[0]
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            p = H_NNBALL1.prox(x, 1.0)
            assert np.all(p >= 0) and np.linalg.norm(p) <= 1.0 + 1e-12
            best = float(np.min(np.linalg.norm(grid - x, axis=1)))
            assert np.linalg.norm(x - p) <= best + 1e-12
            assert best <= np.linalg.norm(x - p) + res * math.sqrt(2)

    @settings(max_examples=100, deadline=None)
    @given(finite_vec2, finite_vec2)
    def test_idempotent_and_nonexpansive(self, x, y):
        px = H_NNBALL1.prox(x, 1.0)
        py = H_NNBALL1.prox(y, 1.0)
        assert np.linalg.norm(H_NNBALL1.prox(px, 1.0) - px) <= 1e-12
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
        d = box_indicator(box).subdiff_distance(np.array([1.0, 0.0]), np.array([2.0, -3.0]))
        assert d == pytest.approx(3.0)

    def test_interior_gives_norm(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        v = np.array([0.3, -0.4])
        assert box_indicator(box).subdiff_distance(np.zeros(2), v) == pytest.approx(0.5)

    def test_mixed_corner_example(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        d = box_indicator(box).subdiff_distance(np.array([-1.0, 1.0]), np.array([3.0, -2.0]))
        assert d == pytest.approx(math.sqrt(13.0))

    def test_outside_box_rejected(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        with pytest.raises(ValueError):
            box_indicator(box).subdiff_distance(np.array([2.0, 0.0]), np.zeros(2))

    def test_zero_iff_membership(self):
        box = BoxSet.cube(-1.0, 1.0, 2)
        rng = np.random.default_rng(2)
        points = [np.array([1.0, 1.0]), np.array([-1.0, 0.3]), np.array([0.1, -0.2])]
        for x in points:
            for _ in range(40):
                v = rng.standard_normal(2) * rng.choice([0.0, 1.0], size=2)
                d = box_indicator(box).subdiff_distance(x, v)
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
            d = box_indicator(box).subdiff_distance(x, v)
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
            assert h.subdiff_distance(x, v) == expected
            assert h._subdiff(x, v) == expected
            assert v.tobytes() == v_before
            assert h.prox(v, 1.0).tobytes() == np.clip(v, box.lower, box.upper).tobytes()
            assert h.prox(x, 1.0).tobytes() == np.clip(x, box.lower, box.upper).tobytes()

    def test_orthant_matches_the_fancy_index_formula_bitwise(self):
        rng = np.random.default_rng(4)
        h = nonneg_indicator()
        for _ in range(30):
            x = rng.choice([0.0, -0.0, 0.5e-12, -0.5e-12, 1e-12, 1.0], 50) * rng.uniform(1, 2, 50)
            v = rng.standard_normal(50) * rng.choice([1.0, 0.0, -0.0], 50, p=[0.6, 0.2, 0.2])
            v_before = v.tobytes()
            expected = fancy_index_nonneg_distance(x, v)
            assert h.subdiff_distance(x, v) == expected
            assert h._subdiff(x, v) == expected
            assert v.tobytes() == v_before


def accepts(h, x, v) -> bool:
    """Whether h's public ``subdiff_distance`` accepts the point x; a
    rejected point must fail as non-finite or as outside the domain."""
    try:
        h.subdiff_distance(x, v)
    except NonFiniteValue:
        assert not np.isfinite(x).all()
        return False
    except ValueError as err:
        assert "outside the domain" in str(err)
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
    # The distance kernels test no membership; the public subdiff_distance
    # checks it once, and must accept exactly the points that the kernels'
    # old .all() reductions accepted.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_box_matches_the_all_reductions(self, seed):
        rng = np.random.default_rng(seed + 10)
        for box, x0, v in kernel_box_and_points(seed):
            h = box_indicator(box)
            lo_tol, hi_tol = _box_bounds(box)[:2]
            for x in membership_variants(x0, lo_tol, hi_tol, rng):
                old = bool((x >= lo_tol).all() and (x <= hi_tol).all())
                assert accepts(h, x, v) == old

    def test_orthant_and_orthant_ball_match_the_all_reductions(self):
        rng = np.random.default_rng(5)
        atol, radius = 1e-12, 2.0
        bound = radius * (1 + 1e-10) + atol
        orthant, ball = nonneg_indicator(), nonneg_ball_indicator(NonnegBallSet(radius))
        lo, hi = np.full(30, -atol), np.full(30, bound)
        seen = set()
        for _ in range(40):
            x0 = rng.choice([0.0, -0.0, -0.5e-12, -2e-12, 0.1, 0.3], 30,
                            p=[0.2, 0.2, 0.2, 0.01, 0.2, 0.19])
            # Half the points are scaled onto the sphere of radius ``bound``.
            x0 *= rng.choice([1.0, bound / max(norm(x0), 1.0)])
            v = rng.standard_normal(30)
            for x in membership_variants(x0, lo, hi, rng):
                old = bool((x >= -atol).all())
                assert accepts(orthant, x, v) == old
                inside = bool(norm(x) <= bound)
                assert accepts(ball, x, v) == (inside and old)
                seen.add((old, inside))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    def test_orthant_ball_value_accepts_what_its_kernel_accepted(self):
        # Norms in (r (1 + rtol), r (1 + rtol) + atol] lie in the set.
        radius, rtol, atol = 2.0, 1e-10, 1e-12
        h = nonneg_ball_indicator(NonnegBallSet(radius))
        u = np.array([0.6, 0.8])
        for t, inside in [(radius * (1 + rtol) + 0.5 * atol, True),
                          (radius * (1 + rtol) + 2.0 * atol, False)]:
            x = t * u
            assert norm(x) > radius * (1 + rtol)
            assert (norm(x) <= radius * (1 + rtol) + atol) == inside
            assert (h.value(x) == 0.0) == inside
            assert accepts(h, x, np.ones(2)) == inside


class TestNormalConeNonnegBall:
    def test_interior_gives_norm(self):
        x = np.array([0.2, 0.3])
        v = np.array([1.0, -2.0])
        d = H_NNBALL1.subdiff_distance(x, v)
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
            d = H_NNBALL1.subdiff_distance(x, v)
            sampled = float(np.min(np.linalg.norm(cone - v, axis=1)))
            assert d <= sampled + 1e-12
            assert sampled <= d + 0.06

    def test_orthant_distance(self):
        d = nonneg_indicator().subdiff_distance(np.array([0.0, 1.0]), np.array([2.0, -3.0]))
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
        "h", [box_indicator(BOX2), nonneg_ball_indicator(NNBALL1), nonneg_indicator()]
    )
    def test_indicator_distance_rejects_nan_and_mismatched_input(self, h):
        with pytest.raises(DimensionMismatch):
            h.subdiff_distance(np.zeros(2), np.zeros(3))
