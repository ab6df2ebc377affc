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
    _nonneg_ball_distance,
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


def reference_nonneg_ball_distance(x, v, radius):
    """The orthant-ball distance kernel before its off-sphere branch
    skipped the lam * x term, verbatim but for the module's constants
    written out and lam returned too: the bitwise reference."""
    rtol, atol = 1e-10, 1e-12
    nrm = norm(x)
    active = x <= atol
    free = ~active
    x_free, v_free = x[free], v[free]
    lam = 0.0
    if nrm >= radius * (1 - rtol):
        free_sq = float(np.sum(x_free**2))
        if free_sq > 0:
            lam = max(0.0, float(v_free @ x_free) / free_sq)
    resid_active = np.maximum(0.0, v[active])
    return math.hypot(norm(v_free - lam * x_free), norm(resid_active)), lam


class TestOrthantBallKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_previous_formula_bitwise(self, seed):
        rng = np.random.default_rng(seed + 20)
        radius = 2.0
        seen = set()
        for _ in range(60):
            n = int(rng.integers(1, 40))
            x = rng.choice([0.0, -0.0, 0.5e-12, -0.5e-12, 1e-12, 1.0], n) * rng.uniform(0.1, 2, n)
            if norm(x) == 0.0:
                x[0] = 1.0
            # On the sphere, just inside its tolerance band, or well inside.
            target = rng.choice([radius, radius * (1 - 1e-10), radius * (1 - 2e-10), 0.5 * radius])
            x *= target / norm(x)
            v = rng.standard_normal(n) * rng.choice([1.0, 0.0, -0.0], n, p=[0.6, 0.2, 0.2])
            # Half the time v points out of the ball along x, so lam > 0.
            v += rng.choice([0.0, 3.0]) * x
            expected, lam = reference_nonneg_ball_distance(x, v, radius)
            on_sphere = norm(x) >= radius * (1 - 1e-10)
            seen.add((on_sphere, lam > 0))
            v_before = v.tobytes()
            assert _nonneg_ball_distance(x, v, radius) == expected
            assert v.tobytes() == v_before
        assert seen == {(True, True), (True, False), (False, False)}

    def test_a_nan_point_gives_nan_like_the_previous_formula(self):
        v = np.array([0.5, -1.0, 2.0])
        for x in (np.array([math.nan, 0.0, 1.0]), np.array([0.0, math.nan, 0.0])):
            expected, _ = reference_nonneg_ball_distance(x, v, 2.0)
            assert math.isnan(expected)
            assert math.isnan(_nonneg_ball_distance(x, v, 2.0))


def np_all_verdicts(radius, lo_tol, hi_tol):
    """The three indicators' membership values in their ``np.all`` form:
    the reference the array-method form matches on every input."""
    atol, rtol = 1e-12, 1e-10

    def box(x):
        return 0.0 if np.all(x >= lo_tol) and np.all(x <= hi_tol) else math.inf

    def ball(x):
        ok = np.all(x >= -atol) and norm(x) <= radius * (1 + rtol) + atol
        return 0.0 if ok else math.inf

    def orthant(x):
        return 0.0 if np.all(x >= -atol) else math.inf

    return box, ball, orthant


class TestMembershipVerdicts:
    def test_each_indicator_agrees_with_the_np_all_form(self):
        rng = np.random.default_rng(11)
        radius, n = 2.0, 12
        bound = radius * (1 + 1e-10) + 1e-12
        box = BoxSet(rng.uniform(-2.0, 0.0, n), rng.uniform(0.0, 2.0, n))
        lo_tol, hi_tol = _box_bounds(box)[:2]
        ref_box, ref_ball, ref_orthant = np_all_verdicts(radius, lo_tol, hi_tol)
        h_box = box_indicator(box)
        h_ball = nonneg_ball_indicator(NonnegBallSet(radius))
        h_orthant = nonneg_indicator()
        special = [0.0, -0.0, -1e-12, np.nextafter(-1e-12, -1.0), math.nan, math.inf, -math.inf]
        points = []
        for _ in range(60):
            x = rng.uniform(-2.5, 2.5, n)
            points.append(x)
            points.append(np.abs(x) * bound / norm(x))  # on the ball's bound
            y = x.copy()
            y[rng.integers(n)] = rng.choice(special)
            points.append(y)
            points.append(np.clip(x, lo_tol, hi_tol))
            points.append(np.where(rng.random(n) < 0.5, lo_tol, hi_tol))
        points += [np.full(n, math.nan), np.zeros(n)]
        verdicts = set()
        for x in points:
            assert h_box._value_fn(x) == ref_box(x)
            assert h_ball._value_fn(x) == ref_ball(x)
            assert h_orthant._value_fn(x) == ref_orthant(x)
            verdicts.add((ref_box(x), ref_ball(x), ref_orthant(x)))
        # Each indicator both accepted and rejected some point.
        for i in range(3):
            assert {v[i] for v in verdicts} == {0.0, math.inf}

    def test_empty_vectors_lie_in_every_set(self):
        empty = np.zeros(0)
        box = BoxSet(np.array([-1.0]), np.array([1.0]))
        lo_tol, hi_tol = _box_bounds(box)[:2]
        # A one-coordinate box broadcasts against an empty slice.
        refs = np_all_verdicts(1.0, lo_tol, hi_tol)
        hs = (box_indicator(box), nonneg_ball_indicator(NonnegBallSet(1.0)), nonneg_indicator())
        for h, ref in zip(hs, refs):
            assert h._value_fn(empty) == ref(empty) == 0.0
        assert stacked(nonneg_indicator(), hs[1], 0).value(np.array([0.5])) == 0.0


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
