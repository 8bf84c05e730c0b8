import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reachtune.intervals import IntervalMatrix
from reachtune.sampling import batch_contains
from reachtune.zonotope import (Zonotope, enclosure_radius, hull_of,
                                interval_hull, interval_map, linear_map,
                                minkowski_sum, reduce_order, support)

from strategies import accumulated_sets


def random_zonotope(rng, n, gens, scale=1.0, contains_origin=False):
    g = rng.uniform(-scale, scale, size=(n, gens))
    if contains_origin:
        beta = rng.uniform(-0.9, 0.9, size=gens)
        center = -g @ beta
    else:
        center = rng.uniform(-scale, scale, size=n)
    return Zonotope(center, g)


def unit_directions(n, count=360):
    rng = np.random.default_rng(123)
    if n == 2:
        angles = np.linspace(0, 2 * math.pi, count, endpoint=False)
        return np.column_stack((np.cos(angles), np.sin(angles)))
    d = rng.normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def directional_hausdorff(larger, smaller, dirs):
    # for nested convex sets: sup over directions of the support gap
    return max(support(larger, d) - support(smaller, d) for d in dirs)


def test_zonotope_drops_zero_generators():
    z = Zonotope([0.0, 0.0], np.array([[1.0, 0.0, 0.5], [0.0, 0.0, 0.5]]))
    assert z.num_generators == 2
    assert z.order == 1.0
    assert Zonotope.point([1.0, 2.0]).num_generators == 0


def test_zonotope_validation():
    with pytest.raises(ValueError):
        Zonotope([0.0], np.ones((2, 1)))
    with pytest.raises(ValueError):
        Zonotope([np.inf], np.ones((1, 1)))


def test_zonotope_rejects_non_finite_generators():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Zonotope([0.0, 0.0], [[1.0, bad], [0.0, 1.0]])
        with pytest.raises(ValueError):
            Zonotope.box([0.0, 0.0], [1.0, bad])
    with pytest.raises(ValueError):
        Zonotope.box([0.0, 0.0], [1.0, -1.0])
    # a point matrix from the caller is checked before it maps a set
    with pytest.raises(ValueError):
        linear_map([[1.0, np.nan], [0.0, 1.0]], Zonotope([0.0, 0.0], np.eye(2)))


def test_set_operations_drop_the_zero_columns_they_create():
    z = Zonotope([1.0, 2.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # a singular map sends the second generator to zero
    assert linear_map(np.diag([1.0, 0.0]), z).num_generators == 2
    # interval_map's box has a zero halfwidth in the row without radius
    m = IntervalMatrix(np.eye(2) - [[0.1, 0.0], [0.0, 0.0]], np.eye(2))
    mapped = interval_map(m, z)
    assert mapped.num_generators == 4
    assert np.count_nonzero(mapped.generators[:, -1]) == 1
    # the hull of a set with itself: differences and the center gap vanish
    assert hull_of(z, linear_map(np.eye(2), z)).num_generators == 3
    # reduce_order's box of axis-aligned generators along one axis
    reduced, err = reduce_order(Zonotope([0.0, 0.0], [[1.0, 2.0, 0.5, 1.0],
                                                      [0.0, 0.0, 0.0, 1.0]]), 1.5)
    assert reduced.num_generators == 2 and err == 0.0
    for out in (mapped, reduced, minkowski_sum(z, reduced)):
        assert np.all(np.any(out.generators != 0.0, axis=0))
        assert out.generators.flags["C_CONTIGUOUS"]


def test_minkowski_sum_identity_point():
    z = Zonotope([1.0, -1.0], np.array([[1.0, 0.0], [0.5, 2.0]]))
    total = minkowski_sum(z, Zonotope.point([0.0, 0.0]))
    np.testing.assert_array_equal(total.center, z.center)
    np.testing.assert_array_equal(total.generators, z.generators)


def test_minkowski_sum_unit_boxes():
    box = Zonotope([0.0, 0.0], np.eye(2))
    total = minkowski_sum(box, box)
    hull = interval_hull(total)
    np.testing.assert_array_equal(hull.lo, [-2.0, -2.0])
    np.testing.assert_array_equal(hull.hi, [2.0, 2.0])


def test_minkowski_sum_concatenates():
    z1 = Zonotope([1.0, 1.0], np.eye(2))
    z2 = Zonotope([-1.0, 0.0], np.array([[0.5], [0.0]]))
    total = minkowski_sum(z1, z2)
    np.testing.assert_array_equal(total.center, [0.0, 1.0])
    assert total.num_generators == 3
    with pytest.raises(ValueError):
        minkowski_sum(z1, Zonotope.point([0.0]))


def test_support_additive_under_minkowski_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z1 = random_zonotope(rng, 3, 4)
        z2 = random_zonotope(rng, 3, 2)
        d = rng.normal(size=3)
        total = support(minkowski_sum(z1, z2), d)
        assert total == pytest.approx(support(z1, d) + support(z2, d), rel=1e-12)


def test_linear_map_identity_zero_diag():
    z = Zonotope([1.0, 1.0], np.eye(2))
    same = linear_map(np.eye(2), z)
    np.testing.assert_array_equal(interval_hull(same).lo, interval_hull(z).lo)
    zero = linear_map(np.zeros((2, 2)), z)
    assert zero.num_generators == 0
    np.testing.assert_array_equal(zero.center, [0.0, 0.0])
    scaled = linear_map(np.diag([2.0, 3.0]), z)
    np.testing.assert_array_equal(scaled.center, [2.0, 3.0])
    np.testing.assert_array_equal(scaled.generators, np.diag([2.0, 3.0]))


def test_interval_map_point_interval_is_linear_map():
    z = Zonotope([1.0, 2.0], np.array([[1.0, 0.0], [0.0, 0.5]]))
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    mapped = interval_map(IntervalMatrix.from_point(m), z)
    expected = linear_map(m, z)
    np.testing.assert_array_equal(mapped.center, expected.center)
    np.testing.assert_array_equal(mapped.generators, expected.generators)


def test_interval_map_symmetric_on_point():
    halfwidth = np.array([[0.1, 0.2], [0.0, 0.3]])
    m = IntervalMatrix.symmetric(halfwidth)
    p = np.array([2.0, -1.0])
    mapped = interval_map(m, Zonotope.point(p))
    hull = interval_hull(mapped)
    expected = halfwidth @ np.abs(p)
    np.testing.assert_allclose(hull.lo, -expected)
    np.testing.assert_allclose(hull.hi, expected)


def test_interval_map_1d_endpoint_oracle():
    m = IntervalMatrix(np.array([[1.0]]), np.array([[2.0]]))
    z = Zonotope([0.0], np.array([[1.0]]))
    mapped = interval_map(m, z)
    hull = interval_hull(mapped)
    # oracle: sup/inf over X in {1, 2} applied to [-1, 1]
    assert hull.lo[0] == pytest.approx(-2.0)
    assert hull.hi[0] == pytest.approx(2.0)


def test_interval_map_encloses_sampled_products():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lo = rng.uniform(-1, 0.5, size=(n, n))
        m = IntervalMatrix(lo, lo + rng.uniform(0, 1, size=(n, n)))
        z = random_zonotope(rng, n, int(rng.integers(0, 4)))
        mapped = interval_map(m, z)
        for _ in range(10):
            w = rng.integers(0, 2, size=(n, n))
            x = np.where(w, m.hi, m.lo)
            beta = rng.uniform(-1, 1, size=z.num_generators)
            point = x @ (z.center + z.generators @ beta)
            assert batch_contains(mapped, point, 1e-9)[0]


def test_hull_step_identity_returns_same_set():
    z = Zonotope([1.0, -2.0], np.array([[0.5, 0.0], [0.0, 0.25]]))
    hull = hull_of(z, linear_map(np.eye(2), z))
    np.testing.assert_array_equal(hull.center, z.center)
    np.testing.assert_array_equal(hull.generators, z.generators)


def test_hull_step_of_point_is_segment():
    p = np.array([1.0, 0.0])
    w = np.array([[0.0, -1.0], [1.0, 0.0]])
    z = Zonotope.point(p)
    seg = hull_of(z, linear_map(w, z))
    np.testing.assert_allclose(seg.center, 0.5 * (p + w @ p))
    assert seg.num_generators == 1
    np.testing.assert_allclose(seg.generators[:, 0], 0.5 * (p - w @ p))


def test_hull_step_1d_is_exact_interval_hull():
    z = Zonotope([1.0], np.array([[0.1]]))
    hull = hull_of(z, linear_map(np.array([[2.0]]), z))
    box = interval_hull(hull)
    # hull of [0.9, 1.1] and [1.8, 2.2]
    assert box.lo[0] == pytest.approx(0.9)
    assert box.hi[0] == pytest.approx(2.2)


def test_hull_step_contains_endpoints_randomized():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        z = random_zonotope(rng, n, int(rng.integers(1, 4)))
        w = rng.uniform(-1.5, 1.5, size=(n, n))
        hull = hull_of(z, linear_map(w, z))
        beta = rng.uniform(-1, 1, size=z.num_generators)
        x = z.center + z.generators @ beta
        assert batch_contains(hull, [x, w @ x], 1e-9).all()


def test_interval_hull_examples():
    p = Zonotope.point([3.0, -1.0])
    hull = interval_hull(p)
    np.testing.assert_array_equal(hull.lo, [3.0, -1.0])
    np.testing.assert_array_equal(hull.hi, [3.0, -1.0])

    z = Zonotope([0.0, 0.0], np.array([[1.0, 1.0], [1.0, -1.0]]))
    hull = interval_hull(z)
    np.testing.assert_array_equal(hull.lo, [-2.0, -2.0])
    np.testing.assert_array_equal(hull.hi, [2.0, 2.0])

    z = Zonotope([5.0], np.array([[0.25]]))
    hull = interval_hull(z)
    assert hull.lo[0] == 4.75 and hull.hi[0] == 5.25


def test_interval_hull_invariant_under_identity_map():
    rng = np.random.default_rng(12)
    z = random_zonotope(rng, 3, 5)
    h1 = interval_hull(z)
    h2 = interval_hull(linear_map(np.eye(3), z))
    np.testing.assert_array_equal(h1.lo, h2.lo)
    np.testing.assert_array_equal(h1.hi, h2.hi)


def test_enclosure_radius_examples():
    assert enclosure_radius(Zonotope.point([0.0, 0.0])) == 0.0
    box = Zonotope([0.0, 0.0], np.eye(2))
    assert enclosure_radius(box) == pytest.approx(math.sqrt(2.0))
    degenerate = Zonotope([0.0, 0.0, 0.0],
                          np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert enclosure_radius(degenerate) == pytest.approx(math.sqrt(2.0))


def test_support_examples():
    z = Zonotope([5.0], np.array([[0.25]]))
    assert support(z, [1.0]) == pytest.approx(5.25)
    assert support(z, [0.0]) == 0.0
    box = Zonotope([0.0, 0.0], np.eye(2))
    assert support(box, [1.0, 1.0]) == pytest.approx(2.0)


def test_reduce_noop_at_target_order():
    z = Zonotope([0.0, 0.0], np.eye(2))
    reduced, err = reduce_order(z, 1.0)
    assert reduced is z
    assert err == 0.0
    with pytest.raises(ValueError):
        reduce_order(z, 0.5)


def test_reduce_three_generators_to_box():
    z = Zonotope([0.0, 0.0],
                 np.array([[1.0, 0.0, 0.1], [0.0, 1.0, 0.1]]))
    reduced, err = reduce_order(z, 1.0)
    assert reduced.num_generators == 2
    hull = interval_hull(reduced)
    np.testing.assert_allclose(hull.lo, [-1.1, -1.1])
    np.testing.assert_allclose(hull.hi, [1.1, 1.1])
    # certified error cannot exceed the radius of the removed part's box
    assert err <= enclosure_radius(Zonotope([0.0, 0.0], z.generators)) + 1e-12


def test_reduce_returns_superset():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(2, 4))
        z = random_zonotope(rng, n, int(rng.integers(n + 1, 9)))
        reduced, _ = reduce_order(z, 1.0)
        betas = rng.uniform(-1, 1, size=(100, z.num_generators))
        pts = z.center[None, :] + betas @ z.generators.T
        assert batch_contains(reduced, pts, 1e-9).all()


def test_reduce_certified_error_brute_force():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        z = random_zonotope(rng, n, int(rng.integers(n + 1, 10)))
        target = 1.0 + float(rng.integers(0, 2))
        reduced, err = reduce_order(z, target)
        dirs = unit_directions(n)
        gap = directional_hausdorff(reduced, z, dirs)
        assert gap <= err + 1e-9


def test_reduce_merges_every_axis_column_once_it_cuts():
    # four axis-aligned columns, of which a cap of four needs only three gone
    z = Zonotope([0.0, 0.0], [[1.0, 0.0, 2.0, 0.0, 1.0],
                              [0.0, 1.0, 0.0, 2.0, 1.0]])
    reduced, err = reduce_order(z, 2.0)
    np.testing.assert_array_equal(reduced.generators,
                                  [[1.0, 3.0, 0.0], [1.0, 0.0, 3.0]])
    assert err == 0.0


@settings(max_examples=300, deadline=None)
@given(z=accumulated_sets(), rho=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_reduce_caps_the_order_within_its_certified_error(z, rho, seed):
    reduced, err = reduce_order(z, rho)
    n = z.dim
    assert reduced.num_generators <= math.floor(n * rho)
    if reduced is not z:
        # the box's columns, one per axis, come last; no other is axis-aligned
        axis = np.count_nonzero(reduced.generators, axis=0) == 1
        box = int(axis.sum())
        assert axis[reduced.num_generators - box:].all()
        assert len(set(np.flatnonzero(reduced.generators[:, axis].T)
                       % n)) == box
    dirs = np.random.default_rng(seed).normal(size=(8, n))
    dirs = np.vstack((dirs / np.linalg.norm(dirs, axis=1)[:, None],
                      np.eye(n), -np.eye(n)))
    tol = 1e-12 * (1.0 + np.abs(z.center).sum() + np.abs(z.generators).sum())
    for d in dirs:
        gap = support(reduced, d) - support(z, d)
        assert -tol <= gap <= err + tol


def test_enclosure_radius_bounds_hausdorff_brute_force():
    # err(S_plus) over-approximates d_H(S, S + S_plus) when 0 is in S_plus
    rng = np.random.default_rng(29)
    for trial in range(30):
        n = int(rng.integers(2, 4))
        base = random_zonotope(rng, n, int(rng.integers(1, 5)))
        extra = random_zonotope(rng, n, int(rng.integers(1, 4)),
                                contains_origin=True)
        total = minkowski_sum(base, extra)
        dirs = unit_directions(n)
        gap = directional_hausdorff(total, base, dirs)
        assert gap <= enclosure_radius(extra) + 1e-9


# -- properties of the set operations, dims 1-6 ---------------------------

# multiples of 1/8 up to 10: sums and halvings of them are exact, and no
# nonzero entry is small enough to strain the membership test's LP
EIGHTHS = st.integers(-80, 80).map(lambda k: k / 8)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def zonotope_pairs(draw):
    """Two zonotopes of one dimension, 1-6, with up to 6 generators each."""
    dim = draw(st.integers(1, 6))

    def one():
        gamma = draw(st.integers(0, 6))
        return Zonotope(draw(arrays(np.float64, dim, elements=EIGHTHS)),
                        draw(arrays(np.float64, (dim, gamma), elements=EIGHTHS)))

    return one(), one()


def sample_points(rng, z, count=8):
    """Vertices (every coefficient +-1), then interior points of ``z``."""
    beta = rng.uniform(-1.0, 1.0, size=(count, z.num_generators))
    beta[:count // 2] = np.where(beta[:count // 2] < 0, -1.0, 1.0)
    return z.center + beta @ z.generators.T


@settings(max_examples=100, deadline=None)
@given(zonotope_pairs(), st.data(), SEEDS)
def test_linear_map_contains_mapped_points(pair, data, seed):
    z, _ = pair
    rows = data.draw(st.integers(1, 6))
    m = data.draw(arrays(np.float64, (rows, z.dim), elements=EIGHTHS))
    x = sample_points(np.random.default_rng(seed), z)
    assert batch_contains(linear_map(m, z), x @ m.T, tol=1e-9).all()


@settings(max_examples=100, deadline=None)
@given(zonotope_pairs(), SEEDS)
def test_minkowski_sum_support_is_the_sum_of_supports(pair, seed):
    z1, z2 = pair
    total = minkowski_sum(z1, z2)
    for d in np.random.default_rng(seed).normal(size=(8, z1.dim)):
        assert support(total, d) == pytest.approx(support(z1, d) + support(z2, d),
                                                  rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(zonotope_pairs(), SEEDS)
def test_hull_of_contains_points_of_both_operands(pair, seed):
    z1, z2 = pair
    rng = np.random.default_rng(seed)
    p1, p2 = sample_points(rng, z1), sample_points(rng, z2)
    mix = rng.uniform(size=(p1.shape[0], 1))
    points = np.vstack((p1, p2, mix * p1 + (1.0 - mix) * p2))
    assert batch_contains(hull_of(z1, z2), points, tol=1e-9).all()


@settings(max_examples=100, deadline=None)
@given(zonotope_pairs(), SEEDS)
def test_support_bounds_points_and_is_attained_at_the_sign_vertex(pair, seed):
    z, _ = pair
    rng = np.random.default_rng(seed)
    x = sample_points(rng, z)
    for d in rng.normal(size=(4, z.dim)):
        h = support(z, d)
        slack = 1e-12 * np.abs(d) @ (np.abs(z.center) + np.abs(z.generators).sum(axis=1))
        assert np.all(x @ d <= h + slack)
        vertex = z.center + z.generators @ np.sign(d @ z.generators)
        assert abs(d @ vertex - h) <= slack
