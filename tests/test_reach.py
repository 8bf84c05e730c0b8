import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from reachtune.intervals import IntervalMatrix
from reachtune.reach import (ExponentialAccumulator, LinearSystem,
                             build_step_sets, homogeneous_error,
                             homogeneous_error_floor, homogeneous_floor_rate,
                             propagate_step, propagated_error,
                             propagated_homogeneous_error,
                             propagated_input_error)
from reachtune.taylor import (MatrixPowers, TaylorSeries, convergence_ratio,
                              max_taylor_order, taylor_partial_sum,
                              truncation_remainder)
from reachtune.sampling import batch_contains
from reachtune.zonotope import (Zonotope, enclosure_radius, interval_hull,
                               interval_map, minkowski_sum, support)


def unit_box(n, center=0.0):
    return Zonotope(np.full(n, center), np.eye(n))


def scalar_system(a=-1.0, x0=(1.0, 0.1), u=(0.0, 0.05), horizon=1.0):
    return LinearSystem(np.array([[a]]),
                        Zonotope([x0[0]], np.array([[x0[1]]])),
                        Zonotope([u[0]], np.array([[u[1]]])),
                        horizon)


def step_sets(sys, dt, eta):
    """``build_step_sets`` at ``(dt, eta)``."""
    return build_step_sets(sys, TaylorSeries(sys.a, dt).pieces(eta))


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.ones((2, 3)), unit_box(2), unit_box(2), 1.0)
    with pytest.raises(ValueError):
        LinearSystem(np.eye(2), unit_box(3), unit_box(2), 1.0)
    with pytest.raises(ValueError):
        LinearSystem(np.eye(2), unit_box(2), unit_box(3), 1.0)
    with pytest.raises(ValueError):
        LinearSystem(np.eye(2), unit_box(2), unit_box(2), 0.0)
    with pytest.raises(ValueError):
        LinearSystem(np.array([[np.nan, 0], [0, 1]]), unit_box(2), unit_box(2), 1.0)


def test_homogeneous_step_static_dynamics():
    sys = LinearSystem(np.zeros((2, 2)), unit_box(2, 5.0),
                       Zonotope.point([0.0, 0.0]), 1.0)
    sets = step_sets(sys, 0.5, 3)
    exact, error = sets.hom_exact, sets.hom_error
    np.testing.assert_array_equal(exact.center, sys.initial_set.center)
    np.testing.assert_array_equal(exact.generators, sys.initial_set.generators)
    assert error.num_generators == 0
    np.testing.assert_array_equal(error.center, [0.0, 0.0])


def test_homogeneous_step_scalar_decay():
    sys = scalar_system()
    dt, eta = 0.1, 6
    sets = step_sets(sys, dt, eta)
    exact, error = sets.hom_exact, sets.hom_error
    w = taylor_partial_sum(sys.a, dt, eta)[0, 0]
    assert w == pytest.approx(math.exp(-dt), abs=1e-9)
    hull = interval_hull(exact)
    # in 1-D the hull of [0.9, 1.1] and W [0.9, 1.1] is exact
    assert hull.lo[0] == pytest.approx(0.9 * w, abs=1e-12)
    assert hull.hi[0] == pytest.approx(1.1, abs=1e-12)
    assert batch_contains(error, [0.0], 0.0)[0]


def test_homogeneous_error_shrinks_with_dt():
    sys = scalar_system()
    errors = []
    dt = 0.2
    for _ in range(6):
        errors.append(enclosure_radius(step_sets(sys, dt, 4).hom_error))
        dt *= 0.5
    assert all(b < a for a, b in zip(errors, errors[1:]))


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 6), log_scale=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2**32 - 1), interval_acc=st.booleans(),
       log_dts=st.lists(st.floats(-4.0, 0.0), min_size=1, max_size=3))
def test_homogeneous_error_floor_bounds_every_order(n, log_scale, seed,
                                                    interval_acc, log_dts):
    # homogeneous_floor_rate * dt^2 is a lower bound on the propagated
    # homogeneous error, and on the search's score for it, at every order
    # that converges and stays finite; and the rate is never below the
    # sigma_min(mid) * max(v) rate of the SVD-based floor it replaced
    rng = np.random.default_rng(seed)
    a = 10.0 ** log_scale * rng.uniform(-1.0, 1.0, (n, n))
    x0 = Zonotope(rng.uniform(-5.0, 5.0, n),
                  10.0 ** rng.uniform(-3.0, 0.0) * rng.uniform(
                      -1.0, 1.0, (n, int(rng.integers(1, 2 * n + 1)))))
    u = Zonotope(rng.uniform(-2.0, 2.0, n), 0.05 * np.eye(n))
    sys = LinearSystem(a, x0, u, 1.0)
    if interval_acc:
        mid = 10.0 ** rng.uniform(-2.0, 0.5) * rng.uniform(-1.0, 1.0, (n, n))
        rad = 0.1 * np.abs(rng.uniform(-1.0, 1.0, (n, n)))
        acc = ExponentialAccumulator(IntervalMatrix(mid - rad, mid + rad))
    else:
        acc = ExponentialAccumulator.identity(n)
    v = homogeneous_error_floor(sys)
    rate = homogeneous_floor_rate(acc, v)
    s = np.linalg.svd(acc.enclosure.mid, compute_uv=False)
    sigma_min = max(float(s[-1] - 2 * n * np.finfo(float).eps * s[0]), 0.0)
    assert rate >= (1 - 1e-9) * sigma_min * float(v.max())
    powers = MatrixPowers(a)
    for dt in (10.0 ** x for x in log_dts):
        series = TaylorSeries(powers, dt)
        for eta in range(1, max_taylor_order(series, dt) + 1):
            pieces = series.pieces(eta)
            if pieces is None:
                continue
            error = propagated_error(acc, homogeneous_error(sys, pieces))
            assert rate * dt * dt <= error
            # and the score the step search compares with its cap
            score = propagated_homogeneous_error(acc, sys, pieces)
            assert score == pytest.approx(error, rel=1e-12, abs=0.0)
            assert rate * dt * dt <= score


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), eta=st.integers(1, 6), steps=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1), zero_input=st.booleans(),
       log_dt=st.floats(-3.0, -1.0))
def test_propagated_homogeneous_error_matches_its_set(n, eta, steps, seed,
                                                     zero_input, log_dt):
    # the closed form equals the enclosure radius of the mapped error set,
    # under the identity (zero radius) and under accumulators advanced by
    # random steps (nonzero radius)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (n, n))
    x0 = Zonotope(rng.uniform(-5.0, 5.0, n),
                  rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, 2 * n + 1)))))
    u_c = np.zeros(n) if zero_input else rng.uniform(-2.0, 2.0, n)
    sys = LinearSystem(a, x0, Zonotope(u_c, 0.05 * np.eye(n)), 1.0)
    acc = ExponentialAccumulator.identity(n)
    for _ in range(steps):
        step = TaylorSeries(a, float(rng.uniform(0.01, 0.1))).pieces(
            int(rng.integers(1, 5)))
        acc = acc.advanced(step.partial_sum, step.remainder)
    assert acc.enclosure.rad.any() == (steps > 0)
    pieces = TaylorSeries(a, 10.0 ** log_dt).pieces(eta)
    assume(pieces is not None)
    reference = propagated_error(acc, homogeneous_error(sys, pieces))
    assert propagated_homogeneous_error(acc, sys, pieces) == pytest.approx(
        reference, rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), eta=st.integers(1, 6), steps=st.integers(0, 5),
       seed=st.integers(0, 2**32 - 1),
       input_kind=st.sampled_from(["zero", "point", "box"]),
       log_dt=st.floats(-3.0, -1.0))
def test_propagated_input_error_matches_its_set(n, eta, steps, seed,
                                               input_kind, log_dt):
    # the closed form equals the enclosure radius of the mapped input error
    # set of the step sets, under the identity (zero radius) and under
    # accumulators advanced by random steps (nonzero radius)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (n, n))
    x0 = Zonotope(rng.uniform(-5.0, 5.0, n),
                  rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, 2 * n + 1)))))
    u = {"zero": Zonotope.point(np.zeros(n)),
         "point": Zonotope.point(rng.uniform(-2.0, 2.0, n)),
         "box": Zonotope.box(rng.uniform(-2.0, 2.0, n),
                             rng.uniform(0.0, 0.5, n))}[input_kind]
    sys = LinearSystem(a, x0, u, 1.0)
    acc = ExponentialAccumulator.identity(n)
    for _ in range(steps):
        step = TaylorSeries(a, float(rng.uniform(0.01, 0.1))).pieces(
            int(rng.integers(1, 5)))
        acc = acc.advanced(step.partial_sum, step.remainder)
    assert acc.enclosure.rad.any() == (steps > 0)
    pieces = TaylorSeries(a, 10.0 ** log_dt).pieces(eta)
    assume(pieces is not None)
    reference = propagated_error(acc, build_step_sets(sys, pieces).inh_error)
    assert propagated_input_error(acc, sys, pieces) == pytest.approx(
        reference, rel=1e-12, abs=0.0)
    assert (reference == 0.0) == (input_kind == "zero")


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 8), eta=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       input_kind=st.sampled_from(["zero", "point", "box"]),
       log_dt=st.floats(-3.0, -1.0))
def test_homogeneous_error_is_one_box_of_the_two_box_set(n, eta, seed, input_kind,
                                                         log_dt):
    # the curvature image of X0 plus the correction image of the input
    # center, with the two boxes of that sum merged into one
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (n, n))
    x0 = Zonotope(rng.uniform(-5.0, 5.0, n),
                  rng.uniform(-1.0, 1.0, (n, int(rng.integers(1, 2 * n + 1)))))
    u = {"zero": Zonotope.point(np.zeros(n)),
         "point": Zonotope.point(rng.uniform(-2.0, 2.0, n)),
         "box": Zonotope.box(rng.uniform(-2.0, 2.0, n),
                             rng.uniform(0.0, 0.5, n))}[input_kind]
    pieces = TaylorSeries(a, 10.0 ** log_dt).pieces(eta)
    assume(pieces is not None)
    curv, corr = pieces.curvature, pieces.correction
    got = homogeneous_error(LinearSystem(a, x0, u, 1.0), pieces)
    two_box = minkowski_sum(interval_map(curv, x0),
                            interval_map(corr, Zonotope.point(u.center)))
    assert np.array_equal(got.center, two_box.center)
    h = (curv.rad @ (np.abs(x0.center) + np.abs(x0.generators).sum(axis=1))
         + corr.rad @ np.abs(u.center))
    mapped = curv.mid @ x0.generators
    assert got.num_generators == (np.count_nonzero(np.any(mapped != 0.0, axis=0))
                                  + np.count_nonzero(h))
    # within 1e-12 of the magnitude of the terms compared
    hull, ref = interval_hull(got), interval_hull(two_box)
    scale = np.maximum(np.abs(ref.lo), np.abs(ref.hi))
    assert np.all(np.abs(hull.lo - ref.lo) <= 1e-12 * scale)
    assert np.all(np.abs(hull.hi - ref.hi) <= 1e-12 * scale)
    for d in rng.standard_normal((16, n)):
        magnitude = abs(d @ two_box.center) + np.abs(d @ two_box.generators).sum()
        assert abs(support(got, d) - support(two_box, d)) <= 1e-12 * magnitude


def test_inhomogeneous_step_no_input():
    sys = scalar_system(u=(0.0, 0.0))
    sets = step_sets(sys, 0.25, 3)
    exact, error = sets.inh_exact, sets.inh_error
    assert exact.num_generators == 0 and error.num_generators == 0
    np.testing.assert_array_equal(exact.center, [0.0])
    np.testing.assert_array_equal(error.center, [0.0])


def test_inhomogeneous_step_pure_integrator():
    sys = LinearSystem(np.zeros((2, 2)), Zonotope.point([0.0, 0.0]),
                       unit_box(2), 1.0)
    sets = step_sets(sys, 0.5, 2)
    exact, error = sets.inh_exact, sets.inh_error
    hull = interval_hull(exact)
    np.testing.assert_allclose(hull.lo, [-0.5, -0.5])
    np.testing.assert_allclose(hull.hi, [0.5, 0.5])
    assert error.num_generators == 0


def test_inhomogeneous_step_scalar_radii():
    sys = scalar_system(a=1.0, x0=(0.0, 0.0), u=(0.0, 1.0))
    sets = step_sets(sys, 0.1, 2)
    exact, error = sets.inh_exact, sets.inh_error
    expected = 0.1 + 0.01 / 2 + 0.001 / 6
    assert interval_hull(exact).hi[0] == pytest.approx(expected, rel=1e-12)
    rem = truncation_remainder(sys.a, 0.1, 2)
    assert interval_hull(error).hi[0] == pytest.approx(rem.hi[0, 0] * 0.1, rel=1e-12)
    assert batch_contains(error, [0.0], 0.0)[0]


def test_advance_from_identity():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    powers = MatrixPowers(a)
    w = taylor_partial_sum(powers, 0.1, 5)
    e = truncation_remainder(powers, 0.1, 5)
    acc = ExponentialAccumulator.identity(2).advanced(w, e)
    np.testing.assert_allclose(acc.enclosure.lo, w + e.lo, atol=1e-15)
    np.testing.assert_allclose(acc.enclosure.hi, w + e.hi, atol=1e-15)


def test_advance_static_stays_identity():
    a = np.zeros((2, 2))
    powers = MatrixPowers(a)
    w = taylor_partial_sum(powers, 0.5, 2)
    e = truncation_remainder(powers, 0.5, 2)
    acc = ExponentialAccumulator.identity(2)
    for _ in range(3):
        acc = acc.advanced(w, e)
    np.testing.assert_array_equal(acc.enclosure.lo, np.eye(2))
    np.testing.assert_array_equal(acc.enclosure.hi, np.eye(2))


def test_advance_scalar_two_steps():
    a = np.array([[1.0]])
    powers = MatrixPowers(a)
    w = taylor_partial_sum(powers, 0.1, 12)
    e = truncation_remainder(powers, 0.1, 12)
    acc = ExponentialAccumulator.identity(1)
    acc = acc.advanced(w, e).advanced(w, e)
    assert acc.enclosure.lo[0, 0] == pytest.approx(math.exp(0.2), abs=1e-8)
    assert acc.enclosure.hi[0, 0] == pytest.approx(math.exp(0.2), abs=1e-8)
    assert acc.enclosure.contains(np.array([[math.exp(0.2)]]), tol=1e-12)


def test_accumulator_encloses_true_exponential():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.uniform(-1.5, 1.5, size=(n, n))
        powers = MatrixPowers(a)
        dt = 0.05
        eta = 10
        w = taylor_partial_sum(powers, dt, eta)
        e = truncation_remainder(powers, dt, eta)
        acc = ExponentialAccumulator.identity(n)
        for k in range(8):
            acc = acc.advanced(w, e)
            truth = expm(a * dt * (k + 1))
            assert acc.enclosure.contains(truth, tol=1e-9)



def test_accumulator_encloses_the_flow_over_random_steps():
    # at a random dt and Taylor order per step, the enclosure holds
    # exp(A t) after every step, up to the rounding of its midpoint, which
    # no interval tracks: a few units in the last place of the entries of
    # exp(|A| t), per step and per term of each product
    rng = np.random.default_rng(23)
    systems = [rng.uniform(-1.5, 1.5, size=(n, n)) for n in (2, 3, 4, 5, 6)]
    systems.append(np.array([[0.8, 1.0], [0.0, 0.5]]))  # unstable
    for a in systems:
        n = a.shape[0]
        acc = ExponentialAccumulator.identity(n)
        t = 0.0
        for step in range(1, 21):
            dt = float(rng.uniform(0.01, 0.2))
            series = TaylorSeries(a, dt)
            eta = int(rng.integers(1, max_taylor_order(series, dt) + 1))
            while convergence_ratio(series.powers, dt, eta) >= 1:
                eta += 1
            pieces = series.pieces(eta)
            acc = acc.advanced(pieces.partial_sum, pieces.remainder)
            t += dt
            tol = 4 * step * n * np.finfo(float).eps * expm(np.abs(a) * t).max()
            assert acc.enclosure.contains(expm(a * t), tol=tol), (n, step, eta)


def test_advance_rejects_overflowing_enclosure():
    acc = ExponentialAccumulator(IntervalMatrix.from_point([[1e300]]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            acc.advanced(np.array([[1e10]]), IntervalMatrix.symmetric([[0.0]]))

def test_propagate_step_first_step_is_local():
    sys = scalar_system()
    sets = step_sets(sys, 0.1, 5)
    acc = ExponentialAccumulator.identity(1)
    window, p = propagate_step(acc, sets, Zonotope.point([0.0]))
    local = interval_hull(sets.hom_exact + sets.hom_error
                          + sets.inh_centered + sets.inh_error)
    np.testing.assert_allclose(interval_hull(window).lo, local.lo, atol=1e-15)
    np.testing.assert_allclose(interval_hull(window).hi, local.hi, atol=1e-15)
    local_p = interval_hull(sets.inh_exact + sets.inh_error)
    np.testing.assert_allclose(interval_hull(p).lo, local_p.lo, atol=1e-15)


def test_constant_drift_covered_within_step():
    # point input away from the origin: the drift endpoint must ride in the
    # hull or intermediate times of the first step escape the window set
    rng = np.random.default_rng(43)
    a = rng.uniform(-1, 1, size=(2, 2))
    c_u = np.array([1.0, 1.0])
    sys = LinearSystem(a, Zonotope.point([10.0, 10.0]),
                       Zonotope.point(c_u), 1.0)
    dt = 0.3
    sets = step_sets(sys, dt, 8)
    acc = ExponentialAccumulator.identity(2)
    window, _ = propagate_step(acc, sets, Zonotope.point([0.0, 0.0]))
    from scipy.integrate import solve_ivp
    for tau in np.linspace(0.0, dt, 16):
        sol = solve_ivp(lambda t, x: a @ x + c_u, (0.0, max(tau, 1e-12)),
                        [10.0, 10.0], rtol=1e-12, atol=1e-12)
        assert batch_contains(window, sol.y[:, -1], 1e-6)[0], tau


def test_drift_endpoint_in_hull_inherits_correction_scale():
    # with the drift inside the hull, the hull endpoint matches the local
    # input solution applied to the input center
    sys = scalar_system(a=-1.0, u=(0.5, 0.0))
    dt, eta = 0.2, 6
    exact = step_sets(sys, dt, eta).hom_exact
    w = taylor_partial_sum(sys.a, dt, eta)[0, 0]
    drift = sum((-1.0) ** k * dt ** (k + 1) / math.factorial(k + 1)
                for k in range(eta + 1)) * 0.5
    hull = interval_hull(exact)
    top = max(1.1, (w * 1.0 + drift) + w * 0.1)
    assert hull.hi[0] == pytest.approx(top, rel=1e-12)


def test_propagate_accumulates_pure_integrator():
    sys = LinearSystem(np.zeros((2, 2)), Zonotope.point([0.0, 0.0]),
                       unit_box(2), 1.0)
    pieces = TaylorSeries(sys.a, 0.5).pieces(2)
    sets = build_step_sets(sys, pieces)
    acc = ExponentialAccumulator.identity(2)
    p = Zonotope.point([0.0, 0.0])
    for _ in range(2):
        _, p = propagate_step(acc, sets, p)
        acc = acc.advanced(pieces.partial_sum, pieces.remainder)
    hull = interval_hull(p)
    np.testing.assert_allclose(hull.lo, [-1.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(hull.hi, [1.0, 1.0], atol=1e-15)


def test_step_errors_zero_cases():
    acc = ExponentialAccumulator.identity(2)
    static = LinearSystem(np.zeros((2, 2)), unit_box(2), unit_box(2), 1.0)
    assert propagated_error(
        acc, homogeneous_error(static, TaylorSeries(static.a, 0.3).pieces(2))) == 0.0
    no_input = LinearSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]), unit_box(2),
                            Zonotope.point([0.0, 0.0]), 1.0)
    assert propagated_error(
        acc, step_sets(no_input, 0.3, 2).inh_error) == 0.0


def test_step_errors_shrink_with_dt():
    sys = LinearSystem(np.array([[0.0, 1.0], [-2.0, -1.0]]),
                       unit_box(2, 10.0), unit_box(2, 1.0), 1.0)
    acc = ExponentialAccumulator.identity(2)
    dt = 0.2
    prev_h = prev_p = math.inf
    for _ in range(6):
        sets = step_sets(sys, dt, 4)
        err_h = propagated_error(acc, sets.hom_error)
        err_p = propagated_error(acc, sets.inh_error)
        assert err_h < prev_h and err_p < prev_p
        prev_h, prev_p = err_h, err_p
        dt *= 0.5


def test_input_error_superlinear_in_dt():
    # the per-step input error at phi*dt is at most phi times the one at dt
    rng = np.random.default_rng(37)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        a = rng.uniform(-1.5, 1.5, size=(n, n))
        sys = LinearSystem(a, unit_box(n, 10.0), unit_box(n, 1.0), 1.0)
        powers = MatrixPowers(a)
        acc = ExponentialAccumulator.identity(n)
        # advance to a random interior time so the enclosure is non-trivial
        steps = int(rng.integers(0, 4))
        for _ in range(steps):
            acc = acc.advanced(taylor_partial_sum(powers, 0.05, 8),
                               truncation_remainder(powers, 0.05, 8))
        dt = float(rng.uniform(0.05, 0.3))
        eta = int(rng.integers(1, 6))
        if powers.norm_inf * dt / (eta + 2) >= 1:
            continue
        def input_error(width):
            sets = step_sets(sys, width, eta)
            return propagated_error(acc, sets.inh_error)

        base = input_error(dt)
        for phi in (0.1, 0.5, 0.9):
            assert input_error(phi * dt) <= phi * base


def test_error_sets_contain_origin():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        a = rng.uniform(-2, 2, size=(n, n))
        sys = LinearSystem(a, unit_box(n, 10.0), unit_box(n, 1.0), 1.0)
        sets = step_sets(sys, 0.05, 4)
        assert batch_contains(sets.hom_error, np.zeros(n), 1e-12)[0]
        assert batch_contains(sets.inh_error, np.zeros(n), 1e-12)[0]
        assert interval_hull(sets.hom_error).contains(np.zeros(n))
        assert interval_hull(sets.inh_error).contains(np.zeros(n))
