import math

import mpmath
import numpy as np
import pytest

from reachtune.intervals import IntervalMatrix
from reachtune.taylor import (MAX_ORDER_CAP, MatrixPowers, NotConvergentError,
                              TaylorSeries, convergence_ratio, curvature_enclosure,
                              input_correction, input_propagator,
                              max_taylor_order, taylor_partial_sum,
                              truncation_remainder)
from reachtune.zonotope import Zonotope, enclosure_radius, interval_map


def geometric_tail(norm_a, dt, eta):
    # scalar form of the implemented remainder halfwidth
    zeta = norm_a * dt / (eta + 2)
    return norm_a ** (eta + 1) * dt ** (eta + 1) / math.factorial(eta + 1) / (1 - zeta)


def test_partial_sum_zero_matrix_is_identity():
    w = taylor_partial_sum(np.zeros((3, 3)), dt=0.7, eta=4)
    np.testing.assert_array_equal(w, np.eye(3))


def test_partial_sum_scalar():
    w = taylor_partial_sum(np.array([[1.0]]), dt=0.1, eta=2)
    assert w[0, 0] == pytest.approx(1.0 + 0.1 + 0.1 ** 2 / 2, abs=1e-15)


def test_partial_sum_converges_to_exponential():
    w = taylor_partial_sum(np.array([[1.0]]), dt=0.1, eta=30)
    assert w[0, 0] == pytest.approx(math.exp(0.1), abs=1e-15)


def test_remainder_zero_matrix():
    rem = truncation_remainder(np.zeros((2, 2)), dt=0.3, eta=3)
    np.testing.assert_array_equal(rem.lo, np.zeros((2, 2)))
    np.testing.assert_array_equal(rem.hi, np.zeros((2, 2)))


def test_remainder_scalar_closed_form_and_soundness():
    rem = truncation_remainder(np.array([[1.0]]), dt=0.1, eta=2)
    expected = (0.1 ** 3 / 6) / (1 - 0.1 / 4)
    assert rem.hi[0, 0] == pytest.approx(expected, rel=1e-12)
    true_tail = math.exp(0.1) - (1 + 0.1 + 0.005)
    assert true_tail <= rem.hi[0, 0]
    assert rem.hi[0, 0] == pytest.approx(true_tail, rel=2e-4)


def test_remainder_not_convergent():
    with pytest.raises(NotConvergentError):
        truncation_remainder(np.array([[10.0]]), dt=1.0, eta=1)


def test_remainder_soundness_scalar_randomized():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = rng.uniform(-3, 3)
        dt = rng.uniform(1e-3, 0.5)
        eta = int(rng.integers(1, 9))
        if abs(a) * dt / (eta + 2) >= 1:
            continue
        rem = truncation_remainder(np.array([[a]]), dt, eta)
        partial = taylor_partial_sum(np.array([[a]]), dt, eta)[0, 0]
        true_remainder = math.exp(a * dt) - partial
        # the subtraction cancels, so allow its own rounding noise
        noise = 1e-15 * max(1.0, math.exp(a * dt))
        assert rem.lo[0, 0] - noise <= true_remainder <= rem.hi[0, 0] + noise


def test_remainder_superlinear_in_dt():
    # halfwidth at phi*dt is at most phi times the halfwidth at dt, entrywise
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2, 2, size=(n, n))
        dt = rng.uniform(1e-3, 1.0)
        eta = int(rng.integers(1, 7))
        powers = MatrixPowers(a)
        if powers.norm_inf * dt / (eta + 2) >= 1:
            continue
        phi = rng.uniform(0.01, 0.99)
        small = truncation_remainder(powers, phi * dt, eta)
        big = truncation_remainder(powers, dt, eta)
        assert np.all(small.hi <= phi * big.hi)


def test_remainder_monotone_in_order_scalar():
    # entrywise order-monotonicity holds exactly in the scalar case
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = np.array([[rng.uniform(-4, 4)]])
        dt = rng.uniform(1e-3, 0.4)
        for eta in range(1, 7):
            if abs(a[0, 0]) * dt / (eta + 3) >= 1:
                break
            coarse = truncation_remainder(a, dt, eta)
            fine = truncation_remainder(a, dt, eta + 1)
            assert fine.hi[0, 0] <= coarse.hi[0, 0]


def test_remainder_monotone_in_order_norm():
    # for matrices the closed-form bound shrinks with the order in inf-norm
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = rng.uniform(-2, 2, size=(n, n))
        dt = rng.uniform(1e-3, 0.4)
        powers = MatrixPowers(a)
        for eta in range(1, 6):
            if powers.norm_inf * dt / (eta + 3) >= 1:
                break
            coarse = truncation_remainder(powers, dt, eta)
            fine = truncation_remainder(powers, dt, eta + 1)
            assert (np.abs(fine.hi).sum(axis=1).max()
                    <= np.abs(coarse.hi).sum(axis=1).max())


def test_curvature_zero_matrix():
    f = curvature_enclosure(np.zeros((2, 2)), dt=0.2, eta=3)
    np.testing.assert_array_equal(f.lo, np.zeros((2, 2)))
    np.testing.assert_array_equal(f.hi, np.zeros((2, 2)))


def test_curvature_scalar_worked_value():
    f = curvature_enclosure(np.array([[1.0]]), dt=0.1, eta=2)
    tail = (0.1 ** 3 / 6) / (1 - 0.1 / 4)
    # single k=2 term: (2^-2 - 2^-1) dt^2 * A^2/2 = [-0.00125, 0]
    assert f.lo[0, 0] == pytest.approx(-0.00125 - tail, rel=1e-12)
    assert f.hi[0, 0] == pytest.approx(tail, rel=1e-12)
    assert f.lo[0, 0] == pytest.approx(-1.4209e-3, rel=1e-3)
    assert f.hi[0, 0] == pytest.approx(1.7094e-4, rel=1e-3)


def test_input_correction_zero_matrix():
    fu = input_correction(np.zeros((2, 2)), dt=0.2, eta=3)
    np.testing.assert_array_equal(fu.lo, np.zeros((2, 2)))
    np.testing.assert_array_equal(fu.hi, np.zeros((2, 2)))


def test_input_correction_scalar_worked_value():
    fu = input_correction(np.array([[1.0]]), dt=0.1, eta=1)
    tail_dt = geometric_tail(1.0, 0.1, 1) * 0.1
    assert fu.lo[0, 0] == pytest.approx(-0.00125 - tail_dt, rel=1e-12)
    assert fu.hi[0, 0] == pytest.approx(tail_dt, rel=1e-12)


def test_curvature_and_correction_vanish_with_dt():
    # enclosure radii strictly decrease under halving and approach zero
    a = np.array([[0.0, 1.0], [-2.0, -0.5]])
    x0 = Zonotope(np.array([10.0, 10.0]), 0.25 * np.eye(2))
    point = Zonotope.point(np.array([1.0, 1.0]))
    dt = 0.4
    first_f = enclosure_radius(interval_map(curvature_enclosure(a, dt, 4), x0))
    first_fu = enclosure_radius(interval_map(input_correction(a, dt, 4), point))
    prev_f, prev_fu = first_f, first_fu
    for _ in range(10):
        dt *= 0.5
        err_f = enclosure_radius(interval_map(curvature_enclosure(a, dt, 4), x0))
        err_fu = enclosure_radius(interval_map(input_correction(a, dt, 4), point))
        assert err_f < prev_f
        assert err_fu < prev_fu
        prev_f, prev_fu = err_f, err_fu
    # both terms scale at least quadratically, so ten halvings shrink them
    # by far more than a factor 1e-4
    assert prev_f < 1e-4 * first_f
    assert prev_fu < 1e-4 * first_fu


def oracle_max_order(norm_a, dt, partial_norms, rel_floor=1e-12, cap=100):
    # independent re-statement of the cut-off rule
    alpha = norm_a * dt
    for eta in range(1, cap + 1):
        zeta = alpha / (eta + 2)
        if zeta >= 1:
            continue
        tail = alpha ** (eta + 1) / math.factorial(eta + 1) / (1 - zeta)
        if tail <= rel_floor * partial_norms[eta]:
            return eta
    return cap


def test_max_order_zero_matrix():
    assert max_taylor_order(np.zeros((2, 2)), dt=1.0) == 1


def test_max_order_scalar_against_oracle():
    a = np.array([[1.0]])
    partial_norms = {eta: taylor_partial_sum(a, 0.1, eta)[0, 0]
                     for eta in range(1, 20)}
    expected = oracle_max_order(1.0, 0.1, partial_norms, cap=19)
    assert expected == 7
    assert max_taylor_order(a, 0.1) == expected


def test_max_order_needs_convergent_ratio():
    # |A| dt/(eta+2) < 1 forces eta > 8 here
    assert max_taylor_order(np.array([[10.0]]), dt=1.0) > 8


def test_max_order_cap():
    assert max_taylor_order(np.array([[1e6]]), dt=1.0) == 100


def test_matrix_powers_cache_and_validation():
    powers = MatrixPowers(np.array([[0.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(powers.power(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(powers.power(1), [[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MatrixPowers(np.ones((2, 3)))
    with pytest.raises(ValueError):
        MatrixPowers(np.array([[np.inf]]))


def series_pieces(series, eta):
    pieces = series.pieces(eta)
    rem, curv, corr = pieces.remainder, pieces.curvature, pieces.correction
    return (pieces.partial_sum, pieces.input_propagator,
            rem.lo, rem.hi, curv.lo, curv.hi, corr.lo, corr.hi)


def reference_pieces(powers, dt, eta):
    rem = truncation_remainder(powers, dt, eta)
    curv = curvature_enclosure(powers, dt, eta)
    corr = input_correction(powers, dt, eta)
    return (taylor_partial_sum(powers, dt, eta), input_propagator(powers, dt, eta),
            rem.lo, rem.hi, curv.lo, curv.hi, corr.lo, corr.hi)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_series_equals_per_order_functions_bit_for_bit(n):
    # at every order up to the cut-off, whether the series was grown
    # exactly to that order (ascending queries) or beyond it (top first)
    rng = np.random.default_rng(50 + n)
    for _ in range(3):
        a = rng.uniform(-3, 3, size=(n, n))
        powers = MatrixPowers(a)
        for dt in (0.003, 0.05, 0.3, 1.2):
            orders = [eta for eta in range(1, max_taylor_order(powers, dt) + 1)
                      if convergence_ratio(powers, dt, eta) < 1]
            exact = TaylorSeries(powers, dt)
            beyond = TaylorSeries(a, dt)
            series_pieces(beyond, orders[-1])
            for eta in orders:
                expected = reference_pieces(powers, dt, eta)
                for series in (exact, beyond):
                    got = series_pieces(series, eta)
                    assert all(np.array_equal(g, e) for g, e in zip(got, expected)), \
                        (n, dt, eta)


def test_series_finiteness_and_convergence():
    # stiff powers overflow at high orders and the remainder diverges at
    # low ones: both give no pieces, not an error, while low orders at a
    # small step stay usable
    stiff = MatrixPowers(np.diag([-3000.0, -1.0]))
    coarse = TaylorSeries(stiff, 0.03)
    assert coarse.pieces(100) is None
    assert convergence_ratio(stiff, 0.03, 10) >= 1
    assert coarse.pieces(10) is None
    fine = TaylorSeries(stiff, 1e-4)
    pieces = fine.pieces(5)
    assert pieces is not None and (pieces.dt, pieces.eta) == (1e-4, 5)
    assert np.array_equal(pieces.curvature.lo, curvature_enclosure(stiff, 1e-4, 5).lo)
    with pytest.raises(ValueError):
        TaylorSeries(stiff, 0.0)


def test_checked_order_and_cut_off_reuse_the_series_terms():
    # the cut-off read from a series equals the one computed from scratch
    # and leaves its partial sums there; the pieces of every convergent
    # order are finite and equal the per-order functions
    rng = np.random.default_rng(61)
    a = rng.uniform(-3, 3, size=(3, 3))
    powers = MatrixPowers(a)
    for dt in (0.05, 0.3):
        series = TaylorSeries(powers, dt)
        cap = max_taylor_order(series, dt)
        assert cap == max_taylor_order(a, dt)
        assert len(series._partial) == cap + 1
        for eta in range(1, cap + 1):
            if convergence_ratio(powers, dt, eta) >= 1:
                continue
            assert series.pieces(eta) is not None
            expected = reference_pieces(powers, dt, eta)
            assert all(np.array_equal(g, e)
                       for g, e in zip(series_pieces(series, eta), expected))
    with pytest.raises(ValueError):
        max_taylor_order(TaylorSeries(powers, 0.05), 0.1)


def reference_rejects(powers, dt, eta):
    """Whether the per-order functions fail at ``(dt, eta)``: one raises, or
    a point sum is not finite."""
    try:
        for enclosure in (truncation_remainder, curvature_enclosure, input_correction):
            enclosure(powers, dt, eta)
    except (NotConvergentError, ValueError):
        return True
    return not (np.isfinite(taylor_partial_sum(powers, dt, eta)).all()
                and np.isfinite(input_propagator(powers, dt, eta)).all())


def test_series_rejects_exactly_what_the_per_order_functions_reject():
    # the series checks four of its arrays for finiteness; the decisions
    # match the per-order functions' at every order, on powers that
    # diverge, overflow, or (long horizons) overflow in dt^k alone
    rng = np.random.default_rng(71)
    cases = [(rng.uniform(-3.0, 3.0, (3, 3)), (0.003, 0.3, 1.2)),
             (np.diag([-3000.0, -1.0]), (1e-4, 0.003, 0.03)),
             (rng.uniform(-1e-3, 1e-3, (3, 3)), (10.0, 1e3, 1e4))]
    decisions = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for a, dts in cases:
            powers = MatrixPowers(a)
            for dt in dts:
                series = TaylorSeries(powers, dt)
                for eta in range(1, MAX_ORDER_CAP + 1):
                    rejected = series.pieces(eta) is None
                    assert rejected == reference_rejects(powers, dt, eta), (dt, eta)
                    decisions.add(rejected)
    assert decisions == {True, False}


def test_unchecked_order_still_validates_its_pieces():
    # an order no earlier check has passed is validated where its pieces
    # are built: an overflowing or divergent order yields none, and a
    # usable one only finite enclosures
    stiff = MatrixPowers(np.diag([-3000.0, -1.0]))
    coarse = TaylorSeries(stiff, 0.03)
    for eta in (10, 100):
        assert coarse.pieces(eta) is None
    pieces = TaylorSeries(stiff, 1e-4).pieces(5)
    for enclosure in (pieces.remainder, pieces.curvature, pieces.correction):
        assert np.isfinite(enclosure.lo).all() and np.isfinite(enclosure.hi).all()
    assert np.isfinite(pieces.partial_sum).all()
    assert np.isfinite(pieces.input_propagator).all()


LAMBDAS = (0.0, 0.25, 0.5, 0.9, 1.0)


def mp_expm(m, t):
    """50-digit ``exp(M t)`` of a float matrix ``M`` at an mpmath time ``t``."""
    return mpmath.expm(mpmath.matrix(m.tolist()) * t)


def oracle_cases(n):
    """``(piece, exact, enclosure, slack)`` for the series at 50 digits.

    The exact deviations at ``t = lambda dt`` are the remainder
    ``exp(A dt) - W``, the curvature ``exp(A t) - ((1 - lambda) I + lambda W)``
    and the correction ``int_0^t exp(A s) ds - lambda P``, with ``W`` the
    partial sum and ``P`` the input propagator; the integral is the
    top-right block of ``exp([[A, I], [0, 0]] t)``. ``slack`` covers the
    rounding of ``W`` and ``P``, which no enclosure tracks.
    """
    rng = np.random.default_rng(80 + n)
    for _ in range(3):
        a = rng.uniform(-2, 2, size=(n, n))
        powers = MatrixPowers(a)
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = a
        block[:n, n:] = np.eye(n)
        for dt in (0.01, 0.1, 0.4):
            with mpmath.workdps(50):
                times = {lam: mpmath.mpf(lam) * dt for lam in LAMBDAS}
                flow = {lam: mp_expm(a, t) for lam, t in times.items()}
                integral = {lam: mp_expm(block, t)[:n, n:] for lam, t in times.items()}
                growth = max(mp_expm(np.abs(a), mpmath.mpf(dt)))
            slack = 16 * 2.0 ** -53 * max(1.0, float(growth))
            series = TaylorSeries(powers, dt)
            for eta in sorted({1, 2, 4, max_taylor_order(powers, dt)}):
                if convergence_ratio(powers, dt, eta) >= 1:
                    continue
                pieces = series.pieces(eta)
                assert pieces is not None
                with mpmath.workdps(50):
                    w = mpmath.matrix(pieces.partial_sum.tolist())
                    p = mpmath.matrix(pieces.input_propagator.tolist())
                    yield "remainder", flow[1.0] - w, pieces.remainder, slack
                    for lam in LAMBDAS:
                        mix = mpmath.mpf(lam)
                        yield ("curvature", flow[lam] - ((1 - mix) * mpmath.eye(n) + mix * w),
                               pieces.curvature, slack)
                        yield ("correction", integral[lam] - mix * p,
                               pieces.correction, slack * dt)


def entries_outside(exact, enclosure, slack):
    """How many entries of ``exact`` lie outside ``enclosure`` widened by ``slack``."""
    n = enclosure.shape[0]
    with mpmath.workdps(50):
        return sum(not (mpmath.mpf(enclosure.lo[i, j]) - slack <= exact[i, j]
                        <= mpmath.mpf(enclosure.hi[i, j]) + slack)
                   for i in range(n) for j in range(n))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_series_pieces_enclose_the_50_digit_flow(n):
    # an oracle independent of the series: the remainder, curvature and
    # correction enclose the true deviations of the flow at every in-step
    # time, up to the rounding of the point sums
    checked = 0
    for piece, exact, enclosure, slack in oracle_cases(n):
        assert entries_outside(exact, enclosure, slack) == 0, piece
        checked += 1
    assert checked > 0
