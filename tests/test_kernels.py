import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from reachtune.kernels import active_backend, interval_matmul, rk4_piecewise


def test_backend_reports_a_known_name():
    assert active_backend() == "numpy"


@st.composite
def interval_factors(draw):
    """Two conformable interval matrices with shapes up to 6."""
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    value = st.floats(-10.0, 10.0)
    width = st.floats(0.0, 5.0)
    lo1 = draw(arrays(np.float64, (n, k), elements=value))
    lo2 = draw(arrays(np.float64, (k, m), elements=value))
    hi1 = lo1 + draw(arrays(np.float64, (n, k), elements=width))
    hi2 = lo2 + draw(arrays(np.float64, (k, m), elements=width))
    return lo1, hi1, lo2, hi2


def mid_rad(lo, hi):
    return 0.5 * lo + 0.5 * hi, 0.5 * hi - 0.5 * lo


def tightest_product(lo1, hi1, lo2, hi2):
    """Entrywise-tightest enclosure of {X @ Y : lo1<=X<=hi1, lo2<=Y<=hi2}:
    each term's four endpoint products are enumerated exactly."""
    terms = np.stack([x[:, :, None] * y[None, :, :]
                      for x in (lo1, hi1) for y in (lo2, hi2)])
    return terms.min(axis=0).sum(axis=1), terms.max(axis=0).sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(interval_factors(), st.integers(0, 2**32 - 1))
def test_interval_matmul_encloses_and_contains_the_tightest(factors, seed):
    lo1, hi1, lo2, hi2 = factors
    (mid1, rad1), (mid2, rad2) = mid_rad(lo1, hi1), mid_rad(lo2, hi2)
    mid, rad = interval_matmul(mid1, rad1, mid2, rad2)
    # rounding scale of each entry: the sum of its terms' magnitudes
    mag = (np.maximum(np.abs(lo1), np.abs(hi1))
           @ np.maximum(np.abs(lo2), np.abs(hi2)))
    slack = 1e-12 * mag + 1e-300

    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = lo1 + rng.uniform(size=lo1.shape) * (hi1 - lo1)
        y = lo2 + rng.uniform(size=lo2.shape) * (hi2 - lo2)
        assert np.all(np.abs(x @ y - mid) <= rad + slack)

    lo, hi = tightest_product(lo1, hi1, lo2, hi2)
    assert np.all(mid - rad <= lo + slack)
    assert np.all(mid + rad >= hi - slack)
    assert np.all(rad <= 1.5 * (0.5 * hi - 0.5 * lo) + slack)

    # with either factor a point matrix the product is the tightest
    for point in ((mid1, 0 * rad1, mid2, rad2), (mid1, rad1, mid2, 0 * rad2)):
        mid, rad = interval_matmul(*point)
        lo, hi = tightest_product(point[0] - point[1], point[0] + point[1],
                                  point[2] - point[3], point[2] + point[3])
        assert np.all(np.abs(mid - rad - lo) <= slack)
        assert np.all(np.abs(mid + rad - hi) <= slack)


def test_interval_matmul_point_matrices_multiply():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    mid, rad = interval_matmul(a, np.zeros((4, 4)), b, np.zeros((4, 4)))
    np.testing.assert_allclose(mid, a @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(rad, np.zeros((4, 4)))


def test_interval_matmul_tightest_scalar():
    # [1, 2] @ [-1, 1]: a factor centred at zero, where the
    # midpoint-radius product is the tightest
    mid, rad = interval_matmul(np.array([[1.5]]), np.array([[0.5]]),
                               np.array([[0.0]]), np.array([[1.0]]))
    assert mid[0, 0] - rad[0, 0] == -2.0 and mid[0, 0] + rad[0, 0] == 2.0


def test_interval_matmul_overestimates_by_at_most_half():
    # [1, 3] @ [1, 3] is [1, 9], radius 4; the product gives [-1, 9]
    mid, rad = interval_matmul(np.array([[2.0]]), np.array([[1.0]]),
                               np.array([[2.0]]), np.array([[1.0]]))
    assert (mid[0, 0], rad[0, 0]) == (4.0, 5.0)
    # [0, 2] @ [0, 2] is [0, 4], radius 2; the product attains the 1.5 bound
    mid, rad = interval_matmul(np.array([[1.0]]), np.array([[1.0]]),
                               np.array([[1.0]]), np.array([[1.0]]))
    assert (mid[0, 0], rad[0, 0]) == (1.0, 3.0)


def test_rk4_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(3, 3))
    x0 = rng.uniform(-1, 1, size=(5, 3))
    inputs = np.zeros((10, 5, 3))
    out = rk4_piecewise(a, x0, inputs, steps_per_piece=100, h=1e-3)
    assert out.shape == (1001, 5, 3)
    expected = x0 @ expm(a).T
    np.testing.assert_allclose(out[-1], expected, rtol=1e-10, atol=1e-12)


def test_rk4_piecewise_constant_inputs_switch():
    # integrator x' = u with u switching sign each piece
    a = np.zeros((1, 1))
    x0 = np.zeros((1, 1))
    inputs = np.empty((4, 1, 1))
    inputs[:, 0, 0] = [1.0, -1.0, 1.0, -1.0]
    out = rk4_piecewise(a, x0, inputs, steps_per_piece=10, h=0.1)
    assert out[10, 0, 0] == pytest.approx(1.0)
    assert out[20, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert out[40, 0, 0] == pytest.approx(0.0, abs=1e-12)
