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


@settings(max_examples=200, deadline=None)
@given(interval_factors(), st.integers(0, 2**32 - 1))
def test_interval_matmul_encloses_and_attains(factors, seed):
    lo1, hi1, lo2, hi2 = factors
    lo, hi = interval_matmul(lo1, hi1, lo2, hi2)
    # rounding scale of each entry: the sum of its terms' magnitudes
    mag = (np.maximum(np.abs(lo1), np.abs(hi1))
           @ np.maximum(np.abs(lo2), np.abs(hi2)))
    slack = 1e-12 * mag + 1e-300

    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = lo1 + rng.uniform(size=lo1.shape) * (hi1 - lo1)
        y = lo2 + rng.uniform(size=lo2.shape) * (hi2 - lo2)
        assert np.all(x @ y >= lo - slack)
        assert np.all(x @ y <= hi + slack)

    # each bound is the product of one vertex pair: per term, the
    # endpoint pair that minimises (or maximises) it
    for i in range(lo.shape[0]):
        for j in range(lo.shape[1]):
            pairs = [[(a, b) for a in (lo1[i, p], hi1[i, p])
                      for b in (lo2[p, j], hi2[p, j])]
                     for p in range(lo1.shape[1])]
            for bound, pick in ((lo, min), (hi, max)):
                x, y = np.array([pick(t, key=lambda ab: ab[0] * ab[1])
                                 for t in pairs]).T
                np.testing.assert_allclose(x @ y, bound[i, j], rtol=1e-12,
                                           atol=slack[i, j])


def test_interval_matmul_point_matrices_multiply():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    lo, hi = interval_matmul(a, a, b, b)
    np.testing.assert_allclose(lo, a @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(hi, a @ b, rtol=1e-13, atol=1e-13)


def test_interval_matmul_tightest_scalar():
    lo, hi = interval_matmul(np.array([[1.0]]), np.array([[2.0]]),
                             np.array([[-1.0]]), np.array([[1.0]]))
    assert lo[0, 0] == -2.0 and hi[0, 0] == 2.0


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
