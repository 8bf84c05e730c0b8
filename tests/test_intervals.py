import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reachtune.intervals import IntervalMatrix, IntervalVector
from reachtune.sampling import batch_contains
from reachtune.zonotope import Zonotope, interval_map


def test_interval_vector_validation():
    iv = IntervalVector([0.0, -1.0], [1.0, 2.0])
    assert iv.dim == 2
    assert iv.contains([0.5, 0.0])
    assert not iv.contains([1.5, 0.0])
    with pytest.raises(ValueError):
        IntervalVector([1.0], [0.0])
    with pytest.raises(ValueError):
        IntervalVector([np.nan], [1.0])



def test_interval_matrix_validation():
    m = IntervalMatrix([[0.0, -1.0]], [[1.0, -1.0]])
    assert m.shape == (1, 2)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            IntervalMatrix([[bad, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError):
            IntervalMatrix([[0.0, 0.0]], [[1.0, bad]])
    with pytest.raises(ValueError):
        IntervalMatrix([[0.0, 2.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError):
        IntervalMatrix(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        IntervalMatrix.symmetric([[-1.0]])
    with pytest.raises(ValueError):
        IntervalMatrix.from_point([[np.nan]])

def test_add_identity_and_endpoints():
    m = IntervalMatrix(np.array([[-1.0, 0.0], [2.0, 3.0]]),
                       np.array([[1.0, 0.5], [2.5, 4.0]]))
    zero = IntervalMatrix.from_point(np.zeros((2, 2)))
    total = zero + m
    np.testing.assert_array_equal(total.lo, m.lo)
    np.testing.assert_array_equal(total.hi, m.hi)

    a = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
    b = IntervalMatrix(np.array([[2.0]]), np.array([[3.0]]))
    total = a + b
    assert total.lo[0, 0] == 1.0 and total.hi[0, 0] == 4.0


def test_add_with_negation_contains_zero():
    rng = np.random.default_rng(3)
    lo = rng.uniform(-2, 0, size=(3, 3))
    hi = lo + rng.uniform(0, 2, size=(3, 3))
    m = IntervalMatrix(lo, hi)
    neg = IntervalMatrix(-hi, -lo)
    total = m + neg
    assert total.contains(np.zeros((3, 3)))


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        IntervalMatrix.identity(2) + IntervalMatrix.identity(3)


def test_mul_identity_and_annihilator():
    rng = np.random.default_rng(5)
    lo = rng.uniform(-2, 0, size=(3, 3))
    m = IntervalMatrix(lo, lo + rng.uniform(0, 2, size=(3, 3)))
    eye = IntervalMatrix.identity(3)
    prod = eye @ m
    np.testing.assert_allclose(prod.lo, m.lo, atol=1e-15)
    np.testing.assert_allclose(prod.hi, m.hi, atol=1e-15)

    zero = IntervalMatrix.from_point(np.zeros((3, 3)))
    prod = zero @ m
    np.testing.assert_array_equal(prod.lo, np.zeros((3, 3)))
    np.testing.assert_array_equal(prod.hi, np.zeros((3, 3)))


def test_mul_scalar_endpoint_enumeration():
    a = IntervalMatrix(np.array([[1.0]]), np.array([[2.0]]))
    b = IntervalMatrix(np.array([[-1.0]]), np.array([[1.0]]))
    prod = a @ b
    # oracle: enumerate the four endpoint products
    candidates = [x * y for x in (1.0, 2.0) for y in (-1.0, 1.0)]
    assert prod.lo[0, 0] == min(candidates)
    assert prod.hi[0, 0] == max(candidates)


def test_mul_encloses_sampled_products():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        lo1 = rng.uniform(-3, 1, size=(n, n))
        m1 = IntervalMatrix(lo1, lo1 + rng.uniform(0, 2, size=(n, n)))
        lo2 = rng.uniform(-2, 2, size=(n, n))
        m2 = IntervalMatrix(lo2, lo2 + rng.uniform(0, 3, size=(n, n)))
        for pick in range(6):
            # endpoints and midpoints of each factor
            w1 = rng.integers(0, 3, size=(n, n)) * 0.5
            w2 = rng.integers(0, 3, size=(n, n)) * 0.5
            x = m1.lo * (1 - w1) + m1.hi * w1
            y = m2.lo * (1 - w2) + m2.hi * w2
            prod = m1 @ m2
            slack = 1e-12 * (1 + np.abs(x @ y))
            assert np.all(x @ y >= prod.lo - slack)
            assert np.all(x @ y <= prod.hi + slack)


def test_scale_requires_nonnegative():
    m = IntervalMatrix.identity(2)
    with pytest.raises(ValueError):
        m.scale(-1.0)
    doubled = m.scale(2.0)
    assert doubled.hi[0, 0] == 2.0


@st.composite
def matrix_and_zonotope(draw):
    """An interval matrix and a zonotope it maps, dims 1-6.

    Entries are multiples of 1/8 up to 10 in magnitude, so the enclosure
    and the vertex products are computed without rounding, and no nonzero
    entry is small enough for the LP behind ``batch_contains`` to drop
    (HiGHS discards matrix entries below 1e-9).
    """
    rows, dim, gamma = (draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                        draw(st.integers(0, 6)))
    value = st.integers(-80, 80).map(lambda k: k / 8)
    lo = draw(arrays(np.float64, (rows, dim), elements=value))
    width = draw(arrays(np.float64, (rows, dim),
                        elements=st.integers(0, 40).map(lambda k: k / 8)))
    center = draw(arrays(np.float64, dim, elements=value))
    generators = draw(arrays(np.float64, (dim, gamma), elements=value))
    return IntervalMatrix(lo, lo + width), Zonotope(center, generators)


@settings(max_examples=150, deadline=None)
@given(matrix_and_zonotope(), st.integers(0, 2**32 - 1))
def test_interval_map_encloses_sampled_products(case, seed):
    m, z = case
    rng = np.random.default_rng(seed)
    # matrices: random vertices of m, then interior entries
    picks = [np.where(rng.random(m.shape) < 0.5, m.lo, m.hi) for _ in range(4)]
    picks += [m.lo + rng.random(m.shape) * (m.hi - m.lo) for _ in range(4)]
    # states: vertex coefficients of z, then interior ones
    beta = rng.uniform(-1.0, 1.0, size=(8, z.num_generators))
    beta[:4] = np.sign(beta[:4]) + (beta[:4] == 0)
    states = z.center + beta @ z.generators.T
    products = np.concatenate([states @ pick.T for pick in picks])
    assert batch_contains(interval_map(m, z), products, tol=1e-9).all()
