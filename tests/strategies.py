"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from reachtune.zonotope import Zonotope

ENTRIES = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def generator_columns(draw, n):
    kind = draw(st.sampled_from(["axis", "axis", "dense", "tiny", "tied"]))
    col = np.zeros(n)
    if kind == "axis":
        # several per axis, and often on few axes, so that box rounds
        # leave zero halfwidths
        col[draw(st.integers(0, min(n - 1, 1)))] = draw(
            st.sampled_from([0.25, 1.0, -1.0, 2.0]))
    elif kind == "dense":
        col[:] = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    elif kind == "tiny":
        # not axis-aligned, yet its score 1 + 1e-17 - 1 rounds to 0
        col[0] = 1.0
        col[-1] += 1e-17
    else:
        # one magnitude pattern, signs and order varied: equal scores
        base = 2.0 ** -(np.arange(n) % 4)
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
        col[:] = np.roll(base, draw(st.integers(0, n - 1))) * signs
    return col


@st.composite
def accumulated_sets(draw):
    n = draw(st.integers(1, 10))
    cols = draw(st.lists(generator_columns(n), min_size=1, max_size=4 * n + 6))
    center = draw(st.lists(ENTRIES, min_size=n, max_size=n))
    return Zonotope(center, np.column_stack(cols))
