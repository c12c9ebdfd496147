"""Properties of the reduced row echelon form, checked with hypothesis.

Every property runs derandomized, so the examples are the same on each run.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyvec import linalg
from util import rref_dense

# Mostly zeros, so sparse rows and rank drops are common.
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(1, max_cols))
    return [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@settings(derandomize=True, max_examples=60)
@given(matrices())
def test_rref_is_idempotent(rows):
    reduced, pivots = linalg.rref(rows)
    if reduced:
        assert linalg.rref(reduced) == (reduced, pivots)


@settings(derandomize=True, max_examples=60)
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_ignores_row_order(rows, rng):
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert linalg.rref(shuffled) == linalg.rref(rows)


@settings(derandomize=True, max_examples=60)
@given(matrices(), st.data())
def test_rref_ignores_added_row_combinations(rows, data):
    if len(rows) < 2:
        return
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                              unique=True))
    f = data.draw(ENTRIES)
    changed = list(rows)
    changed[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    combination = [f * a - b for a, b in zip(rows[i], rows[j])]
    assert linalg.rref(changed) == linalg.rref(rows) == linalg.rref(rows + [combination])


@settings(derandomize=True, max_examples=60)
@given(matrices(max_rows=8, max_cols=8))
def test_rref_equals_dense_oracle(rows):
    assert linalg.rref(rows) == rref_dense(rows)
