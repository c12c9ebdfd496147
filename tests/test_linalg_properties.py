"""Properties of the reduced row echelon form, checked with hypothesis.

Every property runs derandomized, so the examples are the same on each run.
"""

import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from polyvec import LinearMatrix, linalg
from polyvec.cli import parse_matrix
from util import determinant_by_fractions, rref_by_fractions, rref_dense

# Mostly zeros, so sparse rows and rank drops are common.
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)

# Large pairwise coprime denominators make the lcm that clears a row, and
# the cross-multiplied entries, far larger than any single entry.
LARGE_PRIMES = (1_000_003, 998_244_353, 2**61 - 1, 10**9 + 7)
WIDE_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.sampled_from(LARGE_PRIMES)),
    st.integers(-10**6, 10**6).map(Fraction),
)

# Row factors: content 1, negated leads, and contents that are not 1.
ROW_FACTORS = (1, -1, 6, -35, 3 * 2**70)


@st.composite
def matrices(draw, max_rows=6, max_cols=6, entries=ENTRIES, square=False):
    nrows = draw(st.integers(0, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def mixed_matrices(draw, max_rows=7, max_cols=7, square=False):
    """Matrices of ``WIDE_ENTRIES``: each row is scaled by one of
    ``ROW_FACTORS`` or replaced by zeros, and each entry is spelled as a
    ``Fraction``, an ``int`` when it is integral, or a ``str``."""
    out = []
    for row in draw(matrices(max_rows, max_cols, WIDE_ENTRIES, square)):
        if draw(st.integers(0, 5)) == 0:
            row = [Fraction(0)] * len(row)
        factor = draw(st.sampled_from(ROW_FACTORS))
        spelled = []
        for x in row:
            x *= factor
            form = draw(st.sampled_from(("fraction", "int", "str")))
            if form == "str":
                spelled.append(str(x))
            elif form == "int" and x.denominator == 1:
                spelled.append(int(x))
            else:
                spelled.append(x)
        out.append(spelled)
    return out


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
    assert linalg.rref(rows) == rref_dense(rows) == rref_by_fractions(rows)


@settings(derandomize=True, max_examples=80)
@given(mixed_matrices())
def test_rref_of_mixed_entries_equals_both_oracles(rows):
    reduced, pivots = linalg.rref(rows)
    assert (reduced, pivots) == rref_dense(rows) == rref_by_fractions(rows)
    assert all(type(x) is Fraction for row in reduced for x in row)


@settings(derandomize=True, max_examples=80)
@given(mixed_matrices(), st.data())
def test_rref_of_mixed_sparse_rows_equals_both_oracles(rows, data):
    """Sparse rows keep some explicit zeros, and empty rows are mixed in."""
    ncols = len(rows[0]) if rows else 1
    sparse = [{c: x for c, x in enumerate(row) if Fraction(x) or data.draw(st.booleans())}
              for row in rows]
    sparse += [{}] * data.draw(st.integers(0, 2))
    reduced, pivots = linalg.rref(sparse)
    assert (reduced, pivots) == rref_by_fractions(sparse)
    assert all(type(x) is Fraction and x for row in reduced for x in row.values())
    dense = [[row.get(c, 0) for c in range(ncols)] for row in reduced]
    assert (dense, pivots) == rref_dense(rows)


@settings(derandomize=True, max_examples=60)
@given(mixed_matrices(max_rows=8, square=True))
@example([[0, 1], [1, 0]])
@example([[0, 0, 3], [0, "5/2", 1], [-7, 1, Fraction(1, 3)]])
@example([[6, 0, 0, 4], [0, 0, 35, 0], [0, 10, 0, 0], [9, 0, 0, 15]])
@example([[1, 2, 3], ["1/2", 5, 7], [1, 2, 3]])
def test_determinant_equals_the_fraction_oracle(rows):
    """Row swaps, zero rows, row contents, large denominators and every
    spelling of an entry; the last example has two equal rows."""
    det = linalg.determinant(rows)
    assert det == determinant_by_fractions(rows)
    assert type(det) is Fraction
    inv, det_augmented = linalg.inverse_and_determinant(rows)
    assert det_augmented == det and type(det_augmented) is Fraction
    assert inv == linalg.inverse(rows) and (inv is None) == (det == 0)
    if rows:
        det = LinearMatrix(rows).det()
        assert det == determinant_by_fractions(rows) and type(det) is Fraction


def test_determinant_of_a_literal_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        matrix = parse_matrix("1e4301")
        det = matrix.det()
    finally:
        sys.set_int_max_str_digits(limit)
    assert det == determinant_by_fractions(matrix.entries) == 10 ** 4301
    assert type(det) is Fraction
