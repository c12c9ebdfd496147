"""Sparse exact elimination against the dense Gauss-Jordan oracle."""

import random
from fractions import Fraction

import pytest

from polyvec import DimensionError, linalg
from util import random_rational_matrix, rref_dense

# (rows, cols) shapes: tall, wide and square, up to 12 x 12.
SHAPES = [(1, 1), (2, 5), (3, 3), (4, 9), (5, 2), (6, 6), (7, 12), (9, 4), (12, 7), (12, 12)]


def seeded_matrices(seed, count=20):
    """Matrices mixing sparse and dense rows: each row draws its own density."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        nrows, ncols = rng.choice(SHAPES)
        rows = []
        for _ in range(nrows):
            rows += random_rational_matrix(rng, 1, ncols, rng.choice((0.0, 0.15, 0.4, 1.0)))
        if nrows > 1 and rng.random() < 0.5:
            # a dependent row: a combination of two others
            i, j = rng.sample(range(nrows), 2)
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
            rows[rng.randrange(nrows)] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        out.append(rows)
    return out


MATRICES = [m for seed in range(8) for m in seeded_matrices(seed)]


def oracle_nullspace(rows, ncols):
    reduced, pivots = rref_dense(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Fraction(0)] * ncols
            vec[free] = Fraction(1)
            for r, p in enumerate(pivots):
                vec[p] = -reduced[r][free]
            basis.append(vec)
    return basis


def as_sparse(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def test_rref_agrees_with_dense_oracle():
    for rows in MATRICES:
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == rref_dense(rows)
        assert all(type(x) is Fraction for row in reduced for x in row)


def test_rref_of_sparse_rows_returns_sparse_rows():
    for rows in MATRICES:
        ncols = len(rows[0])
        reduced, pivots = linalg.rref(as_sparse(rows))
        dense, dense_pivots = rref_dense(rows)
        assert pivots == dense_pivots
        assert [[row.get(c, 0) for c in range(ncols)] for row in reduced] == dense
        for row in reduced:
            assert all(row.values())


def test_rank_and_nullspace_agree_with_oracle():
    for rows in MATRICES:
        ncols = len(rows[0])
        rank = linalg.rank(rows)
        assert rank == len(rref_dense(rows)[1]) == linalg.rank(as_sparse(rows))
        basis = linalg.nullspace(rows, ncols)
        assert basis == oracle_nullspace(rows, ncols) == linalg.nullspace(as_sparse(rows), ncols)
        assert rank + len(basis) == ncols
        for vec in basis:
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)


def test_span_equal_against_oracle():
    rng = random.Random(5)
    for rows in MATRICES:
        ncols = len(rows[0])
        reduced, _ = rref_dense(rows)
        assert linalg.span_equal(rows, reduced, ncols)
        assert linalg.span_equal(as_sparse(rows), reduced, ncols)
        extra = random_rational_matrix(rng, 1, ncols, 1.0)
        grows = len(rref_dense(rows + extra)[1]) > len(rref_dense(rows)[1])
        assert linalg.span_equal(rows, rows + extra, ncols) is not grows


def test_span_equal_pads_short_rows():
    assert linalg.span_equal([[1, 2]], [[2, 4, 0, 0]], 4)
    assert not linalg.span_equal([[1, 2]], [[1, 2, 0, 1]], 4)


def test_inverse_agrees_with_oracle():
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = random_rational_matrix(rng, n, n, rng.choice((0.3, 0.6, 1.0)))
        aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
        reduced, pivots = rref_dense(aug)
        inv = linalg.inverse(rows)
        assert linalg.inverse_and_determinant(rows) == (inv, linalg.determinant(rows))
        if pivots[:n] != list(range(n)):
            assert inv is None
            continue
        checked += 1
        assert inv == [row[n:] for row in reduced]
        assert linalg.mat_mul(rows, inv) == linalg.identity(n)
    assert checked > 20


@pytest.mark.parametrize("a, b, message", [
    ([[1, 2, 3]], [[1], [1]], "3 vs 2"),
    ([[1]], [[1], [1]], "1 vs 2"),
    ([[1, 2]], [[1, 2], [3]], "1 vs 2"),
])
def test_mat_mul_rejects_sizes_that_do_not_agree(a, b, message):
    with pytest.raises(DimensionError, match=f"^dimension mismatch: {message}$"):
        linalg.mat_mul(a, b)


def test_empty_and_zero_matrices():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    assert linalg.span_equal([], [], 3)
    assert linalg.rref([[], []]) == ([], [])
    zero = [[0, 0, 0], [Fraction(0), 0, 0]]
    assert linalg.rref(zero) == ([], [])
    assert linalg.nullspace(zero, 3) == linalg.identity(3)
    assert linalg.span_equal(zero, [], 3)


def test_all_zero_rows_are_dropped():
    rows = [[0, 0, 0], [0, 2, 4], [0, 0, 0], [1, 0, 1]]
    assert linalg.rref(rows) == ([[1, 0, 1], [0, 1, 2]], [0, 1]) == rref_dense(rows)
    assert linalg.rref([{}, {1: 2, 2: 4}, {}]) == ([{1: 1, 2: 2}], [1])


def test_tuple_rows_and_integer_entries():
    rows = ((2, 4, 0), (1, 3, 1))
    assert linalg.rref(rows) == rref_dense(rows)
    assert linalg.rank(rows) == 2
    assert linalg.nullspace(rows, 3) == [[2, -1, 1]]
    assert linalg.inverse(((2, 0), (0, 4))) == [[Fraction(1, 2), 0], [0, Fraction(1, 4)]]


@pytest.mark.parametrize("rows", [[[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]])
def test_singular_inverse_is_none(rows):
    assert linalg.inverse(rows) is None


@pytest.mark.parametrize("operation", [linalg.determinant, linalg.inverse,
                                       linalg.inverse_and_determinant])
@pytest.mark.parametrize("rows", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]],
                                  [[1, 2], [3]], [[]], [{0: 1}, {2: 1}]])
def test_non_square_matrices_raise(operation, rows):
    with pytest.raises(DimensionError, match="matrix must be square"):
        operation(rows)


def test_square_sparse_rows_may_leave_columns_out():
    rows = [{0: 2}, {1: Fraction(1, 4), 0: 3}]
    assert linalg.inverse(rows) == [[Fraction(1, 2), 0], [-6, 4]]
    assert linalg.determinant(rows) == Fraction(1, 2)
    assert linalg.determinant([{1: 1}, {}]) == 0


def test_input_is_not_modified():
    dense = [[Fraction(2), 0], [0, Fraction(3)]]
    sparse = [{0: Fraction(2)}, {1: Fraction(3)}]
    linalg.rref(dense)
    linalg.rref(sparse)
    linalg.inverse(dense)
    assert dense == [[2, 0], [0, 3]] and sparse == [{0: 2}, {1: 3}]
