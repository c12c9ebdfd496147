"""Exact linear algebra over the rationals.

Elimination is sparse Gauss-Jordan over :class:`fractions.Fraction`: each
row is held as a dict ``{column: value}`` without zero entries, so a row
update touches only the pivot row's nonzeros.  The classifier's kernel
matrices (80 unknowns, 1-5 % nonzero) stay sparse throughout.  The reduced
row echelon form is unique, so the choice of pivot rows changes the cost of
``rref`` and never its answer.

A matrix is a list of rows; a row is a sequence (dense) or a mapping
``{column: value}`` (sparse, absent columns are zero).
"""

from collections.abc import Mapping
from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sparse_row(row):
    """Nonzero entries of a dense or sparse row as ``{column: Fraction}``."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    out = {}
    for c, x in items:
        x = Fraction(x)
        if x:
            out[c] = x
    return out


def _as_mapping(row):
    """The row itself when sparse, else ``{column: value}`` without conversion."""
    return row if isinstance(row, Mapping) else dict(enumerate(row))


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``; ``reduced`` contains no zero rows
    and each pivot is a leading 1 with zeros above and below, so two row
    spaces are equal iff their rref outputs are equal.  Reduced rows are
    dense lists when the input rows are sequences, and dicts ``{column:
    value}`` without zeros when they are mappings.
    """
    rows = list(rows)
    reduced, pivots = _eliminate([_sparse_row(row) for row in rows])
    if rows and not isinstance(rows[0], Mapping):
        ncols = len(rows[0])
        return [[row.get(c, _ZERO) for c in range(ncols)] for row in reduced], pivots
    return reduced, pivots


def _eliminate(rows):
    """Gauss-Jordan on sparse rows ``{column: Fraction}``, which it consumes.

    Each column takes as pivot the sparsest remaining row that has an entry
    there, which keeps fill-in low; a pivot row is scaled only when its pivot
    is not already 1.
    """
    pending = [row for row in rows if row]
    reduced, pivots = [], []
    for c in sorted({c for row in pending for c in row}):
        if not pending:
            break
        candidates = [i for i, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        pivot = pending.pop(min(candidates, key=lambda i: len(pending[i])))
        lead = pivot.pop(c)
        if lead != 1:
            inv = 1 / lead
            pivot = {k: v * inv for k, v in pivot.items()}
        update = list(pivot.items())
        for group in (pending, reduced):
            for row in group:
                f = row.pop(c, None)
                if f is None:
                    continue
                for k, v in update:
                    w = row.get(k)
                    if w is None:
                        row[k] = -f * v
                    else:
                        w -= f * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
        pending = [row for row in pending if row]
        pivot[c] = _ONE
        reduced.append(pivot)
        pivots.append(c)
    return reduced, pivots


def rank(rows):
    reduced, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free column.

    The basis is the canonical one read off the rref: the free coordinate is
    set to 1 and pivot coordinates receive the negated reduced entries.
    """
    reduced, pivots = rref([_as_mapping(row) for row in rows])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row, p in zip(reduced, pivots):
            entry = row.get(free)
            if entry is not None:
                vec[p] = -entry
        basis.append(vec)
    return basis


def span_equal(rows_a, rows_b, ncols):
    """Do two lists of coordinate vectors in ``ncols`` coordinates span the
    same subspace?  Rows may be shorter than ``ncols``; missing entries are
    zero."""
    ra, pa = rref([_as_mapping(row) for row in rows_a])
    rb, pb = rref([_as_mapping(row) for row in rows_b])
    return ra == rb and pa == pb


def mat_mul(a, b):
    n, k = len(a), len(b)
    cols = len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def determinant(rows):
    """Determinant by Gaussian elimination over Fraction (exact)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def inverse(rows):
    """Inverse matrix, or None when singular."""
    n = len(rows)
    aug = [{**_as_mapping(row), n + i: 1} for i, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [[row.get(n + j, _ZERO) for j in range(n)] for row in reduced]
