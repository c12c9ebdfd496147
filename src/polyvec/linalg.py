"""Exact linear algebra over the rationals.

Elimination is sparse and fraction-free.  Each row is held as a dict
``{column: int}`` without zero entries, cleared of denominators once by the
lcm of its own, so a row update touches only the pivot row's nonzeros.  With
pivot entry ``a`` and the row's entry ``f`` in the pivot column, the update
is ``row <- (a/g) row - (f/g) pivot`` with ``g = gcd(a, f)``: it cancels the
column in integers, and the row's content (the gcd of its entries) is then
divided out, which keeps the entries small (the fraction-free step of
Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968).  Scaling a row by a nonzero integer
changes neither its span nor its place in the elimination, so the reduced
rows stay integer rows, each a multiple of its reduced form by its lead.
Only the callers that read reduced entries divide by the lead: ``rref``
(and through it ``nullspace`` and ``span_equal``) and the inverse of
``inverse_and_determinant``; ``pivot_columns`` and ``rank`` build no
``Fraction``.  The classifier's kernel matrices (80 unknowns, 1-5 %
nonzero) stay sparse throughout.  The reduced row echelon form is unique,
so the choice of pivot rows changes the cost of ``rref`` and never its
answer.  ``determinant`` reads its value off the same elimination, and
``inverse_and_determinant`` both off one.

A matrix is a list of rows; a row is a sequence (dense) or a mapping
``{column: value}`` (sparse, absent columns are zero).  Entries are exact
rationals, read through ``_frac``: an ``int``, a ``Fraction`` or a string
such as ``"1/2"``.  A float, a ``Decimal`` or any other type raises
``TypeError``, so no inexact value enters an elimination.
"""

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DimensionError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x):
    """``x`` as an exact rational; an ``int`` (not a ``bool``) or a
    ``Fraction`` is returned as it is, and a string is read by ``Fraction``.
    Anything else raises ``TypeError``."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _integer_row(row):
    """Nonzero entries of a dense or sparse row as ``{column: int}``: the row
    times the lcm of its denominators, divided by its content.  ``int``
    entries are taken as they are, others read through ``_frac``.  Returns
    ``(row, lcm, content)``."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    out, den = {}, 1
    for c, x in items:
        if not isinstance(x, int):
            x = _frac(x)
            if x.denominator == 1:
                x = x.numerator
            else:
                den = lcm(den, x.denominator)
        if x:
            out[c] = x
    if den != 1:
        out = {c: x.numerator * (den // x.denominator) for c, x in out.items()}
    g = gcd(*out.values())
    if g > 1:
        out = {c: x // g for c, x in out.items()}
    return out, den, g


def _cleared(rows):
    """``(integer rows, width)``: each row of the matrix through
    ``_integer_row``, and the length of its dense rows, or ``None`` when the
    first row is sparse.  Dense rows of unequal length raise
    ``DimensionError``."""
    rows = list(rows)
    width = None
    if rows and not isinstance(rows[0], Mapping):
        width = len(rows[0])
        for row in rows:
            if not isinstance(row, Mapping) and len(row) != width:
                raise DimensionError(f"dimension mismatch: {len(row)} vs {width}")
    return [_integer_row(row)[0] for row in rows], width


def _as_mapping(row):
    """The row itself when sparse, else ``{column: value}`` without conversion."""
    return row if isinstance(row, Mapping) else dict(enumerate(row))


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``; ``reduced`` contains no zero rows
    and each pivot is a leading 1 with zeros above and below, so two row
    spaces are equal iff their rref outputs are equal.  Reduced rows are
    dense lists of ``Fraction`` when the input rows are sequences, and dicts
    ``{column: Fraction}`` without zeros when they are mappings.  Dense rows
    of unequal length raise ``DimensionError``.
    """
    rows, width = _cleared(rows)
    reduced, pivots, *_ = _eliminate(rows)
    reduced = [{k: Fraction(v, row[p]) for k, v in row.items()}
               for row, p in zip(reduced, pivots)]
    if width is not None:
        return [[row.get(c, _ZERO) for c in range(width)] for row in reduced], pivots
    return reduced, pivots


def pivot_columns(rows):
    """The pivot columns of the reduced row echelon form of the matrix, the
    second item of ``rref(rows)``, read off the integer elimination."""
    return _eliminate(_cleared(rows)[0])[1]


def _eliminate(rows):
    """Fraction-free Gauss-Jordan on sparse integer rows ``{column: int}``,
    which it consumes; returns the reduced rows, still integer, and their
    pivot columns.

    Each column takes as pivot the sparsest remaining row that has an entry
    there, which keeps fill-in low.  A pivot row keeps its integer lead; a
    row with entry ``f`` in the pivot column becomes ``(a/g) row - (f/g)
    pivot`` and is divided by its content.  Rows already reduced are updated
    the same way, so each ends as its reduced form times its own lead, the
    entry in its pivot column.  For ``determinant`` it also returns the
    parity of the order in which the pivot rows leave ``pending``, and the
    products of the multipliers ``a/g`` and of the contents divided out.
    """
    pending = [row for row in rows if row]
    reduced, pivots = [], []
    passed, scaled, divided = 0, 1, 1
    for c in sorted({c for row in pending for c in row}):
        if not pending:
            break
        candidates = [i for i, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        pivot = pending.pop(i := min(candidates, key=lambda j: len(pending[j])))
        passed += i
        a = pivot[c]
        update = [(k, v) for k, v in pivot.items() if k != c]
        for group in (pending, reduced):
            for row in group:
                f = row.pop(c, None)
                if f is None:
                    continue
                g = gcd(a, f)
                s, t = a // g, f // g
                if s != 1:
                    scaled *= s
                    for k in row:
                        row[k] *= s
                for k, v in update:
                    w = row.get(k)
                    if w is None:
                        row[k] = -t * v
                    else:
                        w -= t * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
                g = gcd(*row.values())
                if g > 1:
                    divided *= g
                    for k in row:
                        row[k] //= g
        pending = [row for row in pending if row]
        reduced.append(pivot)
        pivots.append(c)
    return reduced, pivots, passed % 2, scaled, divided


def rank(rows):
    return len(pivot_columns(rows))


def _columns_within(rows, ncols):
    """The rows as mappings ``{column: value}``; a negative ``ncols`` or a
    column outside ``range(ncols)`` raises ``DimensionError``."""
    if ncols < 0:
        raise DimensionError(f"the number of columns must be >= 0, got {ncols}")
    rows = [_as_mapping(row) for row in rows]
    for row in rows:
        for c in row:
            if not 0 <= c < ncols:
                raise DimensionError(f"a row has column {c}, outside the {ncols} columns")
    return rows


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix in ``ncols`` columns, one
    vector per free column.

    The basis is the canonical one read off the rref: the free coordinate is
    set to 1 and pivot coordinates receive the negated reduced entries.
    """
    reduced, pivots = rref(_columns_within(rows, ncols))
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
    ra, pa = rref(_columns_within(rows_a, ncols))
    rb, pb = rref(_columns_within(rows_b, ncols))
    return ra == rb and pa == pb


def mat_mul(a, b):
    """The product of dense matrices ``a`` (n x k) and ``b`` (k x m), their
    entries read through ``_frac``.  A row of ``a`` without k columns, or a
    row of ``b`` of another length than the first, raises
    ``DimensionError``."""
    n, k = len(a), len(b)
    cols = len(b[0]) if b else 0
    for rows, size in ((a, k), (b, cols)):
        for row in rows:
            if len(row) != size:
                raise DimensionError(f"dimension mismatch: {len(row)} vs {size}")
    a = [[_frac(x) for x in row] for row in a]
    b = [[_frac(x) for x in row] for row in b]
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(cols)]
        for i in range(n)
    ]


def identity(n):
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def _square(rows):
    """The size n of a square matrix; ``DimensionError`` for any other.  A
    sparse row may leave columns out, but has none at n or beyond."""
    n = len(rows)
    if any(max(row, default=-1) >= n if isinstance(row, Mapping) else len(row) != n
           for row in rows):
        raise DimensionError(f"matrix must be square, got {n} rows and a row that "
                             f"does not have {n} columns")
    return n


def determinant(rows):
    """Determinant of a square matrix, as a ``Fraction``."""
    return _determinant(_square(rows), rows)[0]


def _determinant(n, rows):
    """``(determinant, reduced integer rows)`` of the n x n matrix that
    leads the rows ``rows``, which may go on past column n.  Scaling a row by
    ``s`` scales the determinant by ``s`` and row subtractions keep it, so at
    full rank it is the signed product of the leads of ``_eliminate``'s rows
    over all the scalings; columns past n only join the scalings and
    contents."""
    cleared = [_integer_row(row) for row in rows]
    reduced, pivots, odd, scaled, divided = _eliminate([out for out, _, _ in cleared])
    if pivots[:n] != list(range(n)):
        return _ZERO, reduced
    leads = prod(row[p] for row, p in zip(reduced, pivots))
    value = (-1) ** odd * leads * divided * prod(g for _, _, g in cleared)
    return Fraction(value, scaled * prod(den for _, den, _ in cleared)), reduced


def inverse(rows):
    """Inverse of a square matrix, or None when singular."""
    return inverse_and_determinant(rows)[0]


def inverse_and_determinant(rows):
    """``(inverse(rows), determinant(rows))``, both read off one elimination
    of ``[rows | I]``."""
    n = _square(rows)
    det, reduced = _determinant(n, [{**_as_mapping(row), n + i: 1} for i, row in enumerate(rows)])
    if not det:
        return None, det
    return [[Fraction(row.get(n + j, 0), row[i]) for j in range(n)]
            for i, row in enumerate(reduced)], det
