"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of :class:`fractions.Fraction`.  Everything
here is small and dense; the classifier kernels top out around 80 unknowns,
well inside what straightforward Gauss-Jordan handles instantly.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivot_columns)``; ``reduced`` contains no zero rows
    and each pivot is a leading 1 with zeros above and below, so two row
    spaces are equal iff their rref outputs are equal.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    reduced, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free column.

    The basis is the canonical one read off the rref: the free coordinate is
    set to 1 and pivot coordinates receive the negated reduced entries.
    """
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(vec)
    return basis


def span_equal(rows_a, rows_b, ncols):
    """Do two lists of coordinate vectors span the same subspace?"""
    ra, pa = rref([list(r) + [Fraction(0)] * (ncols - len(r)) for r in rows_a])
    rb, pb = rref([list(r) + [Fraction(0)] * (ncols - len(r)) for r in rows_b])
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
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]
