"""Poisson and Jacobi structure predicates and constructions.

All predicates are exact: a structure equation either holds identically or
it does not.  The component test mirrors the compatibility conditions on the
trace decomposition and is kept separate from the direct bracket test so the
two can cross-check each other.
"""

from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from operator import index
from types import MappingProxyType

from .errors import (
    DimensionError,
    ExceptionalDegreeError,
    IncompatibleSplittingError,
    ParityError,
    PreconditionError,
)
from .fields import (
    PolyVectorField,
    _Value,
    _add_products,
    _canonical,
    _check_degrees,
    _operands,
    _unpack,
    _variable_key,
    euler,
    schouten,
    wedge,
)
from . import linalg
from .linalg import _frac
from .duality import trace_d
from .decomposition import decompose


class JacobiPair(_Value):
    """A candidate Jacobi structure: a 2l-vector and a (2l-1)-vector."""

    __slots__ = _fields = ("lam", "e_field")

    def __init__(self, lam, e_field):
        _operands("JacobiPair", (lam, PolyVectorField), (e_field, PolyVectorField))
        lam_degs = lam.vector_degrees()
        if len(lam_degs) > 1:
            raise ParityError("the even member must have a single vector degree")
        if lam_degs and next(iter(lam_degs)) % 2:
            raise ParityError("the even member must have even vector degree")
        e_degs = e_field.vector_degrees()
        if len(e_degs) > 1:
            raise ParityError("the odd member must have a single vector degree")
        if lam_degs and e_degs and next(iter(e_degs)) != next(iter(lam_degs)) - 1:
            raise ParityError("vector degrees must differ by one")
        _Value.__init__(self, lam, e_field)

    @property
    def dim(self):
        return self.lam.dim

    def __iter__(self):
        return iter((self.lam, self.e_field))


class RMatrix(_Value):
    """Element of Lambda^2(gl_n) on the matrix-unit basis E_ij /\\ E_kl.

    Stored with one coefficient per ordered pair of matrix units, the pairs
    sorted lexicographically; assigning to a swapped pair flips the sign and
    E_ij /\\ E_ij drops out.  Coefficients are exact rationals and unit
    indices integers; a float in either raises ``TypeError``.  Every key is
    checked, also one whose coefficient is zero.  ``coefficients`` is a
    read-only view, so no write can bypass these checks.  Two elements are
    equal, and hash equal, when their ``dim`` and ``coefficients`` are.
    """

    __slots__ = _fields = ("dim", "coefficients")

    def __init__(self, dim, coefficients=None):
        dim = index(dim)
        if dim < 1:
            raise DimensionError(f"dimension must be >= 1, got {dim}")
        coefficients = {} if coefficients is None else coefficients
        _operands("RMatrix", (coefficients, Mapping))
        canonical = {}
        for (unit_a, unit_b), coeff in coefficients.items():
            coeff = _frac(coeff)
            unit_a = tuple(map(index, unit_a))
            unit_b = tuple(map(index, unit_b))
            for i, j in (unit_a, unit_b):
                if not (1 <= i <= dim and 1 <= j <= dim):
                    raise DimensionError(f"matrix unit ({i},{j}) out of range")
            if not coeff or unit_a == unit_b:
                continue
            if unit_a > unit_b:
                unit_a, unit_b, coeff = unit_b, unit_a, -coeff
            canonical[unit_a, unit_b] = canonical.get((unit_a, unit_b), 0) + coeff
        _Value.__init__(self, dim, MappingProxyType({k: c for k, c in canonical.items() if c}))

    def __hash__(self):
        return hash((self.dim, frozenset(self.coefficients.items())))

    def __reduce__(self):
        # a mappingproxy can be neither pickled nor deep-copied
        return type(self), (self.dim, dict(self.coefficients))


def _even_degrees(name, p):
    _operands(name, (p, PolyVectorField))
    for ell in p.vector_degrees():
        if ell % 2:
            raise ParityError(f"vector degree {ell} is odd")


def is_poisson(p):
    """[P, P] = 0 for an even poly-vector field (generalized Poisson)."""
    _even_degrees("is_poisson", p)
    return schouten(p, p).is_zero()


def poisson_component_test(a):
    """Poisson test through the trace decomposition.

    For homogeneous even A: when k != l the single equation
    [A0, A0] = 2(l-k)/(n+k-l) DA /\\ A0 is equivalent to [A, A] = 0; for
    k = l the conditions are [A0, A0] = 0 and [DA, A0] = 0.
    """
    _even_degrees("poisson_component_test", a)
    if a.is_zero():
        return True
    k, ell = a.bidegree()
    n = a.dim
    parts = decompose(a)
    a0, da = parts.tracefree, parts.trace
    if da.is_zero():
        return schouten(a0, a0).is_zero()
    if k != ell:
        rhs = wedge(da, a0).scale(Fraction(2 * (ell - k), n + k - ell))
        return schouten(a0, a0) == rhs
    return schouten(a0, a0).is_zero() and schouten(da, a0).is_zero()


def is_simple(p):
    """Is the trace-free part of a homogeneous Poisson structure Poisson?

    Checks that ``p`` is Poisson, raising :class:`PreconditionError`
    otherwise, then answers with :func:`_tracefree_is_poisson`.
    """
    if not is_poisson(p):
        raise PreconditionError("is_simple needs a Poisson structure")
    return _tracefree_is_poisson(p)


def _tracefree_is_poisson(p):
    """``is_simple`` for a ``p`` already verified Poisson, without bracketing
    ``p`` with itself again: when DA = 0 the trace-free part is ``p``."""
    parts = decompose(p)
    return parts.trace.is_zero() or is_poisson(parts.tracefree)


def generic_rank(p):
    """Rank of the skew coefficient matrix M of a bi-vector over the field of
    rational functions: the largest even r with a nonzero principal r x r
    Pfaffian.

    The answer is exact and the same on every run; nothing is random.
    Partial indices that occur in no term give zero rows and columns and are
    dropped.  M is evaluated exactly at the fixed point x_m = m + 1/(m + 1)
    (3/2, 7/3, 13/4, ...), whose coordinates are pairwise distinct and not
    integers.  The pivot columns S of that rational matrix span its column
    space, so the principal block M_SS is nonsingular at the point: its
    Pfaffian is a nonzero polynomial and rank >= |S|.  The Schur complement
    of M_SS is skew with entries +-Pf(M_{S+i+j}) / Pf(M_SS), so the rank is
    |S| exactly when every bordered Pfaffian Pf(M_{S+i+j}), i < j outside S,
    is the zero polynomial (Kronecker's bordered-minor theorem).  A nonzero
    one grows S by {i, j} and the test repeats, so a point where M happens
    to lose rank costs time, never a wrong answer.

    M is read as the integer numerators of ``p``, i.e. ``p.den`` times M,
    and its value at the point as the integer matrix of
    ``_scaled_point_values``, a further positive multiple.  A positive
    scalar changes no pivot column and no Pfaffian's vanishing, so S, the
    Pfaffians' zero tests and the rank are those of M itself, and the
    Pfaffians stay integer polynomials: each upper entry is the stored
    group ``{packed: numerator}`` of its index pair, a 2-row block is its
    entry, and ``_pfaffian`` expands a larger one into such a dict of
    integer totals through the product loop ``_add_products``, with the
    degree-field check at each level and no field built on the way.
    """
    _operands("generic_rank", (p, PolyVectorField))
    for ell in p.vector_degrees():
        if ell != 2:
            raise ParityError(f"generic rank is defined for bi-vectors, got degree {ell}")
    upper = p.nums
    support = sorted({i for ij in upper for i in ij})
    # sparse integer rows whose columns are the partial indices themselves,
    # so the pivot columns are the indices of S
    at_point = {i: {} for i in support}
    for (i, j), value in _scaled_point_values(p).items():
        at_point[i][j] = value
        at_point[j][i] = -value
    chosen = linalg.pivot_columns(at_point.values())
    memo = {}
    while True:
        rest = [i for i in support if i not in chosen]
        for i, j in combinations(rest, 2):
            if _pfaffian(tuple(sorted(chosen + [i, j])), upper, memo):
                chosen += [i, j]
                break
        else:
            return len(chosen)


def _scaled_point_values(p):
    """Upper entries ``{(i, j): int}`` of the integer numerators of the
    bi-vector ``p`` at x_m = a_m / b_m, a_m = m(m + 1) + 1 and b_m = m + 1,
    times prod_m b_m^top_m, where top_m is the largest exponent of x_m in
    ``p``.  A term c x^e then contributes the integer
    c prod_m a_m^e_m b_m^(top_m - e_m), read from one table per variable
    that holds the exponents of x_m that occur.  A table of every exponent
    up to top_m instead costs time quadratic in top_m: four terms of degree
    16,384 took 5.7 s that way.

    Each distinct monomial is unpacked and evaluated once.  Reading each
    e_m off the packed key with a shift instead costs O(n) per variable and
    term, quadratic in n: a 99-term bi-vector at n = 10,000 took 4 s that
    way."""
    n = p.dim
    monomials = {packed: _unpack(n, packed)
                 for packed in {packed for group in p.nums.values() for packed in group}}
    tables = []
    for m, column in enumerate(zip(*monomials.values())):
        t = max(column)
        if t:
            a, b = (m + 1) * (m + 2) + 1, m + 2
            tables.append((m, {e: a ** e * b ** (t - e) for e in set(column)}))
    for packed, exp in monomials.items():
        value = 1
        for m, table in tables:
            value *= table[exp[m]]
        monomials[packed] = value
    return {ij: sum(c * monomials[packed] for packed, c in group.items())
            for ij, group in p.nums.items()}


def _pfaffian(rows, upper, memo):
    """Pfaffian of the principal block on the sorted index tuple ``rows``,
    of even length, as the integer polynomial ``{packed: nonzero total}``,
    given the entries above the diagonal as such dicts in ``upper``.

    A 2-row block is its entry, returned as it is.  A larger one expands
    along the first row: each entry times the Pfaffian of its minor adds,
    with its sign, straight into one totals dict through
    ``_add_products``, the keys adding with one ``+``.  Every key of the
    totals, a cancelled one too, then goes through ``_check_degrees``,
    which ``_normalised`` runs on nonzero totals only: a product of two
    nonzero polynomials keeps its top-degree term, so this raises
    ``DegreeLimitError`` exactly when a product of the expansion reaches
    ``_DEGREE_TOP``, and every stored key, like every entry key, stays
    below it, so the sum of two never carries between fields.  The nonzero
    totals are memoised in ``memo`` by index tuple."""
    if len(rows) == 2:
        return upper.get(rows, {})
    found = memo.get(rows)
    if found is not None:
        return found
    first = rows[0]
    totals = {}
    for t in range(1, len(rows)):
        entry = upper.get((first, rows[t]))
        if entry is None:
            continue
        minor = _pfaffian(rows[1:t] + rows[t + 1:], upper, memo)
        _add_products(totals, entry.items(), minor.items(), t % 2 == 0)
    _check_degrees(totals)
    found = memo[rows] = {key: c for key, c in totals.items() if c}
    return found


def is_jacobi(pair):
    """[L, E] = 0 and [L, L] = 2 E /\\ L, checked exactly."""
    _operands("is_jacobi", (pair, JacobiPair))
    lam, e = pair.lam, pair.e_field
    if not schouten(lam, e).is_zero():
        return False
    return schouten(lam, lam) == wedge(e, lam).scale(2)


def _homogeneous_degree(pair):
    """Degrees (k, 2l) of a homogeneous pair, inferred from either member."""
    lam, e = pair.lam, pair.e_field
    if not lam.is_zero():
        deg = lam.bidegree()
        if not e.is_zero():
            edeg = e.bidegree()
            if (edeg.k, edeg.ell) != (deg.k - 1, deg.ell - 1):
                raise PreconditionError(
                    "pair is not homogeneous of a single degree")
        return deg.k, deg.ell
    if not e.is_zero():
        deg = e.bidegree()
        return deg.k + 1, deg.ell + 1
    return None


def poisson_from_jacobi(pair):
    """Poisson structure associated to a homogeneous Jacobi pair, k != 2l:

        P0 = L0,   DP = DL + (n + k - 2l)/(2l - k) E0.
    """
    _operands("poisson_from_jacobi", (pair, JacobiPair))
    if not is_jacobi(pair):
        raise PreconditionError("input pair is not a Jacobi structure")
    degree = _homogeneous_degree(pair)
    if degree is None:
        return PolyVectorField.zero(pair.lam.dim)
    k, two_ell = degree
    if k == two_ell:
        raise ExceptionalDegreeError(
            f"degree k = 2l = {k} is the exceptional combination")
    n = pair.lam.dim
    lam_parts = decompose(pair.lam)
    e0 = decompose(pair.e_field).tracefree
    trace = lam_parts.trace + e0.scale(Fraction(n + k - two_ell, two_ell - k))
    pi = lam_parts.tracefree
    if not trace.is_zero():
        pi = pi + wedge(trace, euler(n, k, two_ell))
    return pi


def jacobi_from_poisson(p, f0, xi):
    """Jacobi pair from a Poisson structure and a splitting DP = F0 + E~0.

    Requires trace-free F0, xi of bidegree (k-2, 2l-2) and the compatibility
    xi /\\ P0 = [P0, F0] + F0 /\\ E~0; returns

        L = P0 + F0 /\\ e^(k,2l),
        E = (2l - k)/(n + k - 2l) (E~0 + xi /\\ e^(k,2l)).
    """
    _operands("jacobi_from_poisson", (p, PolyVectorField), (f0, PolyVectorField),
              (xi, PolyVectorField))
    if not is_poisson(p):
        raise PreconditionError("input is not a Poisson structure")
    if p.is_zero():
        raise PreconditionError("zero structure has no degree to split")
    k, two_ell = p.bidegree()
    if k == two_ell:
        raise ExceptionalDegreeError(
            f"degree k = 2l = {k} is the exceptional combination")
    n = p.dim
    if not trace_d(f0).is_zero():
        raise PreconditionError("the split part F0 must be trace-free")
    if not f0.is_zero():
        fdeg = f0.bidegree()
        if (fdeg.k, fdeg.ell) != (k - 1, two_ell - 1):
            raise PreconditionError("F0 must have bidegree (k-1, 2l-1)")
    if not xi.is_zero():
        xdeg = xi.bidegree()
        if (xdeg.k, xdeg.ell) != (k - 2, two_ell - 2):
            raise PreconditionError("xi must have bidegree (k-2, 2l-2)")
    parts = decompose(p)
    p0, dp = parts.tracefree, parts.trace
    e_tilde = dp - f0
    lhs = wedge(xi, p0)
    rhs = schouten(p0, f0) + wedge(f0, e_tilde)
    if lhs != rhs:
        raise IncompatibleSplittingError(
            "xi /\\ P0 != [P0, F0] + F0 /\\ E~0 for the supplied splitting")
    e_kl = euler(n, k, two_ell)
    lam = p0 if f0.is_zero() else p0 + wedge(f0, e_kl)
    scale = Fraction(two_ell - k, n + k - two_ell)
    e_field = e_tilde + (wedge(xi, e_kl) if not xi.is_zero() else PolyVectorField.zero(n))
    return JacobiPair(lam, e_field.scale(scale))


def exceptional_pair_check(p, pair, eta):
    """Checker for the k = 2l case: associated pairs need E0 = 0,
    DL = DP + eta and [eta, L0] = -DE /\\ L0 for the supplied eta."""
    _operands("exceptional_pair_check", (p, PolyVectorField), (pair, JacobiPair),
              (eta, PolyVectorField))
    lam_parts = decompose(pair.lam)
    e_parts = decompose(pair.e_field)
    if not e_parts.tracefree.is_zero():
        return False
    if lam_parts.trace != trace_d(p) + eta:
        return False
    lhs = schouten(eta, lam_parts.tracefree)
    rhs = -wedge(e_parts.trace, lam_parts.tracefree)
    return lhs == rhs


def are_associated(p, pair):
    """Association between a Poisson structure and a Jacobi pair:

        P0 = L0  and  E0 = (k - 2l)/(n + k - 2l) (DL - DP).
    """
    _operands("are_associated", (p, PolyVectorField), (pair, JacobiPair))
    lam = pair.lam
    if not p.is_zero() and not lam.is_zero() and p.bidegree() != lam.bidegree():
        raise DimensionError("structures must share the bidegree (k, 2l)")
    deg = p.bidegree() if not p.is_zero() else lam.bidegree()
    k, two_ell = deg
    p_parts = decompose(p)
    lam_parts = decompose(lam)
    if p_parts.tracefree != lam_parts.tracefree:
        return False
    e0 = decompose(pair.e_field).tracefree
    diff = lam_parts.trace - p_parts.trace
    if diff.is_zero():
        return e0.is_zero()
    n = p.dim
    return e0 == diff.scale(Fraction(k - two_ell, n + k - two_ell))


def r_matrix_to_bivector(r):
    """Quadratic bi-vector image of an element of Lambda^2(gl_n):
    E_ij /\\ E_kl -> x_i x_k d_j /\\ d_l."""
    _operands("r_matrix_to_bivector", (r, RMatrix))
    n = r.dim
    raw = {}
    for ((i, j), (k, l)), c in r.coefficients.items():
        # _canonical sorts (j, l) with its sign and drops j == l
        group = raw.setdefault((j, l), {})
        key = _variable_key(n, i - 1) + _variable_key(n, k - 1)
        group[key] = group.get(key, 0) + c
    return PolyVectorField._wrap(n, *_canonical(raw))
