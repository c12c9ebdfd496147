"""Sparse exact polynomial poly-vector fields on R^n.

A field is a finitely supported mapping

    (exponent tuple of length n, strictly increasing partial-index tuple)
        -> nonzero rational coefficient

so each basis element ``x^a d_{j1}/\\.../\\d_{jl}`` with ``j1 < ... < jl``
appears at most once.  It is stored as one positive denominator ``den`` and
a map ``nums`` of nonzero integer numerators, normalised so that ``den`` and
the numerators have no common factor (``den`` is 1 for zero): equal values
store equal integers.  ``terms`` is the same mapping with canonical
``Fraction`` values, built afresh on each read.  Coefficients are exact
rationals throughout; there is no floating-point mode.  The same mapping with
covariant indices is a differential form (``duality.PolyDifferentialForm``)
and with no indices a polynomial, so all three share one sparse core,
``_SparseTerms``.

The module provides the wedge product, the Schouten bracket (the unique
bi-derivation extension of the Lie bracket of vector fields), the scaled
radial fields and the action of linear diffeomorphisms.  The constructor
and each kernel accumulate integer numerators and divide out the common
factor of the result once, through ``_normalised``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, index

from .errors import (
    DegenerateNormalizerError,
    DimensionError,
    HomogeneityError,
    SingularMatrixError,
)
from . import linalg


def _frac(x):
    """``x`` as an exact rational; an ``int`` (not a ``bool``) or a
    ``Fraction`` is returned as it is."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def merge_indices(a, b):
    """Wedge-merge two strictly increasing index tuples.

    Returns ``(sign, merged)`` where ``sign`` is the parity of the shuffle
    sorting the concatenation, or ``None`` when the tuples intersect.
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    i, j = 0, 0
    sign = 1
    out = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


@dataclass(frozen=True)
class BiDegree:
    """Polynomial degree k and multivector degree ell of a homogeneous field."""

    k: int
    ell: int

    @property
    def delta(self):
        return self.k - self.ell

    def __iter__(self):
        return iter((self.k, self.ell))


def _unit(n, m):
    """Exponent tuple of the coordinate x_(m+1) in n variables."""
    return tuple(1 if t == m else 0 for t in range(n))


def _normalised(totals, den):
    """``(nums, den)`` for integer ``totals`` over ``den`` > 0: zero totals
    drop out and the factor common to the denominator and all numerators is
    divided out.  The result is the unique stored form of the value."""
    nums = {key: t for key, t in totals.items() if t}
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: t // g for key, t in nums.items()}
    return nums, den


class _SparseTerms:
    """A finitely supported map (exponents, strictly increasing indices) ->
    nonzero rational on R^dim, stored as integer numerators ``nums`` over one
    positive denominator ``den`` that shares no factor with all of them.

    This is the one place where the representation is decided: validation
    and canonicalisation, normalisation, arithmetic, equality and the wedge
    kernel all live here, and subclasses only name their index slots.
    Values are immutable after construction and all operations return new
    values.  The zero value keeps its dimension tag so dimension mismatches
    stay detectable.
    """

    __slots__ = ("dim", "den", "nums")

    # Name of an index slot in error messages and its prefix in ``repr``.
    _index_kind = "partial"
    _index_token = "d"
    # More indices than ``dim``: an error (True) or, since such a term
    # must repeat an index, a term that drops out (False).
    _overlong_raises = False

    def __init__(self, dim, terms=None):
        """Take any map of raw keys to exact rationals: indices sort with
        their permutation sign, a repeated index drops the term, and terms
        with equal keys add.  The numerators are summed over the lcm of the
        coefficient denominators and normalised."""
        dim = index(dim)
        if dim < 1:
            raise DimensionError(f"ambient dimension must be >= 1, got {dim}")
        signed = []
        for (exp, idx), coeff in (terms or {}).items():
            # the key is checked even when the coefficient is zero
            exp = tuple(map(index, exp))
            if len(exp) != dim or any(e < 0 for e in exp):
                raise DimensionError(f"bad exponent tuple {exp} for dimension {dim}")
            idx = tuple(map(index, idx))
            if (any(j < 1 or j > dim for j in idx)
                    or (self._overlong_raises and len(idx) > dim)):
                raise DimensionError(f"{self._index_kind} index out of range in {idx}")
            coeff = _frac(coeff)
            if not coeff:
                continue
            sign, idx = _sort_with_sign(idx)
            if sign:
                signed.append(((exp, idx), sign, coeff))
        den = math.lcm(*(c.denominator for _, _, c in signed))
        totals = {}
        for key, sign, c in signed:
            totals[key] = totals.get(key, 0) + sign * c.numerator * (den // c.denominator)
        _store(self, dim, *_normalised(totals, den))

    @classmethod
    def _wrap(cls, dim, nums, den):
        """Wrap nonzero integer numerators over ``den`` > 0 that are already
        normalised; the dict is taken over, not copied."""
        out = object.__new__(cls)
        _store(out, dim, nums, den)
        return out

    @classmethod
    def _reduced(cls, dim, totals, den):
        """The value of integer ``totals`` over ``den`` > 0, normalised."""
        return cls._wrap(dim, *_normalised(totals, den))

    @property
    def terms(self):
        """The canonical ``(exponents, indices) -> Fraction`` mapping, built
        afresh on each read: changing it changes no value."""
        den = self.den
        return {key: Fraction(c, den) for key, c in self.nums.items()}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combined(self, other, sign):
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_dim(other)
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        totals = dict(self.nums) if fa == 1 else {k: c * fa for k, c in self.nums.items()}
        for key, c in other.nums.items():
            totals[key] = totals.get(key, 0) + c * fb
        return self._reduced(self.dim, totals, den)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return self._wrap(self.dim, {k: -c for k, c in self.nums.items()}, self.den)

    def scale(self, c):
        c = _frac(c)
        p = c.numerator
        return self._reduced(self.dim, {k: v * p for k, v in self.nums.items()} if p else {},
                             self.den * c.denominator)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (type(other) is type(self) and self.dim == other.dim
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(self.nums.items())))

    def is_zero(self):
        return not self.nums

    def _wedge(self, other):
        """The one wedge kernel, for fields, forms and 0-vector polynomials
        alike: exponents add, index tuples shuffle-merge with their sign and
        a shared index kills the pair.  The result has the type of ``self``.

        It works on the integer numerators: ``merge_indices`` runs once per
        pair of index tuples (memoised for the call), exponents add with
        ``map(add, ...)``, and the totals over the product of the two
        denominators are normalised once at the end.
        """
        self._check_dim(other)
        totals, merges = {}, {}
        vs = other.nums.items()
        for (ea, ia), ca in self.nums.items():
            row = merges.get(ia)
            if row is None:
                row = merges[ia] = {}
            for (eb, ib), cb in vs:
                merged = row.get(ib, False)
                if merged is False:
                    merged = row[ib] = merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                key = (tuple(map(add, ea, eb)), idx)
                value = ca * cb
                totals[key] = totals.get(key, 0) + (value if sign > 0 else -value)
        return self._reduced(self.dim, totals, self.den * other.den)

    def __repr__(self):
        name = type(self).__name__
        if not self.nums:
            return f"{name}(dim={self.dim}, 0)"
        bits = []
        for (exp, idx), c in sorted(self.terms.items()):
            mono = "*".join(f"x{m + 1}^{e}" for m, e in enumerate(exp) if e)
            part = "/\\".join(f"{self._index_token}{j}" for j in idx)
            bits.append("*".join(s for s in (str(c), mono, part) if s))
        return f"{name}(dim={self.dim}, {' + '.join(bits)})"


def _store(obj, dim, nums, den):
    """Set the three slots of a new ``_SparseTerms``, past ``__setattr__``."""
    object.__setattr__(obj, "dim", dim)
    object.__setattr__(obj, "den", den)
    object.__setattr__(obj, "nums", nums)


class PolyVectorField(_SparseTerms):
    """A polynomial poly-vector field with exact rational coefficients."""

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, dim):
        return cls(dim, {((0,) * dim, ()): _frac(value)})

    @classmethod
    def single(cls, dim, coeff, exponents, indices):
        return cls(dim, {(tuple(exponents), tuple(indices)): _frac(coeff)})

    # -- grading -----------------------------------------------------------

    def bidegrees(self):
        return {BiDegree(k, ell)
                for k, ell in {(sum(exp), len(idx)) for exp, idx in self.nums}}

    def is_homogeneous(self):
        return len(self.bidegrees()) <= 1

    def bidegree(self):
        """The bidegree of a homogeneous field (zero counts as (0, 0))."""
        degs = self.bidegrees()
        if len(degs) > 1:
            raise HomogeneityError(f"field mixes bidegrees {sorted((d.k, d.ell) for d in degs)}")
        return next(iter(degs)) if degs else BiDegree(0, 0)

    def vector_degrees(self):
        return {len(idx) for exp, idx in self.nums}

    def max_poly_degree(self):
        return max((sum(exp) for exp, idx in self.nums), default=0)

    def wedge(self, other):
        return wedge(self, other)

    def bracket(self, other):
        return schouten(self, other)


def _sort_with_sign(idx):
    """Insertion-sort an index tuple, tracking the permutation sign.

    Returns ``(0, ())`` when an index repeats.
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and lst[j - 1] == lst[j]:
            return 0, ()
    return sign, tuple(lst)


def wedge(u, v):
    """Wedge product; adds bidegrees and is graded-commutative in the
    natural degree: ``u /\\ v = (-1)^(l l') v /\\ u``."""
    return u._wedge(v)


def _derivative_buckets(dim, terms):
    """Bucket integer terms ``((exponents, indices), numerator)`` by the
    variables their monomials contain.

    ``buckets[m]`` lists d/dx_(m+1) of every term whose exponent of x_(m+1)
    is positive, as ``(exponent with e_m - 1, indices, e_m * numerator)``;
    a partial slot d_j of the other operand reaches exactly ``buckets[j - 1]``.
    """
    buckets = [[] for _ in range(dim)]
    for (exp, idx), c in terms:
        for m, e in enumerate(exp):
            if e:
                buckets[m].append((exp[:m] + (e - 1,) + exp[m + 1:], idx, e * c))
    return buckets


def _slot_derivatives(totals, merges, terms, buckets, twist):
    """Accumulate into ``totals`` the half of the Schouten bracket in which
    the partial slots of ``terms`` differentiate the coefficients bucketed in
    ``buckets``: each slot d_j at position t of an index tuple of length p
    contributes (-1)^(p-1-t) * (slot-free indices) /\\ (the other indices).

    With ``twist`` each contribution is multiplied by -(-1)^((p-1)(q-1)),
    p and q the two vector degrees: the sign that turns the half with the
    roles swapped into the second half of ``[u, v]``.  ``merges`` memoises
    ``merge_indices`` by its two arguments for the whole bracket.
    """
    for (ea, ia), ca in terms:
        p = len(ia)
        for t, j in enumerate(ia):
            bucket = buckets[j - 1]
            if not bucket:
                continue
            rest = ia[:t] + ia[t + 1:]
            row = merges.get(rest)
            if row is None:
                row = merges[rest] = {}
            c = ca if (p - 1 - t) % 2 == 0 else -ca
            # the coefficient for an other-operand index tuple of even / odd length
            by_parity = ((c, -c) if p % 2 == 0 else (-c, -c)) if twist else (c, c)
            for eb, ib, cb in bucket:
                merged = row.get(ib, False)
                if merged is False:
                    merged = row[ib] = merge_indices(rest, ib)
                if merged is None:
                    continue
                sign, idx = merged
                key = (tuple(map(add, ea, eb)), idx)
                value = by_parity[len(ib) % 2] * cb
                totals[key] = totals.get(key, 0) + (value if sign > 0 else -value)


def schouten(u, v):
    """Schouten bracket of two poly-vector fields.

    On vector fields this is the Lie bracket and ``[X, f] = X(f)`` for a
    function f; in general it is the bi-derivation extension, graded
    antisymmetric for the shifted degrees and mapping bidegrees
    ``(k, l) x (k', l') -> (k + k' - 1, l + l' - 1)``.

    The kernel works on the integer numerators: only the term pairs where a
    partial slot meets a variable of the other coefficient are visited, and
    the totals over the product of the two denominators are normalised once
    at the end.
    """
    u._check_dim(v)
    us, vs = u.nums.items(), v.nums.items()
    totals, merges = {}, {}
    _slot_derivatives(totals, merges, us, _derivative_buckets(u.dim, vs), False)
    _slot_derivatives(totals, merges, vs, _derivative_buckets(u.dim, us), True)
    return PolyVectorField._reduced(u.dim, totals, u.den * v.den)


def radial_field(n):
    """The radial vector field e0 = x^m d_m."""
    return PolyVectorField._wrap(n, {(_unit(n, m), (m + 1,)): 1 for m in range(n)}, 1)


def euler(n, k, ell):
    """The scaled radial field e^(k,l) = e0 / (n + k - l), bidegree (1, 1)."""
    norm = n + k - ell
    if norm == 0:
        raise DegenerateNormalizerError(
            f"e^({k},{ell}) undefined in dimension {n}: n + k - l = 0")
    return radial_field(n).scale(Fraction(1, norm))


def homogeneous_components(u):
    """Split a field into its (k, l)-homogeneous pieces.

    Returns a mapping BiDegree -> field whose values sum back to ``u``; the
    zero field yields the empty mapping.
    """
    buckets = {}
    for (exp, idx), c in u.nums.items():
        buckets.setdefault((sum(exp), len(idx)), {})[(exp, idx)] = c
    return {BiDegree(*deg): PolyVectorField._reduced(u.dim, nums, u.den)
            for deg, nums in buckets.items()}


class LinearMatrix:
    """A square matrix of exact rationals (linear fields, diffeomorphisms)."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries):
        rows = [tuple(_frac(x) for x in row) for row in entries]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionError("matrix must be square and non-empty")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "entries", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("LinearMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls(linalg.identity(n))

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, LinearMatrix)
                and self.dim == other.dim and self.entries == other.entries)

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.dim)), Fraction(0))

    def det(self):
        return linalg.determinant([list(r) for r in self.entries])

    def transpose(self):
        return LinearMatrix([[self.entries[j][i] for j in range(self.dim)]
                             for i in range(self.dim)])

    def inverse(self):
        inv = linalg.inverse([list(r) for r in self.entries])
        if inv is None:
            raise SingularMatrixError("matrix is singular")
        return LinearMatrix(inv)

    def matmul(self, other):
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return LinearMatrix(linalg.mat_mul(
            [list(r) for r in self.entries], [list(r) for r in other.entries]))

    def __repr__(self):
        return f"LinearMatrix({[[str(x) for x in row] for row in self.entries]})"


def linear_vector_field(matrix):
    """The linear vector field with coefficient of d_i equal to row i dot x,
    i.e. M -> M[i][j] x_j d_i."""
    n = matrix.dim
    return PolyVectorField(n, {(_unit(n, j), (i + 1,)): c
                               for i, row in enumerate(matrix.entries)
                               for j, c in enumerate(row) if c})


def _integer_rows(entries):
    """Rational matrix rows as ``(integer rows, d)`` with entries * d, d the
    lcm of the entry denominators."""
    d = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


def _memoised_product(key, memo, factor_of, times):
    """The product for ``key`` in ``memo``, built one factor at a time from
    its longest product already there: ``factor_of(key)`` gives
    ``(shorter key, factor)`` and ``times(product, factor)`` multiplies.
    Every product on the way is kept, so shared factors expand once."""
    chain = []
    while key not in memo:
        shorter, factor = factor_of(key)
        chain.append((key, factor))
        key = shorter
    product = memo[key]
    for key, factor in reversed(chain):
        product = memo[key] = times(product, factor)
    return product


def pushforward(l_matrix, u):
    """Action of the invertible linear map L on a poly-vector field.

    Coordinates substitute as x_m -> sum_t L[m][t] x_t and partials as
    d_j -> sum_i (L^-1)[i][j] d_i, so linear vector fields conjugate as
    A -> L^-1 A L and the radial field is fixed.  Each l-vector component
    additionally carries the weight det(L)^(l-1); with that weight the trace
    operator satisfies D(L_* A) = det(L) * L_*(D A) exactly, matching the
    transport law used by the decomposition and the catalog equivariance.
    The wedge then picks up one determinant factor:
    L_*(U /\\ V) = det(L) * (L_*U /\\ L_*V), while the Schouten bracket is
    preserved verbatim.

    L and L^-1 go over their common denominators once.  Each distinct
    exponent tuple's product of coordinate images and each distinct partial
    tuple's wedge of partial images expands once in integers, memoised for
    the call, and each term adds the integer outer product of the two.
    """
    if l_matrix.dim != u.dim:
        raise DimensionError(f"dimension mismatch: {l_matrix.dim} vs {u.dim}")
    n = u.dim
    det = l_matrix.det()
    if not det:
        raise SingularMatrixError("pushforward along a singular matrix")
    rows, d_rows = _integer_rows(l_matrix.entries)
    inv, d_inv = _integer_rows(l_matrix.inverse().entries)
    # d_rows * x_m and d_inv * d_j as sparse integer linear combinations
    coordinates = [[(t, v) for t, v in enumerate(row) if v] for row in rows]
    partials = [[(i + 1, inv[i][j]) for i in range(n) if inv[i][j]] for j in range(n)]

    def last_coordinate(exp):
        m = max(m for m, e in enumerate(exp) if e)
        return exp[:m] + (exp[m] - 1,) + exp[m + 1:], coordinates[m]

    def times_coordinate(poly, factor):
        out = {}
        for mono, c in poly.items():
            for t, v in factor:
                key = mono[:t] + (mono[t] + 1,) + mono[t + 1:]
                out[key] = out.get(key, 0) + c * v
        return {key: c for key, c in out.items() if c}

    def last_partial(idx):
        return idx[:-1], partials[idx[-1] - 1]

    def times_partial(vector, factor):
        out = {}
        for idx, c in vector.items():
            for i, v in factor:
                merged = merge_indices(idx, (i,))
                if merged is not None:
                    key = merged[1]
                    out[key] = out.get(key, 0) + (c * v if merged[0] > 0 else -c * v)
        return {key: c for key, c in out.items() if c}

    origin = (0,) * n
    monomials, wedges = {origin: {origin: 1}}, {(): {(): 1}}
    # each (k, l) component carries det^(l-1) / (d_rows^k d_inv^l), put
    # over the common denominator ``common`` of all components present
    weights = {deg: det ** (deg[1] - 1) / (d_rows ** deg[0] * d_inv ** deg[1])
               for deg in {(sum(exp), len(idx)) for exp, idx in u.nums}}
    common = math.lcm(*(w.denominator for w in weights.values()))
    weights = {deg: w.numerator * (common // w.denominator) for deg, w in weights.items()}
    totals = {}
    for (exp, idx), c in u.nums.items():
        poly = _memoised_product(exp, monomials, last_coordinate, times_coordinate)
        vector = _memoised_product(idx, wedges, last_partial, times_partial)
        c *= weights[sum(exp), len(idx)]
        for mono, pc in poly.items():
            pc *= c
            for ind, vc in vector.items():
                key = (mono, ind)
                totals[key] = totals.get(key, 0) + pc * vc
    return PolyVectorField._reduced(n, totals, u.den * common)


def _skew_slot(dim, lower, upper):
    """Locate the skew-convention component A_{lower}^{upper}.

    Returns ``(sign, term key, prod of the exponent factorials)``, or
    ``None`` when ``upper`` repeats an index.  An index outside 1..dim
    raises ``DimensionError``.
    """
    if any(not 1 <= i <= dim for i in lower):
        raise DimensionError(f"coordinate index out of range in {tuple(lower)}")
    if any(not 1 <= j <= dim for j in upper):
        raise DimensionError(f"partial index out of range in {tuple(upper)}")
    sign, idx = _sort_with_sign(tuple(upper))
    if sign == 0:
        return None
    exp = [0] * dim
    for i in lower:
        exp[i - 1] += 1
    fact = 1
    for e in exp:
        fact *= math.factorial(e)
    return sign, (tuple(exp), idx), fact


def skew_component(u, lower, upper):
    """Component A_{lower}^{upper} in the fully skew/symmetric convention
    A = (1/k!l!) A_{i1..ik}^{j1..jl} x^{i1}..x^{ik} d_{j1}/\\../\\d_{jl}.

    ``lower`` is a multiset of coordinate indices (1-based), ``upper`` a tuple
    of distinct partial indices in any order.
    """
    slot = _skew_slot(u.dim, lower, upper)
    if slot is None:
        return Fraction(0)
    sign, key, fact = slot
    coeff = u.nums.get(key)
    return Fraction(0) if coeff is None else Fraction(sign * fact * coeff, u.den)


def from_skew_components(dim, components):
    """Build a field from skew-convention components A_{lower}^{upper}."""
    terms = {}
    for (lower, upper), value in components.items():
        slot = _skew_slot(dim, lower, upper)
        if slot is None:
            continue
        sign, key, fact = slot
        terms[key] = terms.get(key, 0) + Fraction(sign * value, fact)
    return PolyVectorField(dim, terms)
