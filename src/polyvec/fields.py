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

``nums`` maps each index tuple to its nonempty group ``{packed: numerator}``:
the exponent tuple is packed into one ``int`` of n + 1 fields of ``_W`` = 16
bits (the packed exponent vectors of Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  x_1 sits in the most significant field and x_n in the one above the
least significant, which holds the total degree, so integer order is tuple
order and the degree is ``packed & _MASK``.
Every stored key has total degree below ``_DEGREE_TOP`` = 2^15: the sum of
two keys is the key of the product of their monomials with no carry between
fields, and d/dx_m subtracts the key of x_m.  A degree past the bound raises
``DegreeLimitError``: the constructor checks each key, and ``_normalised``
checks the degree field of each key of a result through ``_check_degrees``.
Packed keys have one writer for each input shape: ``_pack`` for an exponent
tuple and ``_variable_key`` for one coordinate; ``_unpack`` is the one way
back to a tuple.  Every builder that starts from keys and rationals ends in
``_canonical``.

The module provides the wedge product, the Schouten bracket (the unique
bi-derivation extension of the Lie bracket of vector fields), the scaled
radial fields and the action of linear diffeomorphisms.  The constructor
and each kernel accumulate integer numerators and divide out the common
factor of the result once, through ``_normalised``; the catalog kernels
read the raw totals of ``_bracket_with`` and normalise no image.
``_add_products`` is the one loop that multiplies packed terms, and
``_derivative_buckets`` the one source of the terms that a product
differentiates.
"""

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import index, lt
from struct import pack, unpack

from .errors import (
    DegenerateNormalizerError,
    DegreeLimitError,
    DimensionError,
    HomogeneityError,
    SingularMatrixError,
)
from . import linalg
from .linalg import _frac


# Bits per field of a packed key.  ``_pack`` and ``_unpack`` write the
# fields with the struct codes of this width: ``H`` for an exponent and ``h``
# for the degree, whose range [0, 2^15) is the degree bound.
_W = 16
_MASK = (1 << _W) - 1
_DEGREE_TOP = 1 << (_W - 1)


def _pack(dim, exponents):
    """The packed key of an exponent tuple of length ``dim``.

    A non-integer exponent raises ``TypeError``, a wrong length or a
    negative exponent ``DimensionError``, and a total degree of
    ``_DEGREE_TOP`` or more ``DegreeLimitError``.  The exponents are read
    through ``operator.index`` once, before anything else sees them."""
    exponents = tuple(map(index, exponents))
    if len(exponents) != dim or any(e < 0 for e in exponents):
        raise DimensionError(f"bad exponent tuple {exponents} for dimension {dim}")
    degree = sum(exponents)
    if degree >= _DEGREE_TOP:
        raise DegreeLimitError(f"term degree exceeds the limit of {_DEGREE_TOP - 1}")
    return int.from_bytes(pack(f">{dim}Hh", *exponents, degree), "big")


def _unpack(dim, packed):
    """The exponent tuple of a packed key in ``dim`` variables."""
    return unpack(f">{dim}H2x", packed.to_bytes(2 * dim + 2, "big"))


def _shift(dim, m):
    """Bit offset of the field of x_(m+1) in a packed key in ``dim``
    variables: ``key >> s & _MASK`` is its exponent."""
    return _W * (dim - m)


def _variable_key(dim, m):
    """The packed key of the coordinate x_(m+1) in ``dim`` variables: a 1 in
    its field, at ``_shift(dim, m)``, and a 1 in the degree field."""
    return (1 << _W * (dim - m)) + 1


def _lowest_field(fields):
    """Bit offset of the lowest nonzero field of ``fields`` > 0.  For a key
    shifted right by ``_W``, past its degree, that is the field of the last
    variable present, at offset ``_W`` less than in the key."""
    return ((fields & -fields).bit_length() - 1) // _W * _W


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


class _Value:
    """Base of the immutable values.  A subclass names its fields once, in
    constructor order, as ``__slots__ = _fields = (...)``, or names
    ``_fields`` apart when it stores other slots, each field still readable
    as an attribute.  A value is built from its fields by position or
    keyword, refuses assignment and deletion, equals a value of the same type
    with equal fields, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``; copy, deep copy and pickle rebuild it through
    its constructor.  A constructor that checks its arguments sets the slots
    through ``_Value.__init__``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = zip(self._fields, self._values())
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __reduce__(self):
        return type(self), self._values()


class BiDegree(_Value):
    """Polynomial degree k and multivector degree ell of a homogeneous field, both >= 0."""

    __slots__ = _fields = ("k", "ell")

    def __init__(self, k, ell):
        _Value.__init__(self, _integer("BiDegree", k, 0, "degree k"),
                        _integer("BiDegree", ell, 0, "degree ell"))

    @property
    def delta(self):
        return self.k - self.ell

    def __iter__(self):
        return iter((self.k, self.ell))


def _check_degrees(keys):
    """Raise ``DegreeLimitError`` for the first packed key of ``keys``
    whose degree field reached ``_DEGREE_TOP``.  Each is the sum of two
    stored keys, whose degrees are below ``_DEGREE_TOP``, so no field
    carried on the way."""
    for packed in keys:
        if packed & _DEGREE_TOP:
            raise DegreeLimitError(
                f"a result has a term of degree {packed & _MASK}, past the limit of "
                f"{_DEGREE_TOP - 1}")


def _ambient_dim(name, dim):
    """``dim`` read through ``_integer`` in its caller's name: an int >= 1."""
    return _integer(name, dim, 1, "ambient dimension")


def _operands(name, *operands):
    """Raise ``TypeError`` unless each ``(value, kind)`` in ``operands`` has
    a value of its kind, then, for two or more, ``DimensionError`` unless
    the values share one ``dim``.  A single value need not have a ``dim``."""
    for value, kind in operands:
        if not isinstance(value, kind):
            raise TypeError(f"{name} takes {kind.__name__}, not {type(value).__name__}")
    if len(operands) > 1:
        dim = operands[0][0].dim
        for value, _ in operands[1:]:
            if value.dim != dim:
                raise DimensionError(f"dimension mismatch: {dim} vs {value.dim}")


def _integer(name, value, least=None, label=None):
    """``value`` read through ``operator.index`` once, or ``TypeError`` in
    the words of ``_operands``; a value below ``least``, when given, raises
    ``DimensionError`` naming it by ``label``."""
    try:
        value = index(value)
    except TypeError:
        raise TypeError(f"{name} takes int, not {type(value).__name__}") from None
    if least is not None and value < least:
        raise DimensionError(f"{label} must be >= {least}, got {value}")
    return value


def _sequence(name, values, kind):
    """``values`` as a tuple of values of ``kind``: ``TypeError`` in the
    words of ``_operands`` for a ``str`` or another value that is not
    iterable, and for an item of another kind."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise TypeError(f"{name} takes an iterable of {kind.__name__}, "
                        f"not {type(values).__name__}")
    values = tuple(values)
    for value in values:
        _operands(name, (value, kind))
    return values


def _add_products(sums, left, right, negate):
    """Add into ``sums`` (``{packed: integer}``) the product of the terms
    ``left`` and ``right``, each an iterable of ``(packed, integer)``:
    packed keys add with one ``+`` and numerators multiply, negated when
    ``negate`` is true.  The caller checks the degree field of the keys."""
    for ea, ca in left:
        if negate:
            ca = -ca
        for eb, cb in right:
            key = ea + eb
            sums[key] = sums.get(key, 0) + ca * cb


def _normalised(grouped, den):
    """``(nums, den)`` for integer totals ``{indices: {packed: total}}`` over
    ``den`` > 0: zero totals and empty groups drop out, the keys that remain
    go through ``_check_degrees``, and the factor common to the denominator
    and all numerators is divided out.  The result is the unique stored form
    of the value."""
    nums = {}
    g = den
    for idx, sums in grouped.items():
        group = {p: t for p, t in sums.items() if t}
        if group:
            _check_degrees(group)
            nums[idx] = group
            if g != 1:
                g = math.gcd(g, *group.values())
    if g != 1:
        den //= g
        nums = {idx: {p: t // g for p, t in group.items()} for idx, group in nums.items()}
    return nums, den


def _canonical(raw):
    """The stored form ``(nums, den)`` of raw terms ``{indices as read:
    {packed: coefficient}}``, each coefficient an ``int`` or a ``Fraction``.
    This is the one canonical step: each index tuple is sorted once with its
    permutation sign, a group whose index repeats drops out, and the groups
    that are left sum over the lcm of the coefficient denominators and are
    normalised.  Every builder that starts from keys and rationals ends
    here."""
    den = math.lcm(*(c.denominator for group in raw.values() for c in group.values()))
    grouped = {}
    for idx, group in raw.items():
        sign, idx = _sort_with_sign(idx)
        if not sign:
            continue
        sums = grouped.get(idx)
        if sums is None:
            sums = grouped[idx] = {}
        for packed, c in group.items():
            sums[packed] = sums.get(packed, 0) + sign * c.numerator * (den // c.denominator)
    return _normalised(grouped, den)


class _SparseTerms(_Value):
    """A finitely supported map (exponents, strictly increasing indices) ->
    nonzero rational on R^dim, stored as integer numerators ``nums``,
    ``{indices: {packed exponents: numerator}}`` with no empty group, over
    one positive denominator ``den`` that shares no factor with all of them.

    This is the one place where the representation is decided: validation
    and canonicalisation, normalisation, arithmetic, equality and the wedge
    kernel all live here, and subclasses only name their index slots.
    Values are immutable after construction and all operations return new
    values.  The zero value keeps its dimension tag so dimension mismatches
    stay detectable.
    """

    __slots__ = ("dim", "den", "nums")
    _fields = ("dim", "terms")

    # Name of an index slot in error messages and its prefix in ``repr``.
    _index_kind = "partial"
    _index_token = "d"
    # More indices than ``dim``: an error (True) or, since such a term
    # must repeat an index, a term that drops out (False).
    _overlong_raises = False

    def __init__(self, dim, terms=None):
        """Take any map of raw keys to exact rationals: each key is checked
        and packed, and the terms are grouped by their indices as given for
        ``_canonical``, which sorts the indices and sums the terms."""
        dim = _ambient_dim(type(self).__name__, dim)
        terms = {} if terms is None else terms
        _operands(type(self).__name__, (terms, Mapping))
        raw = {}
        for (exp, idx), coeff in terms.items():
            # the key is checked even when the coefficient is zero
            packed = _pack(dim, exp)
            idx = tuple(map(index, idx))
            if idx and (min(idx) < 1 or max(idx) > dim
                        or (self._overlong_raises and len(idx) > dim)):
                raise DimensionError(f"{self._index_kind} index out of range in {idx}")
            coeff = _frac(coeff)
            group = raw.setdefault(idx, {})
            group[packed] = group[packed] + coeff if packed in group else coeff
        _store(self, dim, *_canonical(raw))

    @classmethod
    def _wrap(cls, dim, nums, den):
        """Wrap grouped nonzero integer numerators over ``den`` > 0 that are
        already normalised; the dicts are taken over, not copied."""
        out = object.__new__(cls)
        _store(out, dim, nums, den)
        return out

    @classmethod
    def _reduced(cls, dim, totals, den):
        """The value of grouped integer ``totals`` over ``den`` > 0, normalised."""
        return cls._wrap(dim, *_normalised(totals, den))

    @property
    def terms(self):
        """The canonical ``(exponents, indices) -> Fraction`` mapping, built
        afresh on each read: changing it changes no value."""
        dim, den = self.dim, self.den
        return {(_unpack(dim, packed), idx): Fraction(c, den)
                for idx, group in self.nums.items() for packed, c in group.items()}

    @classmethod
    def zero(cls, dim):
        return cls._wrap(_ambient_dim(cls.__name__, dim), {}, 1)

    def _combined(self, other, sign):
        """``self + sign * other`` over the lcm of the two denominators; a
        field and a form never combine."""
        kind = type(self)
        _operands("a sum" if sign > 0 else "a difference", (self, kind), (other, kind))
        da, db = self.den, other.den
        den = da if da == db else math.lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        totals = ({idx: dict(group) for idx, group in self.nums.items()} if fa == 1 else
                  {idx: {p: c * fa for p, c in group.items()} for idx, group in self.nums.items()})
        for idx, group in other.nums.items():
            sums = totals.setdefault(idx, {})
            for p, c in group.items():
                sums[p] = sums.get(p, 0) + c * fb
        return self._reduced(self.dim, totals, den)

    def __add__(self, other):
        return self._combined(other, 1)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __neg__(self):
        return self._wrap(self.dim, {idx: {p: -c for p, c in group.items()}
                                     for idx, group in self.nums.items()}, self.den)

    def scale(self, c):
        c = _frac(c)
        p = c.numerator
        return self._reduced(self.dim, {idx: {k: v * p for k, v in group.items()}
                                        for idx, group in self.nums.items()},
                             self.den * c.denominator)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (type(other) is type(self) and self.dim == other.dim
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.dim, self.den, frozenset(
            (idx, frozenset(group.items())) for idx, group in self.nums.items())))

    def is_zero(self):
        return not self.nums

    def _wedge(self, other):
        """The one wedge kernel, for fields, forms and 0-vector polynomials
        alike: exponents add, index tuples shuffle-merge with their sign and
        a shared index kills the pair.  The result has the type of ``self``.

        It works on the integer numerators of both operands, group by group:
        ``merge_indices`` runs once per pair of index tuples, the
        packed keys of each pair of terms add with one ``+``, and the totals
        over the product of the two denominators are normalised once at the
        end.  The callers check the operands.
        """
        grouped = {}
        for ia, left in self.nums.items():
            for ib, right in other.nums.items():
                merged = merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                sums = grouped.setdefault(idx, {})
                _add_products(sums, left.items(), right.items(), sign < 0)
        return self._reduced(self.dim, grouped, self.den * other.den)

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
                for k, ell in {(packed & _MASK, len(idx))
                               for idx, group in self.nums.items() for packed in group}}

    def is_homogeneous(self):
        return len(self.bidegrees()) <= 1

    def bidegree(self):
        """The bidegree of a homogeneous field (zero counts as (0, 0))."""
        degs = self.bidegrees()
        if len(degs) > 1:
            raise HomogeneityError(f"field mixes bidegrees {sorted((d.k, d.ell) for d in degs)}")
        return next(iter(degs)) if degs else BiDegree(0, 0)

    def vector_degrees(self):
        return set(map(len, self.nums))

    def max_poly_degree(self):
        return max((packed & _MASK for group in self.nums.values() for packed in group), default=0)

    def wedge(self, other):
        return wedge(self, other)

    def bracket(self, other):
        return schouten(self, other)


def _sort_with_sign(idx):
    """Insertion-sort an index tuple, tracking the permutation sign.

    Returns ``(0, ())`` when an index repeats, and a strictly increasing
    tuple at once, as it is, with sign 1.
    """
    if all(map(lt, idx, idx[1:])):
        return 1, idx
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
    _operands("wedge", (u, PolyVectorField), (v, PolyVectorField))
    return u._wedge(v)


def _derivative_buckets(dim, nums):
    """Bucket the integer terms of the stored groups ``nums`` by the
    variables their monomials contain.

    ``buckets[j]`` maps each index tuple to d/dx_j of the terms with those
    indices whose exponent e of x_j is positive, as ``(packed key minus
    that of x_j, e * numerator)``; a partial slot d_j of the other operand
    reaches exactly ``buckets[j]``.  Only the nonzero fields of a key are
    visited, lowest first.
    """
    buckets = {}
    for idx, terms in nums.items():
        for packed, c in terms.items():
            fields = packed >> _W
            while fields:
                shift = _lowest_field(fields)
                e = fields >> shift & _MASK
                fields ^= e << shift
                j = dim - shift // _W
                bucket = buckets.get(j)
                if bucket is None:
                    bucket = buckets[j] = {}
                group = bucket.get(idx)
                if group is None:
                    group = bucket[idx] = []
                group.append((packed - (1 << shift + _W) - 1, e * c))
    return buckets


def _slot_derivatives(grouped, groups, buckets, twist):
    """Accumulate into ``grouped`` (totals ``{indices: {packed: total}}``)
    the half of the Schouten bracket in which the partial slots of the stored
    groups ``groups`` differentiate the coefficients bucketed in ``buckets``:
    each slot d_j at position t of an index tuple of length p contributes
    (-1)^(p-1-t) * (slot-free indices) /\\ (the other indices).

    With ``twist`` each contribution is multiplied by -(-1)^((p-1)(q-1)),
    p and q the two vector degrees: the sign that turns the half with the
    roles swapped into the second half of ``[u, v]``.  The sign and the
    merged indices are resolved once per slot and index tuple of the other
    operand, not once per pair of terms.
    """
    for ia, terms in groups.items():
        p = len(ia)
        for t, j in enumerate(ia):
            bucket = buckets.get(j)
            if bucket is None:
                continue
            rest = ia[:t] + ia[t + 1:]
            for ib, derivatives in bucket.items():
                merged = merge_indices(rest, ib)
                if merged is None:
                    continue
                sign, idx = merged
                if (p - 1 - t) % 2:
                    sign = -sign
                if twist and (p - 1) * (len(ib) - 1) % 2 == 0:
                    sign = -sign
                sums = grouped.setdefault(idx, {})
                _add_products(sums, terms.items(), derivatives, sign < 0)


def _bracket_with(u):
    """The operator that maps the stored groups of a field v to the raw
    integer totals ``{indices: {packed: total}}`` of [u, v] over ``u.den *
    v.den``, zero totals and unchecked degrees included.  ``u``'s derivative
    buckets are built once for all the fields it brackets.  The caller
    checks the operands."""
    u_buckets = _derivative_buckets(u.dim, u.nums)

    def bracket(nums):
        grouped = {}
        _slot_derivatives(grouped, u.nums, _derivative_buckets(u.dim, nums), False)
        _slot_derivatives(grouped, nums, u_buckets, True)
        return grouped
    return bracket


def schouten(u, v):
    """Schouten bracket of two poly-vector fields.

    On vector fields this is the Lie bracket and ``[X, f] = X(f)`` for a
    function f; in general it is the bi-derivation extension, graded
    antisymmetric for the shifted degrees and mapping bidegrees
    ``(k, l) x (k', l') -> (k + k' - 1, l + l' - 1)``.

    The kernel works on the integer numerators: only the term pairs where a
    partial slot meets a variable of the other coefficient are visited, the
    packed keys of each pair add with one ``+``, and the totals over the
    product of the two denominators are normalised once at the end.

    A self-bracket (``v is u``) runs one half: by graded antisymmetry the
    twisted half equals the untwisted one on each pair of index groups of
    even length and cancels it on every other pair, so ``[u, u]`` is twice
    the untwisted half of the even groups of ``u``, and each pair of its
    terms is visited once.
    """
    _operands("the Schouten bracket", (u, PolyVectorField), (v, PolyVectorField))
    if v is not u:
        return PolyVectorField._reduced(u.dim, _bracket_with(u)(v.nums), u.den * v.den)
    even = {idx: terms for idx, terms in u.nums.items() if not len(idx) % 2}
    grouped = {}
    _slot_derivatives(grouped, even, _derivative_buckets(u.dim, even), False)
    return PolyVectorField._reduced(
        u.dim, {idx: {p: 2 * t for p, t in sums.items()} for idx, sums in grouped.items()},
        u.den * u.den)


def radial_field(n):
    """The radial vector field e0 = x^m d_m."""
    n = _ambient_dim("radial_field", n)
    return PolyVectorField._wrap(
        n, {(m + 1,): {_variable_key(n, m): 1} for m in range(n)}, 1)


def euler(n, k, ell):
    """The scaled radial field e^(k,l) = e0 / (n + k - l), bidegree (1, 1)."""
    n, k, ell = (_integer("euler", value) for value in (n, k, ell))
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
    _operands("homogeneous_components", (u, PolyVectorField))
    buckets = {}
    for idx, group in u.nums.items():
        for packed, c in group.items():
            buckets.setdefault((packed & _MASK, len(idx)), {}).setdefault(idx, {})[packed] = c
    return {BiDegree(*deg): PolyVectorField._reduced(u.dim, nums, u.den)
            for deg, nums in buckets.items()}


class LinearMatrix(_Value):
    """A square matrix of exact rationals (linear fields, diffeomorphisms)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries):
        entries = list(entries)
        if any(isinstance(row, str) for row in entries):
            raise TypeError("LinearMatrix takes rows of exact rationals, not str")
        rows = tuple(tuple(_frac(x) for x in row) for row in entries)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise DimensionError("matrix must be square and non-empty")
        _Value.__init__(self, rows)

    @property
    def dim(self):
        return len(self.entries)

    @classmethod
    def identity(cls, n):
        return cls(linalg.identity(n))

    @classmethod
    def diagonal(cls, values):
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

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
        _operands("matmul", (self, LinearMatrix), (other, LinearMatrix))
        return LinearMatrix(linalg.mat_mul(
            [list(r) for r in self.entries], [list(r) for r in other.entries]))

    def __repr__(self):
        return f"LinearMatrix({[[str(x) for x in row] for row in self.entries]})"


def linear_vector_field(matrix):
    """The linear vector field with coefficient of d_i equal to row i dot x,
    i.e. M -> M[i][j] x_j d_i."""
    _operands("linear_vector_field", (matrix, LinearMatrix))
    n = matrix.dim
    return PolyVectorField._wrap(n, *_canonical(
        {(i + 1,): {_variable_key(n, j): c for j, c in enumerate(row) if c}
         for i, row in enumerate(matrix.entries)}))


def _integer_rows(entries):
    """Rational matrix rows as ``(integer rows, d)`` with entries * d, d the
    lcm of the entry denominators."""
    d = math.lcm(*(x.denominator for row in entries for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in entries], d


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

    det(L) and L^-1 are read off one elimination of [L | I], L and L^-1 go
    over their common denominators once, and the work is done once per
    index group.  Each term adds its weighted monomial image into
    the group's one coefficient polynomial; the partial images of the
    group's indices fold into one wedge; and each entry of that wedge adds
    its multiple of the coefficient into the totals.  Monomial images are
    expanded in integers and kept for the call, each built from its longest
    prefix already expanded; multiplying by x_t adds the packed key of x_t.
    """
    _operands("pushforward", (l_matrix, LinearMatrix), (u, PolyVectorField))
    n = u.dim
    inv, det = linalg.inverse_and_determinant(l_matrix.entries)
    if inv is None:
        raise SingularMatrixError("pushforward along a singular matrix")
    rows, d_rows = _integer_rows(l_matrix.entries)
    inv, d_inv = _integer_rows(inv)
    # the key of each x_t, and d_rows * x_m and d_inv * d_j as sparse
    # integer linear combinations
    units = [_variable_key(n, t) for t in range(n)]
    coordinates = [[(units[t], v) for t, v in enumerate(row) if v] for row in rows]
    partials = [[(i + 1, inv[i][j]) for i in range(n) if inv[i][j]] for j in range(n)]
    images = {0: {0: 1}}

    def image(packed):
        """The integer image of the monomial ``packed``, one coordinate
        factor at a time from its longest prefix in ``images``, keeping
        every product on the way."""
        chain = []
        while packed not in images:
            m = n - 1 - _lowest_field(packed >> _W) // _W
            chain.append((packed, coordinates[m]))
            packed -= units[m]
        poly = images[packed]
        for packed, factor in reversed(chain):
            out = {}
            _add_products(out, poly.items(), factor, False)
            poly = images[packed] = {key: c for key, c in out.items() if c}
        return poly

    # each (k, l) component carries det^(l-1) / (d_rows^k d_inv^l), put
    # over the common denominator ``common`` of all components present
    weights = {deg: det ** (deg[1] - 1) / (d_rows ** deg[0] * d_inv ** deg[1])
               for deg in {(packed & _MASK, len(idx))
                           for idx, group in u.nums.items() for packed in group}}
    common = math.lcm(*(w.denominator for w in weights.values()))
    weights = {deg: w.numerator * (common // w.denominator) for deg, w in weights.items()}
    totals = {}
    for idx, group in u.nums.items():
        ell = len(idx)
        coefficient = {}
        for packed, c in group.items():
            _add_products(coefficient, ((0, c * weights[packed & _MASK, ell]),),
                          image(packed).items(), False)
        vector = {(): 1}
        for j in idx:
            folded = {}
            for ind, c in vector.items():
                for i, v in partials[j - 1]:
                    merged = merge_indices(ind, (i,))
                    if merged is not None:
                        sign, key = merged
                        folded[key] = folded.get(key, 0) + sign * c * v
            vector = folded
        for ind, c in vector.items():
            if c:
                _add_products(totals.setdefault(ind, {}), ((0, c),), coefficient.items(), False)
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
    _operands("skew_component", (u, PolyVectorField))
    slot = _skew_slot(u.dim, lower, upper)
    if slot is None:
        return Fraction(0)
    sign, (exp, idx), fact = slot
    coeff = u.nums.get(idx, {}).get(_pack(u.dim, exp))
    return Fraction(0) if coeff is None else Fraction(sign * fact * coeff, u.den)


def from_skew_components(dim, components):
    """Build a field from skew-convention components A_{lower}^{upper}."""
    _operands("from_skew_components", (components, Mapping))
    terms = {}
    for (lower, upper), value in components.items():
        slot = _skew_slot(dim, lower, upper)
        if slot is None:
            continue
        sign, key, fact = slot
        terms[key] = terms.get(key, 0) + Fraction(sign * value, fact)
    return PolyVectorField(dim, terms)
