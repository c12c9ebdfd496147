"""Volume duality between poly-vector fields and differential forms.

The orientation is fixed once and for all as the standard volume form
dx^1 /\\ ... /\\ dx^n, so an l-vector ``x^a d_J`` maps to the (n-l)-form
``sgn(J, J^c) x^a dx^{J^c}``.  The trace operator is implemented directly by
index contraction; conjugating the exterior derivative through the duality
gives the same operator and is kept around as the cross-check route.
"""

import math

from .errors import DimensionError, DomainError
from .fields import (
    _MASK,
    PolyVectorField,
    _add_products,
    _derivative_buckets,
    _operands,
    _shift,
    _SparseTerms,
    _Value,
    _sort_with_sign,
    merge_indices,
)


class VolumeConvention(_Value):
    """Marker for the fixed orientation dx^1 /\\ ... /\\ dx^n."""

    __slots__ = _fields = ("dim",)

    def epsilon(self, indices):
        """Totally antisymmetric symbol with epsilon_{1..n} = +1."""
        if len(indices) != self.dim:
            raise DimensionError(f"need {self.dim} indices, got {len(indices)}")
        sign, _ = _sort_with_sign(tuple(indices))
        return sign


class PolyDifferentialForm(_SparseTerms):
    """Differential form with polynomial coefficients, stored like a field:
    strictly increasing covariant index tuple -> (packed exponents ->
    integer numerator) over one denominator.
    """

    __slots__ = ()

    _index_kind = "covariant"
    _index_token = "dx"
    _overlong_raises = True

    def form_degrees(self):
        return set(map(len, self.nums))


def wedge_forms(a, b):
    """Wedge product of forms, through the same kernel as ``fields.wedge``."""
    _operands("wedge_forms", (a, PolyDifferentialForm), (b, PolyDifferentialForm))
    return a._wedge(b)


def _complement(idx, n):
    """Complement of a sorted index tuple in 1..n with the shuffle sign of
    the concatenation (idx, complement)."""
    present = set(idx)
    comp = tuple(j for j in range(1, n + 1) if j not in present)
    return merge_indices(idx, comp)[0], comp


def to_form(u):
    """Duality against the volume form: an l-vector becomes an (n-l)-form via
    Psi(U)(W) = Psi(U /\\ W).  Linear and invertible.  The complement is
    taken once per index group."""
    _operands("to_form", (u, PolyVectorField))
    nums = {}
    for idx, group in u.nums.items():
        sign, comp = _complement(idx, u.dim)
        nums[comp] = dict(group) if sign > 0 else {p: -c for p, c in group.items()}
    return PolyDifferentialForm._wrap(u.dim, nums, u.den)


def from_form(omega):
    """Inverse of :func:`to_form`: a covariant tuple K goes back to its
    complement J with the sign of (J, K), which differs from that of (K, J)
    by (-1)^(|J| |K|)."""
    _operands("from_form", (omega, PolyDifferentialForm))
    nums = {}
    for idx, group in omega.nums.items():
        sign, comp = _complement(idx, omega.dim)
        if len(idx) * len(comp) % 2:
            sign = -sign
        nums[comp] = dict(group) if sign > 0 else {p: -c for p, c in group.items()}
    return PolyVectorField._wrap(omega.dim, nums, omega.den)


def exterior_derivative(omega):
    """Standard exterior derivative; raises the form degree by one and
    squares to zero.  It reads the derivatives d/dx_j of the terms from
    ``_derivative_buckets``, so dx_j merges once per variable and index
    tuple."""
    _operands("exterior_derivative", (omega, PolyDifferentialForm))
    totals = {}
    for j, bucket in _derivative_buckets(omega.dim, omega.nums).items():
        for idx, derivatives in bucket.items():
            merged = merge_indices((j,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            sums = totals.setdefault(new_idx, {})
            for packed, c in derivatives:
                sums[packed] = sums.get(packed, 0) + sign * c
    return PolyDifferentialForm._reduced(omega.dim, totals, omega.den)


def interior_product(x, omega):
    """Contraction of a polynomial vector field into a form: the slot dx_j
    at position t of an index tuple meets the d_j component of ``x`` with
    the sign (-1)^t, once per index tuple and slot."""
    _operands("interior_product", (x, PolyVectorField), (omega, PolyDifferentialForm))
    if any(len(idx) != 1 for idx in x.nums):
        raise DimensionError("interior product needs a vector field")
    grouped = {}
    for idx, terms in omega.nums.items():
        for t, j in enumerate(idx):
            comp = x.nums.get((j,))
            if comp is None:
                continue
            sums = grouped.setdefault(idx[:t] + idx[t + 1:], {})
            _add_products(sums, terms.items(), comp.items(), t % 2)
    return PolyDifferentialForm._reduced(omega.dim, grouped, x.den * omega.den)


def lie_derivative_form(x, omega):
    """Cartan formula L_X = d i_X + i_X d."""
    _operands("lie_derivative_form", (x, PolyVectorField), (omega, PolyDifferentialForm))
    return exterior_derivative(interior_product(x, omega)) + interior_product(
        x, exterior_derivative(omega))


def trace_d(u):
    """The degree (-1, -1) trace operator.

    Implemented as the direct contraction of one partial slot against one
    coordinate derivative; equals conjugating the exterior derivative through
    the volume duality, and restricts to the matrix trace on linear vector
    fields.  Squares to zero.  It accumulates the integer numerators over
    ``u``'s denominator.
    """
    _operands("trace_d", (u, PolyVectorField))
    dim = u.dim
    totals = {}
    for idx, group in u.nums.items():
        ell = len(idx)
        for t, j in enumerate(idx):
            shift = _shift(dim, j - 1)
            sign = -1 if (ell - 1 - t) % 2 else 1
            sums = totals.setdefault(idx[:t] + idx[t + 1:], {})
            for packed, c in group.items():
                e = packed >> shift & _MASK
                if e:
                    key = packed - (1 << shift) - 1
                    sums[key] = sums.get(key, 0) + sign * e * c
    return PolyVectorField._reduced(dim, totals, u.den)


def dim_irrep(n, k, ell):
    """Dimension of the trace-free block of P^(k,l):

        (n + k)! / ((n + k - l) k! l! (n - l - 1)!)

    Defined for 0 <= l <= n - 1 and k >= 0; for k = l it agrees with
    (1/(k!)^2) prod_{j=1..k} (n^2 - j^2).
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got n={n}")
    if k < 0 or ell < 0:
        raise DomainError(f"k and l must be >= 0, got k={k}, l={ell}")
    if ell >= n:
        raise DomainError(f"l = {ell} >= n = {n} is outside the formula's domain")
    # (n + k)! / (k! l! (n - l - 1)!) = C(n + k, k) * n * C(n - 1, l), which
    # stays the size of the answer instead of the size of (n + k)!
    dim, rem = divmod(math.comb(n + k, k) * n * math.comb(n - 1, ell), n + k - ell)
    if rem:
        raise DomainError("dimension formula did not divide exactly")
    return dim
