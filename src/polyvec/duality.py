"""Volume duality between poly-vector fields and differential forms.

The orientation is fixed once and for all as the standard volume form
dx^1 /\\ ... /\\ dx^n, so an l-vector ``x^a d_J`` maps to the (n-l)-form
``sgn(J, J^c) x^a dx^{J^c}``.  The trace operator is implemented directly by
index contraction; conjugating the exterior derivative through the duality
gives the same operator and is kept around as the cross-check route.
"""

import math
from dataclasses import dataclass

from .errors import DimensionError, DomainError
from .fields import (
    PolyVectorField,
    _SparseTerms,
    _accumulate,
    _sort_with_sign,
    merge_indices,
)


@dataclass(frozen=True)
class VolumeConvention:
    """Marker for the fixed orientation dx^1 /\\ ... /\\ dx^n."""

    dim: int

    def epsilon(self, indices):
        """Totally antisymmetric symbol with epsilon_{1..n} = +1."""
        if len(indices) != self.dim:
            raise DimensionError(f"need {self.dim} indices, got {len(indices)}")
        sign, _ = _sort_with_sign(tuple(indices))
        return sign


class PolyDifferentialForm(_SparseTerms):
    """Differential form with polynomial coefficients, stored like a field:
    (exponent tuple, strictly increasing covariant index tuple) -> Fraction.
    """

    __slots__ = ()

    _index_kind = "covariant"
    _index_token = "dx"
    _overlong_raises = True

    def form_degrees(self):
        return {len(idx) for _, idx in self.terms}


def wedge_forms(a, b):
    """Wedge product of forms, through the same kernel as ``fields.wedge``."""
    return a._wedge(b)


def _complement(idx, n):
    """Complement of a sorted index tuple in 1..n with the shuffle sign of
    the concatenation (idx, complement)."""
    present = set(idx)
    comp = tuple(j for j in range(1, n + 1) if j not in present)
    return merge_indices(idx, comp)[0], comp


def to_form(u):
    """Duality against the volume form: an l-vector becomes an (n-l)-form via
    Psi(U)(W) = Psi(U /\\ W).  Linear and invertible."""
    terms = {}
    for (exp, idx), c in u.terms.items():
        sign, comp = _complement(idx, u.dim)
        terms[(exp, comp)] = c if sign > 0 else -c
    return PolyDifferentialForm._from_canonical(u.dim, terms)


def from_form(omega):
    """Inverse of :func:`to_form`: a covariant tuple K goes back to its
    complement J with the sign of (J, K), which differs from that of (K, J)
    by (-1)^(|J| |K|)."""
    terms = {}
    for (exp, idx), c in omega.terms.items():
        sign, comp = _complement(idx, omega.dim)
        if len(idx) * len(comp) % 2:
            sign = -sign
        terms[(exp, comp)] = c if sign > 0 else -c
    return PolyVectorField._from_canonical(omega.dim, terms)


def exterior_derivative(omega):
    """Standard exterior derivative; raises the form degree by one and
    squares to zero."""
    terms = {}
    for (exp, idx), c in omega.terms.items():
        for m in range(omega.dim):
            e = exp[m]
            if not e:
                continue
            merged = merge_indices((m + 1,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            new_exp = exp[:m] + (e - 1,) + exp[m + 1:]
            _accumulate(terms, (new_exp, new_idx), sign * e * c)
    return PolyDifferentialForm._from_canonical(omega.dim, terms)


def interior_product(x, omega):
    """Contraction of a polynomial vector field into a form."""
    if x.dim != omega.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {omega.dim}")
    components = {}
    for (exp, idx), c in x.terms.items():
        if len(idx) != 1:
            raise DimensionError("interior product needs a vector field")
        components.setdefault(idx[0], {})[exp] = c
    terms = {}
    for (exp, idx), c in omega.terms.items():
        for t, j in enumerate(idx):
            comp = components.get(j)
            if not comp:
                continue
            sign = -1 if t % 2 else 1
            new_idx = idx[:t] + idx[t + 1:]
            for xexp, xc in comp.items():
                new_exp = tuple(a + b for a, b in zip(exp, xexp))
                p = c * xc
                _accumulate(terms, (new_exp, new_idx), p if sign > 0 else -p)
    return PolyDifferentialForm._from_canonical(omega.dim, terms)


def lie_derivative_form(x, omega):
    """Cartan formula L_X = d i_X + i_X d."""
    return exterior_derivative(interior_product(x, omega)) + interior_product(
        x, exterior_derivative(omega))


def trace_d(u):
    """The degree (-1, -1) trace operator.

    Implemented as the direct contraction of one partial slot against one
    coordinate derivative; equals conjugating the exterior derivative through
    the volume duality, and restricts to the matrix trace on linear vector
    fields.  Squares to zero.
    """
    terms = {}
    for (exp, idx), c in u.terms.items():
        ell = len(idx)
        for t, j in enumerate(idx):
            e = exp[j - 1]
            if not e:
                continue
            sign = -1 if (ell - 1 - t) % 2 else 1
            new_exp = exp[:j - 1] + (e - 1,) + exp[j:]
            new_idx = idx[:t] + idx[t + 1:]
            _accumulate(terms, (new_exp, new_idx), sign * e * c)
    return PolyVectorField._from_canonical(u.dim, terms)


def dim_irrep(n, k, ell):
    """Dimension of the trace-free block of P^(k,l):

        (n + k)! / ((n + k - l) k! l! (n - l - 1)!)

    Defined for 0 <= l <= n - 1 and k >= 0; for k = l it agrees with
    (1/(k!)^2) prod_{j=1..k} (n^2 - j^2).
    """
    if n < 1 or k < 0 or ell < 0:
        raise DomainError(f"negative arguments: n={n}, k={k}, l={ell}")
    if ell >= n:
        raise DomainError(f"l = {ell} >= n = {n} is outside the formula's domain")
    # (n + k)! / (k! l! (n - l - 1)!) = C(n + k, k) * n * C(n - 1, l), which
    # stays the size of the answer instead of the size of (n + k)!
    dim, rem = divmod(math.comb(n + k, k) * n * math.comb(n - 1, ell), n + k - ell)
    if rem:
        raise DomainError("dimension formula did not divide exactly")
    return dim
