"""Trace decomposition of homogeneous poly-vector fields.

Every (k, l)-homogeneous field splits uniquely as

    A = A0 + DA /\\ e^(k,l),      D(A0) = 0,

and the Schouten bracket of two decomposed fields has closed-form trace-free
and trace parts.  The closed forms are implemented directly from their
defining expressions; delegating to ``schouten`` + ``decompose`` is the
independent oracle the tests compare against.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateNormalizerError, ParityError
from .fields import BiDegree, PolyVectorField, euler, radial_field, schouten, wedge
from .duality import trace_d


@dataclass(frozen=True)
class DecompositionResult:
    """Parts of A = tracefree + trace /\\ e^(k,l); trace_part is the wedge."""

    tracefree: PolyVectorField
    trace_part: PolyVectorField
    trace: PolyVectorField
    bidegree: BiDegree

    def __iter__(self):
        return iter((self.tracefree, self.trace_part, self.trace))


def decompose(a):
    """Unique trace decomposition of a homogeneous field.

    When DA = 0 the answer is (A, 0, 0) without touching e^(k,l), which also
    covers the degenerate normalizer at (k, l) = (0, n).
    """
    deg = a.bidegree()
    n = a.dim
    da = trace_d(a)
    zero = PolyVectorField.zero(n)
    if da.is_zero():
        return DecompositionResult(a, zero, zero, deg)
    trace_part = wedge(da, euler(n, deg.k, deg.ell))
    return DecompositionResult(a - trace_part, trace_part, da, deg)


def _wedge_scaled(scalar, u, v):
    """scalar * (u /\\ v), scaling the operand with fewer terms."""
    if not scalar or u.is_zero() or v.is_zero():
        return PolyVectorField.zero(u.dim)
    if len(u.terms) <= len(v.terms):
        return wedge(u.scale(scalar), v)
    return wedge(u, v.scale(scalar))


def _euler_term(scalar, field, n, k2, ell2):
    """scalar * (field /\\ e^(k2,l2)), building the radial factor lazily so
    vanishing terms never hit a degenerate normalizer.  The scalar and the
    normalizer 1/(n + k2 - l2) go into one scale of the n-term radial field,
    so the product is never scaled again."""
    if not scalar or field.is_zero():
        return PolyVectorField.zero(n)
    if n + k2 - ell2 == 0:
        raise DegenerateNormalizerError(
            f"nonzero term requires e^({k2},{ell2}) in dimension {n}")
    return wedge(field, radial_field(n).scale(Fraction(scalar, n + k2 - ell2)))


def bracket_parts(a, b):
    """Trace-free part and trace of [A, B] from the closed formulas.

    For A in P^(k,l), B in P^(k',l') with D = k - l, D' = k' - l' and
    e'' = e^(k+k', l+l'):

        [A,B]_0 = [A0,B0] + D'/(n+D) DA/\\B0 + (-1)^l' D/(n+D') A0/\\DB
                  + D/(n+D') [A0,DB]/\\e'' - (-1)^l' D'/(n+D) [DA,B0]/\\e''

        D[A,B] = [A0,DB] - (-1)^l' [DA,B0]
                 - (n+D'')(D-D')/((n+D)(n+D')) (DA/\\DB + (-1)^l' [DA,DB]/\\e'')

    The e''-term coefficients D/(n+D') and D'/(n+D) are forced by expanding
    [A,B] - D[A,B] /\\ e''; they make the result agree exactly with the
    direct route (bracket, then decompose), which is the test oracle.
    """
    a._check_dim(b)
    n = a.dim
    zero = PolyVectorField.zero(n)
    if a.is_zero() or b.is_zero():
        return zero, zero
    ka, la = a.bidegree()
    kb, lb = b.bidegree()
    d1 = ka - la
    d2 = kb - lb
    if n + d1 == 0 or n + d2 == 0:
        raise DegenerateNormalizerError(
            "bracket decomposition needs n + k - l != 0 for both operands")
    k2, ell2 = ka + kb, la + lb
    sgn = -1 if lb % 2 else 1

    a0, _, da = decompose(a)
    b0, _, db = decompose(b)

    c_ab = Fraction(d2, n + d1)
    c_ba = Fraction(d1, n + d2)

    bracket_a0_db = schouten(a0, db)
    bracket_da_b0 = schouten(da, b0)
    tracefree = schouten(a0, b0)
    tracefree += _wedge_scaled(c_ab, da, b0)
    tracefree += _wedge_scaled(sgn * c_ba, a0, db)
    tracefree += _euler_term(c_ba, bracket_a0_db, n, k2, ell2)
    tracefree += _euler_term(-sgn * c_ab, bracket_da_b0, n, k2, ell2)

    trace = bracket_a0_db - bracket_da_b0 if sgn > 0 else bracket_a0_db + bracket_da_b0
    d12 = d1 + d2
    c_mix = Fraction((n + d12) * (d1 - d2), (n + d1) * (n + d2))
    trace -= _wedge_scaled(c_mix, da, db)
    trace -= _euler_term(c_mix * sgn, schouten(da, db), n, k2, ell2)
    return tracefree, trace


def self_bracket_parts(a):
    """[A, A] in decomposed form for even vector degree:

        [A,A]_0 = [A0,A0] + 2(k-l)/(n+k-l) (DA/\\A0 - [DA,A0]/\\e^(2k,2l))
        D[A,A]  = -2 [DA, A0]
    """
    n = a.dim
    zero = PolyVectorField.zero(n)
    if a.is_zero():
        return zero, zero
    k, ell = a.bidegree()
    if ell % 2:
        raise ParityError(f"self-bracket decomposition needs even vector degree, got {ell}")
    if n + k - ell == 0:
        raise DegenerateNormalizerError("self-bracket decomposition needs n + k - l != 0")
    a0, _, da = decompose(a)
    c = Fraction(2 * (k - ell), n + k - ell)
    bracket_da_a0 = schouten(da, a0)
    tracefree = schouten(a0, a0)
    tracefree += _wedge_scaled(c, da, a0)
    tracefree += _euler_term(-c, bracket_da_a0, n, 2 * k, 2 * ell)
    trace = bracket_da_a0.scale(-2)
    return tracefree, trace
