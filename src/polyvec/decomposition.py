"""Trace decomposition of homogeneous poly-vector fields.

Every (k, l)-homogeneous field splits uniquely as

    A = A0 + DA /\\ e^(k,l),      D(A0) = 0,

and the trace-free part and the trace of a Schouten bracket are those of
the bracket's own decomposition.  The paper's closed formulas for the two
parts are identities checked in ``invariants``.
"""

from .errors import DegenerateNormalizerError, ParityError
from .fields import PolyVectorField, _operands, _Value, euler, schouten, wedge
from .duality import trace_d


class DecompositionResult(_Value):
    """Parts of A = tracefree + trace /\\ e^(k,l); trace_part is the wedge."""

    __slots__ = _fields = ("tracefree", "trace_part", "trace", "bidegree")

    def __iter__(self):
        return iter((self.tracefree, self.trace_part, self.trace))


def decompose(a):
    """Unique trace decomposition of a homogeneous field.

    When DA = 0 the answer is (A, 0, 0) without touching e^(k,l), which also
    covers the degenerate normalizer at (k, l) = (0, n).
    """
    _operands("decompose", (a, PolyVectorField))
    deg = a.bidegree()
    n = a.dim
    da = trace_d(a)
    zero = PolyVectorField.zero(n)
    if da.is_zero():
        return DecompositionResult(a, zero, zero, deg)
    trace_part = wedge(da, euler(n, deg.k, deg.ell))
    return DecompositionResult(a - trace_part, trace_part, da, deg)


def bracket_parts(a, b):
    """Trace-free part and trace of [A, B] for homogeneous A and B with
    n + k - l != 0 each; a zero operand gives (0, 0)."""
    _operands("bracket_parts", (a, PolyVectorField), (b, PolyVectorField))
    n = a.dim
    zero = PolyVectorField.zero(n)
    if a.is_zero() or b.is_zero():
        return zero, zero
    (ka, la), (kb, lb) = a.bidegree(), b.bidegree()
    if n + ka - la == 0 or n + kb - lb == 0:
        raise DegenerateNormalizerError(
            "bracket decomposition needs n + k - l != 0 for both operands")
    parts = decompose(schouten(a, b))
    return parts.tracefree, parts.trace


def self_bracket_parts(a):
    """Trace-free part and trace of [A, A] for homogeneous A of even vector
    degree with n + k - l != 0; the zero field gives (0, 0)."""
    _operands("self_bracket_parts", (a, PolyVectorField))
    n = a.dim
    zero = PolyVectorField.zero(n)
    if a.is_zero():
        return zero, zero
    k, ell = a.bidegree()
    if ell % 2:
        raise ParityError(f"self-bracket decomposition needs even vector degree, got {ell}")
    if n + k - ell == 0:
        raise DegenerateNormalizerError("self-bracket decomposition needs n + k - l != 0")
    parts = decompose(schouten(a, a))
    return parts.tracefree, parts.trace
