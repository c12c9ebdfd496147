"""The graded identity suite: the exact identities the library's results
rest on, written once for ``polyvec selftest`` and the test suite.

The paper's closed formulas for the trace-free part and the trace of a
bracket live here as ``closed_form_parts`` and ``closed_form_self_parts``,
checked against the decomposition of the bracket.

Each check takes homogeneous fields and returns the names of the identities
that fail on them, so an empty list means every identity holds.  Nothing
here asserts: a check gives the same answer under ``python -O``.

Signs use the shifted degree |u| = l - 1 of an l-vector field, with
sgn(e) = (-1)^e.
"""

import random
from fractions import Fraction
from itertools import chain, combinations

from .errors import DegenerateNormalizerError
from .fields import PolyVectorField, pushforward, radial_field, schouten, wedge
from .duality import dim_irrep, exterior_derivative, from_form, to_form, trace_d
from .decomposition import bracket_parts, decompose, self_bracket_parts
from .classifier import monomial_exponents


def sgn(e):
    """(-1)^e."""
    return 1 if e % 2 == 0 else -1


def random_field(rng, n, k, ell, nterms=2):
    """``nterms`` seeded draws of a k-homogeneous l-vector term on R^n with a
    small rational coefficient; repeated keys add up, so the field can be
    zero."""
    exps = monomial_exponents(n, k)
    idxs = list(combinations(range(1, n + 1), ell))
    terms = {}
    for _ in range(nterms):
        key = (rng.choice(exps), rng.choice(idxs))
        terms[key] = terms.get(key, Fraction(0)) + Fraction(
            rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 1, 2, 3]))
    return PolyVectorField(n, terms)


def random_nonzero(rng, n, k, ell, nterms=2):
    """``random_field`` drawn again until it is nonzero."""
    while True:
        f = random_field(rng, n, k, ell, nterms)
        if not f.is_zero():
            return f


def random_fields(rng, count):
    """``count`` nonzero fields on R^n, n in 2..4, of degree 0..3 and one
    vector degree."""
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        yield random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))


def random_triples(rng, count):
    """``count`` triples of nonzero fields on a common R^n, each of degree
    0..3 and one vector degree."""
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        yield [random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n)) for _ in range(3)]


def random_pairs(rng, count):
    """``count`` pairs of nonzero homogeneous fields on a common R^n with
    n + k - l != 0 each, the domain of ``bracket_parts``."""
    drawn = 0
    while drawn < count:
        n = rng.choice([2, 3, 4])
        k1, l1 = rng.randint(0, 3), rng.randint(0, n)
        k2, l2 = rng.randint(0, 3), rng.randint(0, n)
        if n + k1 - l1 == 0 or n + k2 - l2 == 0:
            continue
        drawn += 1
        yield random_nonzero(rng, n, k1, l1), random_nonzero(rng, n, k2, l2)


def random_even_fields(rng, count):
    """``count`` nonzero homogeneous fields of even vector degree with
    n + k - l != 0, the domain of ``self_bracket_parts``."""
    drawn = 0
    while drawn < count:
        n = rng.choice([2, 3, 4])
        k = rng.randint(0, 3)
        ell = rng.choice(range(0, n + 1, 2))
        if n + k - ell == 0:
            continue
        drawn += 1
        yield random_nonzero(rng, n, k, ell)


def _failed(checks):
    return [name for name, holds in checks if not holds]


def _shifted_degree(f):
    return next(iter(f.vector_degrees())) - 1


def triple_failures(uf, vf, wf):
    """The bracket, wedge and trace identities on three nonzero fields, each
    of a single vector degree."""
    u, v, w = (_shifted_degree(f) for f in (uf, vf, wf))
    lv = v + 1
    uv, vw, wu = schouten(uf, vf), schouten(vf, wf), schouten(wf, uf)
    u_v, v_w = wedge(uf, vf), wedge(vf, wf)
    du, dv = trace_d(uf), trace_d(vf)
    du_u = schouten(du, uf)
    return _failed([
        ("graded Jacobi identity",
         (schouten(uf, vw).scale(sgn(u * w)) + schouten(wf, uv).scale(sgn(v * w))
          + schouten(vf, wu).scale(sgn(u * v))).is_zero()),
        ("graded Leibniz rule",
         (schouten(uf, v_w) - wedge(uv, wf)
          - wedge(vf, schouten(uf, wf)).scale(sgn(u * lv))).is_zero()),
        ("graded antisymmetry", uv == schouten(vf, uf).scale(-sgn(u * v))),
        ("graded commutativity", u_v == wedge(vf, uf).scale(sgn((u + 1) * lv))),
        ("wedge associativity", wedge(u_v, wf) == wedge(uf, v_w)),
        ("trace compatibility D(u/\\v)",
         (trace_d(u_v) - wedge(du, vf).scale(sgn(lv)) - wedge(uf, dv)
          - uv.scale(sgn(lv))).is_zero()),
        ("trace compatibility D[u, v]",
         trace_d(uv) == schouten(uf, dv) - schouten(du, vf).scale(sgn(lv))),
        ("[Du, u] = -[u, Du]", du_u == -schouten(uf, du)),
        ("Du/\\u = u/\\Du", wedge(du, uf) == wedge(uf, du)),
        ("Poisson implies [Du, u] = 0",
         u % 2 == 0 or not schouten(uf, uf).is_zero() or du_u.is_zero()),
    ])


def field_failures(u):
    """D^2 = 0, d^2 = 0 on the dual form, and the trace differential against
    its definition through volume duality, D = Psi^-1 d Psi."""
    d_omega = exterior_derivative(to_form(u))
    du = trace_d(u)
    return _failed([
        ("D^2 = 0", trace_d(du).is_zero()),
        ("d^2 = 0", exterior_derivative(d_omega).is_zero()),
        ("D = Psi^-1 d Psi", du == from_form(d_omega)),
    ])


def pushforward_failures(l_matrix, uf, vf):
    """The transport laws of ``pushforward`` along an invertible L, for any
    two fields on R^n: D(L_*U) = det(L) L_*(DU),
    L_*[U, V] = [L_*U, L_*V] and L_*(U /\\ V) = det(L) (L_*U /\\ L_*V)."""
    det = l_matrix.det()
    lu, lv = pushforward(l_matrix, uf), pushforward(l_matrix, vf)
    return _failed([
        ("D(L_*U) = det(L) L_*(DU)",
         trace_d(lu) == pushforward(l_matrix, trace_d(uf)).scale(det)),
        ("L_*[U, V] = [L_*U, L_*V]",
         pushforward(l_matrix, schouten(uf, vf)) == schouten(lu, lv)),
        ("L_*(U /\\ V) = det(L) (L_*U /\\ L_*V)",
         pushforward(l_matrix, wedge(uf, vf)) == wedge(lu, lv).scale(det)),
    ])


def _euler_term(scalar, field, n, k2, ell2):
    """scalar * (field /\\ e^(k2,l2)), building the radial factor lazily so
    vanishing terms never hit a degenerate normalizer."""
    if not scalar or field.is_zero():
        return PolyVectorField.zero(n)
    if n + k2 - ell2 == 0:
        raise DegenerateNormalizerError(
            f"nonzero term requires e^({k2},{ell2}) in dimension {n}")
    return wedge(field, radial_field(n).scale(Fraction(scalar, n + k2 - ell2)))


def closed_form_parts(a, b):
    """Trace-free part and trace of [A, B] from the paper's closed formulas,
    for homogeneous A and B with n + k - l != 0 each.

    For A in P^(k,l), B in P^(k',l') with D = k - l, D' = k' - l' and
    e'' = e^(k+k', l+l'):

        [A,B]_0 = [A0,B0] + D'/(n+D) DA/\\B0 + (-1)^l' D/(n+D') A0/\\DB
                  + D/(n+D') [A0,DB]/\\e'' - (-1)^l' D'/(n+D) [DA,B0]/\\e''

        D[A,B] = [A0,DB] - (-1)^l' [DA,B0]
                 - (n+D'')(D-D')/((n+D)(n+D')) (DA/\\DB + (-1)^l' [DA,DB]/\\e'')

    The e''-term coefficients D/(n+D') and D'/(n+D) are forced by expanding
    [A,B] - D[A,B] /\\ e''.
    """
    n = a.dim
    a0, _, da = parts_a = decompose(a)
    b0, _, db = parts_b = decompose(b)
    (ka, la), (kb, lb) = parts_a.bidegree, parts_b.bidegree
    d1, d2 = ka - la, kb - lb
    k2, ell2 = ka + kb, la + lb
    sgn = -1 if lb % 2 else 1
    c_ab, c_ba = Fraction(d2, n + d1), Fraction(d1, n + d2)
    bracket_a0_db = schouten(a0, db)
    bracket_da_b0 = schouten(da, b0)
    tracefree = schouten(a0, b0)
    tracefree += wedge(da, b0).scale(c_ab)
    tracefree += wedge(a0, db).scale(sgn * c_ba)
    tracefree += _euler_term(c_ba, bracket_a0_db, n, k2, ell2)
    tracefree += _euler_term(-sgn * c_ab, bracket_da_b0, n, k2, ell2)
    trace = bracket_a0_db - bracket_da_b0 if sgn > 0 else bracket_a0_db + bracket_da_b0
    c_mix = Fraction((n + d1 + d2) * (d1 - d2), (n + d1) * (n + d2))
    trace -= wedge(da, db).scale(c_mix)
    trace -= _euler_term(c_mix * sgn, schouten(da, db), n, k2, ell2)
    return tracefree, trace


def closed_form_self_parts(a):
    """[A, A] from the paper's closed formulas, for homogeneous A of even
    vector degree with n + k - l != 0:

        [A,A]_0 = [A0,A0] + 2(k-l)/(n+k-l) (DA/\\A0 - [DA,A0]/\\e^(2k,2l))
        D[A,A]  = -2 [DA, A0]
    """
    n = a.dim
    a0, _, da = parts = decompose(a)
    k, ell = parts.bidegree
    c = Fraction(2 * (k - ell), n + k - ell)
    bracket_da_a0 = schouten(da, a0)
    tracefree = schouten(a0, a0)
    tracefree += wedge(da, a0).scale(c)
    tracefree += _euler_term(-c, bracket_da_a0, n, 2 * k, 2 * ell)
    trace = bracket_da_a0.scale(-2)
    return tracefree, trace


def pair_failures(a, b):
    """The closed formulas for [a, b] against ``bracket_parts``, the
    decomposition of the bracket, for homogeneous a and b with n + k - l != 0
    each."""
    return _failed([
        ("closed formulas = decompose(schouten)", closed_form_parts(a, b) == bracket_parts(a, b)),
    ])


def self_bracket_failures(a):
    """The closed formulas for [a, a] against ``self_bracket_parts``, the
    decomposition of the bracket, and against the closed formulas for a
    pair, for homogeneous a of even vector degree with n + k - l != 0."""
    parts = closed_form_self_parts(a)
    return _failed([
        ("closed self-bracket formulas = decompose(schouten)", parts == self_bracket_parts(a)),
        ("closed self-bracket formulas = closed formulas", parts == closed_form_parts(a, a)),
    ])


def selftest():
    """Condensed seeded run of the whole suite: 60 triples with the field
    checks on their first member, 25 bracket pairs, 10 self-brackets, and two
    values of the dimension formula.

    Returns the names of the identities that fail on the first draw where
    any fails, or an empty list when every identity holds.
    """
    rng = random.Random(20240214)
    draws = chain(
        (triple_failures(*fields) + field_failures(fields[0])
         for fields in random_triples(rng, 60)),
        (pair_failures(a, b) for a, b in random_pairs(rng, 25)),
        (self_bracket_failures(a) for a in random_even_fields(rng, 10)),
        [_failed([("dimension formula",
                   dim_irrep(3, 2, 1) == 15 and dim_irrep(3, 2, 2) == 10)])])
    return next((failed for failed in draws if failed), [])
