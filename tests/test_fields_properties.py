"""Properties of the Schouten bracket, the wedge kernel, the bracket
decomposition, the graded identity suite, the duality of the Lie derivative
and the printer, checked with hypothesis.

Every property runs derandomized, so the examples are the same on each run.
"""

from fractions import Fraction
from itertools import combinations, product

from hypothesis import example, given, settings, strategies as st

from polyvec import (
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    format_expr,
    from_form,
    lie_derivative_form,
    linear_vector_field,
    parse_field,
    schouten,
    to_form,
)
from polyvec.invariants import field_failures, pair_failures, sgn, triple_failures
from util import format_expr_fraction, schouten_pairwise, wedge_pairwise

COEFFICIENTS = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.sampled_from([1, 2, 3, 5, 10**12 + 39]),
)


# negative, fractional, unit and constant coefficients for the printer
PRINTED_COEFFICIENTS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(10), Fraction(-1, 2)]),
    COEFFICIENTS)


@st.composite
def fields(draw, n, ell=None, max_terms=6, cls=PolyVectorField, coefficients=COEFFICIENTS):
    """A field (or form) on R^n with terms of polynomial degree 0..3; with
    ``ell`` all terms have that vector degree, otherwise the degrees mix."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        degree = draw(st.integers(0, n)) if ell is None else ell
        idx = draw(st.sampled_from(list(combinations(range(1, n + 1), degree))))
        terms[(exp, idx)] = draw(coefficients)
    return cls(n, terms)


@st.composite
def field_pairs(draw, homogeneous_vectors=False):
    n = draw(st.integers(1, 5))
    if homogeneous_vectors:
        return (draw(fields(n, draw(st.integers(0, n)))),
                draw(fields(n, draw(st.integers(0, n)))))
    return draw(fields(n)), draw(fields(n))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs())
def test_schouten_equals_pairwise_oracle(pair):
    u, v = pair
    assert schouten(u, v) == schouten_pairwise(u, v)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs(homogeneous_vectors=True))
def test_schouten_is_graded_antisymmetric(pair):
    u, v = pair
    shift_u = len(next(iter(u.terms))[1]) - 1 if u.terms else 0
    shift_v = len(next(iter(v.terms))[1]) - 1 if v.terms else 0
    assert schouten(u, v) == schouten(v, u).scale(-sgn(shift_u * shift_v))


@st.composite
def homogeneous_pairs(draw):
    """Two nonzero homogeneous fields on one R^n with n + k - l != 0 each,
    the domain of ``bracket_parts``."""
    n = draw(st.integers(2, 4))
    bidegrees = st.tuples(st.integers(0, 3), st.integers(0, n)).filter(
        lambda d: n + d[0] - d[1] != 0)
    pair = []
    for k, ell in (draw(bidegrees), draw(bidegrees)):
        monomials = [e for e in product(range(k + 1), repeat=n) if sum(e) == k]
        partials = list(combinations(range(1, n + 1), ell))
        terms = {(draw(st.sampled_from(monomials)), draw(st.sampled_from(partials))):
                 draw(COEFFICIENTS) for _ in range(draw(st.integers(1, 4)))}
        pair.append(PolyVectorField(n, terms))
    return pair


@settings(derandomize=True, max_examples=80, deadline=None)
@given(homogeneous_pairs())
def test_bracket_parts_matches_direct_route_on_drawn_pairs(pair):
    assert pair_failures(*pair) == []


@st.composite
def triples(draw):
    """Three nonzero fields on one R^n, each of one vector degree, the domain
    of ``triple_failures``."""
    n = draw(st.integers(1, 4))
    return [draw(fields(n, draw(st.integers(0, n)), max_terms=3).filter(
        lambda f: not f.is_zero())) for _ in range(3)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(triples())
def test_graded_identities_hold_on_drawn_triples(triple):
    """Graded Jacobi, Leibniz, antisymmetry and the trace compatibilities."""
    assert triple_failures(*triple) == []


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(fields))
def test_field_identities_hold_on_drawn_fields(u):
    """D^2 = 0, d^2 = 0 and D = Psi^-1 d Psi, on fields of mixed degrees."""
    assert field_failures(u) == []


@st.composite
def linear_fields_and_forms(draw):
    """A linear matrix A on R^n (rational entries, any trace) and a form of
    one drawn degree 0..n."""
    n = draw(st.integers(2, 4))
    entries = st.one_of(st.just(Fraction(0)), COEFFICIENTS)
    a = LinearMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])
    return a, draw(fields(n, draw(st.integers(0, n)), cls=PolyDifferentialForm))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(linear_fields_and_forms())
def test_lie_derivative_is_dual_to_the_bracket_with_a_linear_field(case):
    """L_A theta = Psi[A, Psi^-1 theta] + tr(A) theta: the identity that lets
    the quad4 kernel go through ``schouten``."""
    a, theta = case
    a_field = linear_vector_field(a)
    assert lie_derivative_form(a_field, theta) == (
        to_form(schouten(a_field, from_form(theta))) + theta.scale(a.trace()))


@st.composite
def wedge_operands(draw, count, homogeneous_vectors=False):
    """``count`` operands of one kind (fields or forms) on one R^n."""
    n = draw(st.integers(1, 6))
    cls = draw(st.sampled_from([PolyVectorField, PolyDifferentialForm]))
    return [draw(fields(n, draw(st.integers(0, n)) if homogeneous_vectors else None,
                        max_terms=5, cls=cls))
            for _ in range(count)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(wedge_operands(2))
def test_wedge_equals_pairwise_oracle(pair):
    u, v = pair
    assert u._wedge(v) == wedge_pairwise(u, v)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(wedge_operands(2, homogeneous_vectors=True))
def test_wedge_is_graded_commutative(pair):
    u, v = pair
    ell_u = len(next(iter(u.terms))[1]) if u.terms else 0
    ell_v = len(next(iter(v.terms))[1]) if v.terms else 0
    assert u._wedge(v) == v._wedge(u).scale(sgn(ell_u * ell_v))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(wedge_operands(3))
def test_wedge_is_associative(triple):
    u, v, w = triple
    assert u._wedge(v)._wedge(w) == u._wedge(v._wedge(w))


@st.composite
def printed_fields(draw):
    """A field with printer-relevant coefficients and the alias modes that
    fit its dimension."""
    n = draw(st.integers(1, 5))
    field = draw(fields(n, max_terms=8, coefficients=PRINTED_COEFFICIENTS))
    alias = draw(st.sampled_from({3: ["numeric", "xyz"], 4: ["numeric", "txyz"]}.get(
        n, ["numeric"])))
    return field, alias


@settings(derandomize=True, max_examples=120, deadline=None)
@given(printed_fields())
@example((PolyVectorField.constant(-1, 3), "xyz"))
@example((PolyVectorField.constant(Fraction(3, 7), 4), "txyz"))
@example((parse_field("-x1 + 1 - d1 - 1/2*x2*d1/\\d2", 2), "numeric"))
def test_format_expr_equals_fraction_oracle_and_parses_back(case):
    field, alias = case
    text = format_expr(field, alias)
    assert text == format_expr_fraction(field, alias)
    assert parse_field(text, field.dim) == field
