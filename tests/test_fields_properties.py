"""Properties of the Schouten bracket, the wedge kernel, the pushforward, the
bracket decomposition, the graded identity suite, the duality of the Lie
derivative and the printer, checked with hypothesis.

Every property runs derandomized, so the examples are the same on each run.
"""

import math
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
    pushforward,
    schouten,
    to_form,
    trace_d,
    wedge,
)
from polyvec.errors import DimensionError
from polyvec.invariants import (
    field_failures,
    pair_failures,
    pushforward_failures,
    sgn,
    triple_failures,
)
from util import (
    canonical_by_fractions,
    format_expr_fraction,
    pushforward_by_wedges,
    schouten_pairwise,
    trace_d_fraction,
    tuple_nums,
    wedge_pairwise,
)

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


def is_normalised(value):
    """The stored form: a positive denominator, no empty index group, nonzero
    numerators, and no factor common to the denominator and all numerators
    (so zero is over 1)."""
    numerators = [c for group in value.nums.values() for c in group.values()]
    return (value.den > 0 and all(value.nums.values()) and all(numerators)
            and math.gcd(value.den, *numerators) == 1)


def fraction_sum(a, b, sign):
    """``a + sign * b`` on two Fraction term maps, zeros dropped."""
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c}


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs())
def test_kernel_results_are_normalised_and_match_fraction_oracles(pair):
    u, v = pair
    half = Fraction(-3, 2)
    results = [
        (u + v, fraction_sum(u.terms, v.terms, 1)),
        (u - v, fraction_sum(u.terms, v.terms, -1)),
        (-u, {key: -c for key, c in u.terms.items()}),
        (u.scale(half), {key: c * half for key, c in u.terms.items()}),
        (schouten(u, v), schouten_pairwise(u, v).terms),
        (wedge(u, v), wedge_pairwise(u, v).terms),
        (trace_d(u), trace_d_fraction(u).terms),
        (to_form(u), None),
        (from_form(to_form(u)), u.terms),
    ]
    for value, oracle in results:
        assert is_normalised(value)
        if oracle is not None:
            assert value.terms == oracle
        rebuilt = type(value)(value.dim, value.terms)
        assert rebuilt == value and hash(rebuilt) == hash(value)
        assert (rebuilt.den, rebuilt.nums) == (value.den, value.nums)
    for value, other in ((u + v, v + u), ((u - v) + v, u)):
        assert value == other and hash(value) == hash(other)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs())
def test_values_built_by_different_routes_are_equal_and_hash_equal(pair):
    u, v = pair
    zero = PolyVectorField.zero(u.dim)
    for other in (u + v - v, u.scale(2).scale(Fraction(1, 2)), -(-u),
                  PolyVectorField(u.dim, u.terms)):
        assert other == u and hash(other) == hash(u)
    difference = u - u
    assert difference == zero and hash(difference) == hash(zero)
    assert (difference.dim, difference.den, difference.nums) == (u.dim, 1, {})


# large pairwise coprime denominators (two primes and a prime power), so the
# lcm the constructor sums over is their product, next to small ones
RAW_COEFFICIENTS = st.one_of(
    st.builds(Fraction, st.integers(-10**6, 10**6),
              st.sampled_from([1, 6, 2**61 - 1, 10**12 + 39, 3**20])),
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)))


def permutation_sign(seq):
    """(-1)^(inversions of seq)."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


@st.composite
def raw_constructor_input(draw):
    """A class, a dimension and a raw term map for its constructor: unsorted
    and repeated indices (over-long ones too), zero coefficients, and keys
    that permute an earlier key's indices with a coefficient that cancels
    it or adds to it."""
    cls = draw(st.sampled_from([PolyVectorField, PolyDifferentialForm]))
    n = draw(st.integers(1, 5))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exp = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        idx = tuple(draw(st.one_of(st.lists(st.integers(1, n), max_size=n, unique=True),
                                   st.lists(st.integers(1, n), max_size=n + 1))))
        coeff = draw(RAW_COEFFICIENTS)
        terms[(exp, idx)] = coeff
        if draw(st.booleans()):
            perm = tuple(draw(st.permutations(idx)))
            cancelling = -Fraction(coeff) * permutation_sign(idx) * permutation_sign(perm)
            terms[(exp, perm)] = draw(st.sampled_from([cancelling, draw(RAW_COEFFICIENTS)]))
    return cls, n, terms


def constructor_outcome(build):
    """The value ``build()`` returns, or the message of its DimensionError."""
    try:
        return build()
    except DimensionError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw_constructor_input())
def test_constructor_equals_fraction_canonicaliser(case):
    cls, n, terms = case
    expected = constructor_outcome(lambda: canonical_by_fractions(cls, n, terms))
    value = constructor_outcome(lambda: cls(n, terms))
    if isinstance(expected, str):
        assert value == expected
        return
    canonical, den, nums = expected
    assert is_normalised(value)
    assert (value.dim, value.den, tuple_nums(value)) == (n, den, nums)
    assert value.terms == canonical


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
def rational_matrices(draw, n):
    """An invertible rational n x n matrix with det(L) not +-1 and a
    non-integer inverse, so every factor of the transport laws shows."""
    entries = st.one_of(st.just(Fraction(0)),
                        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])))
    l_matrix = draw(st.builds(
        LinearMatrix, st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n, max_size=n)).filter(
        lambda m: m.det() not in (0, 1, -1)
        and any(x.denominator != 1 for row in m.inverse().entries for x in row)))
    return l_matrix


@st.composite
def pushforward_cases(draw):
    """A rational matrix L on R^n and two fields of mixed degrees on R^n."""
    n = draw(st.integers(1, 4))
    return (draw(rational_matrices(n)), draw(fields(n, max_terms=3)),
            draw(fields(n, max_terms=3)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pushforward_cases())
def test_pushforward_transport_laws_hold_for_rational_matrices(case):
    """D(L_*U) = det(L) L_*(DU), L_*[U, V] = [L_*U, L_*V] and
    L_*(U /\\ V) = det(L) (L_*U /\\ L_*V)."""
    assert pushforward_failures(*case) == []


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pushforward_cases())
@example((LinearMatrix([[1, 2, 0], ["1/2", 1, 3], [0, -1, 2]]),
          parse_field("5*d1/\\d3 - x2*d1/\\d3 + 2*x1*x2*d1/\\d3 - 1/3*x3^3*d1/\\d3 + x2*d2", 3),
          PolyVectorField.zero(3)))
@example((LinearMatrix([[1, 0, 2, -1], ["1/3", 1, 0, 2], [0, -2, 1, 1], [3, 1, 0, "1/2"]]),
          parse_field("x1^2 - 2/5*x3 + x1*x4*d1/\\d2/\\d3/\\d4 + 3*d1/\\d2/\\d3/\\d4", 4),
          PolyVectorField.zero(4)))
@example((LinearMatrix([[1, 1], [1, -1]]),
          parse_field("x1^2*d1 - x2^2*d1 + d1 + d2", 2), PolyVectorField.zero(2)))
@example((LinearMatrix([[1, "-1/2", "1/2"], ["-1/2", "1/2", "-1/2"], [-1, "1/2", 0]]),
          parse_field("x1*d1/\\d2 - 2*x3^2*d1/\\d2 + x2*d1/\\d3 + d1/\\d2/\\d3", 3),
          PolyVectorField.zero(3)))
def test_pushforward_equals_wedge_chain_oracle(case):
    """Drawn fields hold at most three terms, so an index group rarely holds
    more than one; the examples give ``pushforward``'s per-group work:
    one group of four terms of polynomial degrees 0 to 3 beside a second
    group; a group with l = 0, whose weight det^-1 is a fraction, beside
    one with l = n = 4; x1^2 - x2^2 substituting to 4*x1*x2, so the x1^2 and
    x2^2 entries of one group's coefficient cancel to zero, as do the d2
    totals of two groups' constants; and L^-1 = [[2, 2, 0], [4, 4, 2],
    [2, 0, 2]], whose folded d1/\\d2 entry 2*4 - 4*2 cancels to zero."""
    l_matrix, u, _ = case
    moved = pushforward(l_matrix, u)
    assert moved == pushforward_by_wedges(l_matrix, u)
    assert moved.terms == pushforward_by_wedges(l_matrix, u).terms


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
