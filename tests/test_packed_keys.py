"""Packed monomial keys: the kernels that add, subtract and read packed keys
against their exponent-tuple oracles in ``util``, and the degree bound of
the packed fields, at it and one past it."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import polyvec
from polyvec import (
    BiDegree,
    DegreeLimitError,
    DimensionError,
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    exterior_derivative,
    format_expr,
    generic_rank,
    homogeneous_components,
    interior_product,
    parse_field,
    pushforward,
    schouten,
    to_form,
    trace_d,
    wedge,
)
from polyvec import classifier, duality, fields, structures
from polyvec.classifier import _quartic_pairing
from polyvec.fields import _unpack, merge_indices
from polyvec.invariants import random_nonzero, random_pairs
from util import (
    exterior_derivative_by_tuples,
    format_expr_by_tuples,
    interior_product_by_tuples,
    schouten_by_tuples,
    trace_d_by_tuples,
    tuple_nums,
    wedge_by_tuples,
)

# The largest total degree a stored term may have: 2^15 - 1, the range of
# the signed 16-bit degree field.
TOP = 32_767

COEFFICIENTS = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.sampled_from([1, 2, 7]))


@st.composite
def exponents(draw, n):
    """Small exponents, or one raised so that the total degree is the bound
    or about half of it, where products land at the bound or just past it."""
    exp = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    degree = draw(st.sampled_from([None, None, None, TOP, *range(TOP // 2 - 2, TOP // 2 + 3)]))
    if degree is not None:
        m = draw(st.integers(0, n - 1))
        exp[m] += degree - sum(exp)
    return tuple(exp)


@st.composite
def packed_fields(draw, n):
    """A field on R^n of up to five terms with ``exponents`` and mixed
    vector degrees."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(0, n))
        idx = draw(st.sampled_from(list(combinations(range(1, n + 1), degree))))
        terms[(draw(exponents(n)), idx)] = draw(COEFFICIENTS)
    return PolyVectorField(n, terms)


@st.composite
def packed_pairs(draw):
    n = draw(st.integers(1, 5))
    return draw(packed_fields(n)), draw(packed_fields(n))


def outcome(build):
    """The value ``build()`` returns, or ``"past the bound"`` when it raises
    ``DegreeLimitError``."""
    try:
        return build()
    except DegreeLimitError:
        return "past the bound"


@settings(derandomize=True, max_examples=100, deadline=None)
@given(packed_pairs())
@example((PolyVectorField.single(2, 1, (TOP // 2, 0), (1,)),
          PolyVectorField.single(2, 1, (TOP // 2 + 1, 0), ())))
@example((PolyVectorField.single(2, 1, (TOP // 2 + 1, 0), (1,)),
          PolyVectorField.single(2, 1, (TOP // 2 + 1, 0), ())))
@example((PolyVectorField.single(2, 1, (TOP // 2 + 1, 0), (1,)),
          PolyVectorField.single(2, 1, (TOP // 2 + 2, 0), ())))
def test_packed_kernels_equal_the_tuple_oracles(pair):
    """Each kernel gives the oracle's value, or raises exactly when the
    oracle's result has a term past the degree bound."""
    u, v = pair
    for kernel, oracle in ((wedge, wedge_by_tuples), (schouten, schouten_by_tuples)):
        for a, b in ((u, v), (v, u)):
            value = outcome(lambda: kernel(a, b))
            assert value == outcome(lambda: oracle(a, b))
            if not isinstance(value, str):
                assert all(type(idx) is tuple and all(type(p) is int for p in group)
                           for idx, group in value.nums.items())
                assert format_expr(value) == format_expr_by_tuples(value)
    for a, b in ((u, v), (v, u)):
        x = sum((part for deg, part in homogeneous_components(a).items() if deg.ell == 1),
                PolyVectorField.zero(a.dim))
        omega = to_form(b)
        value = outcome(lambda: interior_product(x, omega))
        assert value == outcome(lambda: interior_product_by_tuples(x, omega))
    for w in (u, v):
        assert trace_d(w) == trace_d_by_tuples(w)
        omega = to_form(w)
        assert exterior_derivative(omega) == exterior_derivative_by_tuples(omega)
        assert format_expr(w) == format_expr_by_tuples(w)
        assert format_expr(omega) == format_expr_by_tuples(omega)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(packed_pairs())
def test_packed_order_is_tuple_order(pair):
    """Sorting the stored keys sorts their exponent tuples, and the degrees
    read off the keys are those of the tuples."""
    for w in pair:
        keys = sorted((p, idx) for idx, group in w.nums.items() for p in group)
        assert [(_unpack(w.dim, p), idx) for p, idx in keys] == sorted(w.terms)
        assert w.bidegrees() == {BiDegree(sum(exp), len(idx)) for exp, idx in w.terms}
        assert w.max_poly_degree() == max((sum(exp) for exp, _ in w.terms), default=0)


def test_the_degree_bound_holds_at_the_bound_and_one_past_it():
    at = PolyVectorField.single(2, 3, (TOP - 5, 5), (1,))
    assert at.max_poly_degree() == TOP
    assert tuple_nums(at) == {((TOP - 5, 5), (1,)): 3}
    assert format_expr(at) == f"3*x1^{TOP - 5}*x2^5*d1"
    for exp in ((TOP + 1, 0), (TOP, 1), (TOP // 2 + 1, TOP // 2 + 1), (2 ** 16, 0),
                (10 ** 5000, 0)):
        with pytest.raises(DegreeLimitError, match=f"^term degree exceeds the limit of {TOP}$"):
            PolyVectorField.single(2, 1, exp, (1,))
    one, x2 = PolyVectorField.constant(1, 2), PolyVectorField.single(2, 1, (0, 1), ())
    assert wedge(at, one) == wedge(one, at) == at
    for a, b in ((at, x2), (x2, at)):
        with pytest.raises(DegreeLimitError, match=f"degree {TOP + 1}, past the limit of {TOP}$"):
            wedge(a, b)
    f = PolyVectorField.single(2, 1, (0, TOP), ())
    assert schouten(PolyVectorField.single(2, 1, (1, 0), (2,)), f) == PolyVectorField.single(
        2, TOP, (1, TOP - 1), ())
    with pytest.raises(DegreeLimitError):
        schouten(PolyVectorField.single(2, 1, (2, 0), (2,)), f)
    with pytest.raises(DegreeLimitError):
        schouten(f, PolyVectorField.single(2, 1, (2, 0), (2,)))
    omega = PolyDifferentialForm(2, {((0, TOP), (1,)): 1})
    assert interior_product(PolyVectorField.single(2, 1, (0, 0), (1,)), omega) == (
        PolyDifferentialForm(2, {((0, TOP), ()): 1}))
    with pytest.raises(DegreeLimitError):
        interior_product(PolyVectorField.single(2, 1, (1, 0), (1,)), omega)


def test_a_sum_past_the_bound_that_cancels_raises_nothing():
    u = PolyVectorField(2, {((20_000, 0), (1,)): 1, ((0, 20_000), (2,)): 1})
    v = PolyVectorField(2, {((0, 20_000), (1,)): 1, ((20_000, 0), (2,)): -1})
    assert wedge(u, u).is_zero()
    with pytest.raises(DegreeLimitError):
        wedge(u, v)


@pytest.mark.parametrize("exp, error, message", [
    ((-1, 5), DimensionError, r"bad exponent tuple \(-1, 5\) for dimension 2"),
    ((1, 0, 0), DimensionError, r"bad exponent tuple \(1, 0, 0\) for dimension 2"),
    ((-1, TOP + 9), DimensionError, "bad exponent tuple"),
    ((1.0, 0), TypeError, "integer"),
    (("1", 0), TypeError, None),
    (1, TypeError, "not iterable"),
])
def test_a_refused_exponent_tuple_raises_what_it_raised_before_packing(exp, error, message):
    with pytest.raises(error, match=message):
        PolyVectorField(2, {(exp, (1,)): 1})


def test_exponents_that_are_integers_only_by_index_are_packed():
    class Exponent:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    field = PolyVectorField(2, {((Exponent(2), Exponent(1)), (1,)): 1})
    assert field == PolyVectorField.single(2, 1, (2, 1), (1,))
    # an iterator of exponents is read once, degree field included
    field = PolyVectorField(2, {(iter((1, 0)), (1,)): 1})
    assert field == parse_field("x1*d1", 2)
    assert field.bidegree() == BiDegree(1, 1)


def wedge_pairs(u, v):
    """The term pairs a wedge must multiply: those with disjoint index
    tuples."""
    return sum(merge_indices(ia, ib) is not None for _, ia in u.terms for _, ib in v.terms)


def schouten_pairs(u, v):
    """The term pairs a Schouten bracket must multiply: in each half, a slot
    d_j of one operand's term meets a monomial of the other's that contains
    x_j, and the remaining indices merge with the other's."""
    return sum(eb[j - 1] > 0 and merge_indices(ia[:t] + ia[t + 1:], ib) is not None
               for a, b in ((u, v), (v, u))
               for _, ia in a.terms for t, j in enumerate(ia)
               for eb, ib in b.terms)


def test_add_products_is_the_one_product_loop(monkeypatch):
    """Every kernel that multiplies packed terms reaches
    ``fields._add_products``, and the term pairs that the wedge and the
    Schouten bracket hand it are exactly the pairs they must visit: the
    count that a per-kernel counter or work budget reads."""
    real = fields._add_products
    modules = (fields, duality, structures, classifier)
    assert {m for m in vars(polyvec).values()
            if getattr(m, "_add_products", None) is real} == set(modules)
    pairs = []

    def counting(sums, left, right, negate):
        pairs.append(len(left) * len(right))
        real(sums, left, right, negate)

    for module in modules:
        monkeypatch.setattr(module, "_add_products", counting)

    rng = random.Random(19)
    cases = list(random_pairs(rng, 20))
    for n in (2, 3, 4, 4, 5):
        u, v = (sum((random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n), 4)
                     for _ in range(3)), PolyVectorField.zero(n)) for _ in range(2))
        cases.append((u, v))
    visited = 0
    for u, v in cases:
        for kernel, expected in ((wedge, wedge_pairs), (schouten, schouten_pairs)):
            pairs.clear()
            kernel(u, v)
            assert sum(pairs) == expected(u, v), (kernel.__name__, u, v)
            visited += sum(pairs)
    assert visited > 400

    x = parse_field("x2*d1 - 2*x1*x3*d3", 3)
    omega = to_form(parse_field("x1*d1/\\d2 + x3^2*d2/\\d3 + d1", 3))
    rank_two = wedge(parse_field("d1 + x3*d2", 4), parse_field("d3 + x1*d4", 4))
    dthetas = [exterior_derivative(to_form(parse_field(text, 4)))
               for text in ("x1^2*x2*d1/\\d2/\\d3", "x3*x4^2*d1/\\d3/\\d4 + x2^3*d2/\\d3/\\d4")]
    for run in (lambda: interior_product(x, omega),
                lambda: pushforward(LinearMatrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]]), x),
                lambda: generic_rank(rank_two),
                lambda: _quartic_pairing(dthetas)):
        pairs.clear()
        run()
        assert pairs
    assert generic_rank(rank_two) == 2
