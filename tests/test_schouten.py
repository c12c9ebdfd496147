"""The integer Schouten kernel against the pairwise Fraction oracle.

``tests/util.schouten_pairwise`` is the bracket as it was first written: every
term pair, one Fraction product per pair.  ``fields.schouten`` must give the
same field on every input, with canonical nonzero Fraction coefficients.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from polyvec import PolyVectorField, monomial_exponents, radial_field, schouten
from util import pv, schouten_pairwise, so3_bivector

BIG_PRIME = 10**12 + 39
DENOMINATORS = (1, 1, 2, 3, 7, BIG_PRIME)


def rational_field(rng, n, components, nterms=4, denominators=DENOMINATORS):
    """A seeded field summing ``nterms`` terms of each (k, l) in
    ``components``; several components give a mixed-bidegree field."""
    terms = {}
    for k, ell in components:
        exps = monomial_exponents(n, k)
        idxs = list(combinations(range(1, n + 1), ell))
        for _ in range(nterms):
            key = (rng.choice(exps), rng.choice(idxs))
            terms[key] = terms.get(key, 0) + Fraction(
                rng.choice([1, 2, 3, -1, -5, 12345678901]), rng.choice(denominators))
    return PolyVectorField(n, terms)


def random_components(rng, n, count):
    return [(rng.randint(0, 3), rng.randint(0, n)) for _ in range(count)]


def assert_canonical(field):
    for c in field.terms.values():
        assert type(c) is Fraction and c != 0


@pytest.mark.parametrize("n", range(1, 9))
def test_schouten_matches_pairwise_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(12):
        u = rational_field(rng, n, random_components(rng, n, rng.randint(1, 3)))
        v = rational_field(rng, n, random_components(rng, n, rng.randint(1, 3)))
        result = schouten(u, v)
        assert result == schouten_pairwise(u, v)
        assert_canonical(result)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_schouten_function_and_top_degree_operands(n):
    rng = random.Random(200 + n)
    top = tuple(range(1, n + 1))
    for _ in range(6):
        f = rational_field(rng, n, [(rng.randint(0, 3), 0)])
        x = rational_field(rng, n, [(rng.randint(0, 2), 1)])
        w = rational_field(rng, n, [(rng.randint(0, 2), n)])
        for u, v in [(f, f), (f, x), (x, f), (w, f), (f, w), (w, x), (x, w), (w, w)]:
            assert schouten(u, v) == schouten_pairwise(u, v)
    # the constant volume n-vector against a mixed field
    vol = PolyVectorField(n, {((0,) * n, top): Fraction(3, BIG_PRIME)})
    mixed = rational_field(rng, n, [(2, 1), (1, 0), (1, n)])
    assert schouten(vol, mixed) == schouten_pairwise(vol, mixed)
    assert schouten(mixed, vol) == schouten_pairwise(mixed, vol)


def test_schouten_denominators_clear_exactly():
    # x/p d1 and x^2/q d1 with coprime large denominators: [X, Y] = x^2/(pq) d1
    p, q = BIG_PRIME, 10**9 + 7
    x = PolyVectorField(1, {((1,), (1,)): Fraction(1, p)})
    y = PolyVectorField(1, {((2,), (1,)): Fraction(1, q)})
    assert schouten(x, y).terms == {((2,), (1,)): Fraction(1, p * q)}
    assert schouten(y, x).terms == {((2,), (1,)): Fraction(-1, p * q)}
    # integer operands stay integers
    assert schouten(pv("3*x1*d1", 2), pv("5*x1^2*x2", 2)).terms == {((2, 1), ()): Fraction(30)}


def test_schouten_zero_operands_keep_dimension():
    rng = random.Random(7)
    u = rational_field(rng, 4, [(2, 2), (1, 1)])
    zero = PolyVectorField.zero(4)
    for result in (schouten(zero, u), schouten(u, zero), schouten(zero, zero)):
        assert result.is_zero() and result.dim == 4 and result == PolyVectorField.zero(4)


def test_schouten_cancelling_brackets_are_empty():
    pi = so3_bivector()
    assert schouten(pi, pi).terms == {}
    assert schouten_pairwise(pi, pi).terms == {}
    rng = random.Random(8)
    for n in (2, 4, 6):
        # a vector field brackets to zero with itself, whatever its denominators
        x = rational_field(rng, n, [(2, 1), (0, 1), (3, 1)], nterms=6)
        assert schouten(x, x).terms == {}
    # [e0, A] = (k - l) A vanishes on a field with k = l
    a = rational_field(rng, 5, [(2, 2)], nterms=6)
    assert schouten(radial_field(5), a).is_zero()
