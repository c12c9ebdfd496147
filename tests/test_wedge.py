"""The integer wedge kernel against the pairwise Fraction oracle.

``tests/util.wedge_pairwise`` is the wedge product as it was first written:
every term pair, one Fraction product per pair.  ``_SparseTerms._wedge``
serves ``wedge``, ``wedge_forms``, ``pushforward``, the decomposition and the
Pfaffians, and must give the same value on every input, with canonical
nonzero Fraction coefficients.  ``classifier.quartic_constraints`` pairs
d theta components directly; ``quartic_constraints_by_wedge`` is its oracle.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from polyvec import (
    DimensionError,
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    PreconditionError,
    compatible_cubic_oneforms,
    monomial_exponents,
    pushforward,
    quartic_constraints,
    wedge,
    wedge_forms,
)
from polyvec.classifier import SolutionSpace
from test_schouten import BIG_PRIME, DENOMINATORS, assert_canonical, random_components
from util import (
    QUAD4_DIAGONAL,
    QUAD4_NILPOTENT,
    QUAD4_ROTATION,
    pv,
    quad4_nilpotent_family,
    quartic_constraints_by_wedge,
    random_invertible,
    so3_bivector,
    wedge_pairwise,
)


def rational_terms(rng, n, components, nterms=4, denominators=DENOMINATORS):
    """Seeded terms: ``nterms`` of each (k, l) in ``components``."""
    terms = {}
    for k, ell in components:
        exps = monomial_exponents(n, k)
        idxs = list(combinations(range(1, n + 1), ell))
        for _ in range(nterms):
            key = (rng.choice(exps), rng.choice(idxs))
            terms[key] = terms.get(key, 0) + Fraction(
                rng.choice([1, 2, 3, -1, -5, 12345678901]), rng.choice(denominators))
    return terms


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("cls", [PolyVectorField, PolyDifferentialForm], ids=["field", "form"])
def test_wedge_matches_pairwise_oracle(cls, n):
    rng = random.Random(300 + n)
    for _ in range(12):
        u = cls(n, rational_terms(rng, n, random_components(rng, n, rng.randint(1, 3))))
        v = cls(n, rational_terms(rng, n, random_components(rng, n, rng.randint(1, 3))))
        result = u._wedge(v)
        assert type(result) is cls
        assert result == wedge_pairwise(u, v)
        assert_canonical(result)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("denominator", [1, 2, 3, 7, BIG_PRIME])
def test_wedge_each_denominator(n, denominator):
    rng = random.Random(400 + n + denominator % 97)
    for _ in range(4):
        u = PolyVectorField(n, rational_terms(rng, n, [(1, 1), (2, 0)],
                                              denominators=(denominator,)))
        v = PolyVectorField(n, rational_terms(rng, n, [(1, 1), (0, 2)],
                                              denominators=(1, denominator)))
        assert wedge(u, v) == wedge_pairwise(u, v)
        assert_canonical(wedge(u, v))


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_wedge_of_zero_vectors_is_the_polynomial_product(n):
    rng = random.Random(500 + n)
    for _ in range(6):
        f = PolyVectorField(n, rational_terms(rng, n, [(rng.randint(0, 3), 0)]))
        g = PolyVectorField(n, rational_terms(rng, n, [(rng.randint(0, 3), 0)]))
        assert wedge(f, g) == wedge_pairwise(f, g) == wedge(g, f)


def test_wedge_denominators_clear_exactly():
    p, q = BIG_PRIME, 10**9 + 7
    x = PolyVectorField(2, {((1, 0), (1,)): Fraction(1, p)})
    y = PolyVectorField(2, {((0, 1), (2,)): Fraction(p, q)})
    assert wedge(x, y).terms == {((1, 1), (1, 2)): Fraction(1, q)}
    assert wedge(y, x).terms == {((1, 1), (1, 2)): Fraction(-1, q)}
    # integer operands give integer Fractions
    assert wedge(pv("3*x1*d1", 2), pv("-5*x2*d2", 2)).terms == {((1, 1), (1, 2)): Fraction(-15)}


@pytest.mark.parametrize("cls", [PolyVectorField, PolyDifferentialForm], ids=["field", "form"])
def test_wedge_zero_operands_keep_dimension_and_type(cls):
    rng = random.Random(9)
    u = cls(4, rational_terms(rng, 4, [(2, 2), (1, 1)]))
    zero = cls.zero(4)
    for result in (u._wedge(zero), zero._wedge(u), zero._wedge(zero)):
        assert type(result) is cls and result.dim == 4 and result == cls.zero(4)


def test_wedge_pairs_that_cancel_completely():
    rng = random.Random(10)
    for n in (2, 4, 6):
        # a vector field wedged with itself vanishes, whatever its denominators
        x = PolyVectorField(n, rational_terms(rng, n, [(2, 1), (0, 1), (3, 1)], nterms=6))
        assert wedge(x, x).terms == {}
        assert wedge_pairwise(x, x).terms == {}
        form = PolyDifferentialForm(n, rational_terms(rng, n, [(1, 1)], nterms=6))
        assert wedge_forms(form, form).terms == {}
    # so3 /\ so3 is a 4-vector in dimension 3: every pair shares an index
    assert wedge(so3_bivector(), so3_bivector()).terms == {}
    # opposite cross terms cancel: (d1 + d2) /\ (d1 + d2 + d3) = (d1 + d2) /\ d3
    a, b = pv("d1 + d2", 3), pv("d1 + d2 + d3", 3)
    assert wedge(a, b) == pv("d1/\\d3 + d2/\\d3", 3) == wedge_pairwise(a, b)


def test_wedge_merge_signs():
    assert wedge(pv("d2", 3), pv("d1", 3)).terms == {((0, 0, 0), (1, 2)): Fraction(-1)}
    assert wedge(pv("d1/\\d3", 3), pv("d2", 3)).terms == {((0, 0, 0), (1, 2, 3)): Fraction(-1)}
    assert wedge(pv("d2/\\d3", 3), pv("d1", 3)).terms == {((0, 0, 0), (1, 2, 3)): Fraction(1)}
    # one index tuple against two partners of the same length: a memo keyed
    # by lengths alone would reuse the first merge for the second
    u = pv("x1*d1 + x2*d3", 4)
    v = pv("d2 + d4", 4)
    assert wedge(u, v) == wedge_pairwise(u, v) == pv(
        "x1*d1/\\d2 + x1*d1/\\d4 - x2*d2/\\d3 + x2*d3/\\d4", 4)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pushforward_through_the_kernel_keeps_the_transport_law(n):
    # L_*(U /\ V) = det(L) (L_*U /\ L_*V) ties the kernel to the oracle route
    rng = random.Random(600 + n)
    lmat = random_invertible(rng, n)
    det = lmat.det()
    for _ in range(3):
        u = PolyVectorField(n, rational_terms(rng, n, [(1, 1)], nterms=3))
        v = PolyVectorField(n, rational_terms(rng, n, [(1, 1)], nterms=3))
        lhs = pushforward(lmat, wedge_pairwise(u, v))
        assert lhs == wedge_pairwise(pushforward(lmat, u), pushforward(lmat, v)).scale(det)


QUAD4_ZERO = LinearMatrix.diagonal([0, 0, 0, 0])


@pytest.mark.parametrize("matrix", [QUAD4_DIAGONAL, QUAD4_NILPOTENT, QUAD4_ROTATION, QUAD4_ZERO],
                         ids=["diagonal", "nilpotent", "rotation", "zero"])
def test_quartic_pairing_matches_the_wedge_loop(matrix):
    space = compatible_cubic_oneforms(matrix)
    expected = quartic_constraints_by_wedge(space)
    got = quartic_constraints(space)
    assert got.parameters == expected.parameters
    assert got.constraints == expected.constraints
    for constraint in got.constraints:
        for c in constraint.values():
            assert type(c) is Fraction and c != 0


def test_quartic_pairing_on_a_conjugate_and_the_printed_family():
    rng = random.Random(701)
    lmat = random_invertible(rng, 4, bound=2)
    inverse = lmat.inverse()
    conjugate = inverse.matmul(QUAD4_DIAGONAL).matmul(lmat)
    space = compatible_cubic_oneforms(conjugate)
    assert space.dimension == compatible_cubic_oneforms(QUAD4_DIAGONAL).dimension
    assert quartic_constraints(space) == quartic_constraints_by_wedge(space)
    printed = SolutionSpace("printed family", tuple(quad4_nilpotent_family()))
    assert quartic_constraints(printed) == quartic_constraints_by_wedge(printed)
    # rational parameters: each theta over its own denominator
    scaled = SolutionSpace("scaled family", tuple(
        th.scale(Fraction(1 + t, 3 + 2 * t)) for t, th in enumerate(quad4_nilpotent_family())))
    assert quartic_constraints(scaled) == quartic_constraints_by_wedge(scaled)


def test_quartic_pairing_rejects_spaces_it_does_not_pair():
    two_forms = SolutionSpace("2-forms", (PolyDifferentialForm(4, {((1, 0, 0, 0), (1, 2)): 1}),))
    with pytest.raises(PreconditionError):
        quartic_constraints(two_forms)
    in_three = SolutionSpace("dimension 3", (PolyDifferentialForm(3, {((1, 1, 1), (1,)): 1}),))
    with pytest.raises(DimensionError):
        quartic_constraints(in_three)
    assert quartic_constraints(SolutionSpace("empty", ())).constraints == ()
