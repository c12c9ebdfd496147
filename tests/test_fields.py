import random
from fractions import Fraction

import pytest

from polyvec import (
    BiDegree,
    DegenerateNormalizerError,
    DimensionError,
    HomogeneityError,
    LinearMatrix,
    PolyVectorField,
    SingularMatrixError,
    euler,
    from_skew_components,
    homogeneous_components,
    linear_vector_field,
    pushforward,
    radial_field,
    schouten,
    skew_component,
    wedge,
)
from polyvec.invariants import random_nonzero, random_triples, triple_failures
from util import pv, random_invertible, so3_bivector


def test_wedge_repeated_index_vanishes():
    d1 = pv("d1", 3)
    assert wedge(d1, d1).is_zero()


def test_wedge_simple_product():
    assert wedge(pv("x1*d1", 3), pv("x2*d2", 3)) == pv("x1*x2*d1/\\d2", 3)


def test_wedge_with_shifted_stratum_field():
    # quadratic solution of the diag(1,2,-3) stratum against C + e^(3,2)
    c_field = linear_vector_field(LinearMatrix.diagonal([1, 2, -3]))
    pivot = c_field + euler(3, 3, 2)
    result = wedge(pv("x1^2*d2", 3), pivot)
    assert result == pv("-5/4*x1^3*d1/\\d2 - 11/4*x1^2*x3*d2/\\d3", 3)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionError):
        wedge(pv("d1", 2), pv("d1", 3))


def test_schouten_is_lie_derivative_on_functions():
    assert schouten(pv("d1", 3), pv("x1^2*d2", 3)) == pv("2*x1*d2", 3)
    assert schouten(pv("x1*d1", 2), pv("x1^2", 2)) == pv("2*x1^2", 2)


def test_schouten_euler_scaling():
    # [e0, A] = (k - l) A on homogeneous pieces
    assert schouten(radial_field(3), pv("x1^2*d2", 3)) == pv("x1^2*d2", 3)
    assert schouten(euler(3, 3, 2), pv("x1^2*d2", 3)) == pv("1/4*x1^2*d2", 3)


def test_schouten_so3_self_bracket_vanishes():
    pi = so3_bivector()
    assert schouten(pi, pi).is_zero()


def test_schouten_dimension_mismatch():
    with pytest.raises(DimensionError):
        schouten(pv("d1", 2), pv("d1", 3))
    with pytest.raises(DimensionError):
        schouten(PolyVectorField.zero(3), PolyVectorField.zero(2))


def test_euler_fixtures():
    assert euler(3, 3, 2) == radial_field(3).scale(Fraction(1, 4))
    assert euler(3, 1, 1) == radial_field(3).scale(Fraction(1, 3))
    with pytest.raises(DegenerateNormalizerError):
        euler(4, 0, 4)


def test_homogeneous_components():
    f = pv("x1*d2 + x1^2*d3", 3)
    parts = homogeneous_components(f)
    assert parts == {
        BiDegree(1, 1): pv("x1*d2", 3),
        BiDegree(2, 1): pv("x1^2*d3", 3),
    }
    assert homogeneous_components(PolyVectorField.zero(3)) == {}
    g = pv("2*x2*d1/\\d2 + 3*x3*d1/\\d3", 3)
    assert homogeneous_components(g) == {BiDegree(1, 2): g}


def test_bidegree_of_mixed_field_raises():
    with pytest.raises(HomogeneityError):
        pv("x1*d2 + x1^2*d3", 3).bidegree()
    assert PolyVectorField.zero(3).bidegree() == BiDegree(0, 0)
    assert BiDegree(3, 2).delta == 1


def test_pushforward_fixes_radial_field():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        l_matrix = random_invertible(rng, n)
        assert pushforward(l_matrix, radial_field(n)) == radial_field(n)


def test_pushforward_constant_field():
    assert pushforward(LinearMatrix.diagonal([2, 2, 2]), pv("d1", 3)) == pv("1/2*d1", 3)


def test_pushforward_conjugates_linear_fields():
    rng = random.Random(2)
    for _ in range(15):
        n = rng.choice([2, 3])
        l_matrix = random_invertible(rng, n)
        a = LinearMatrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        conjugated = l_matrix.inverse().matmul(a).matmul(l_matrix)
        assert pushforward(l_matrix, linear_vector_field(a)) == linear_vector_field(conjugated)


def test_pushforward_preserves_schouten_and_twists_wedge():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([2, 3])
        l_matrix = random_invertible(rng, n)
        det = l_matrix.det()
        u = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        v = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        assert pushforward(l_matrix, schouten(u, v)) == \
            schouten(pushforward(l_matrix, u), pushforward(l_matrix, v))
        assert pushforward(l_matrix, wedge(u, v)) == \
            wedge(pushforward(l_matrix, u), pushforward(l_matrix, v)).scale(det)


def test_pushforward_singular_matrix():
    singular = LinearMatrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(SingularMatrixError):
        pushforward(singular, pv("d1", 3))


def test_graded_identities_randomized():
    for fields in random_triples(random.Random(4), 80):
        assert triple_failures(*fields) == []


def test_bidegree_bookkeeping():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        k1, l1 = rng.randint(0, 3), rng.randint(0, n)
        k2, l2 = rng.randint(0, 3), rng.randint(0, n)
        u = random_nonzero(rng, n, k1, l1)
        v = random_nonzero(rng, n, k2, l2)
        slab = wedge(u, v)
        if not slab.is_zero():
            assert slab.bidegree() == BiDegree(k1 + k2, l1 + l2)
        br = schouten(u, v)
        if not br.is_zero():
            assert br.bidegree() == BiDegree(k1 + k2 - 1, l1 + l2 - 1)


def test_skew_component_conversion():
    # linear bi-vector with structure constants alpha, beta
    field = pv("5*x2*d1/\\d2 + 7*x3*d1/\\d3", 3)
    assert skew_component(field, (2,), (1, 2)) == 5
    assert skew_component(field, (2,), (2, 1)) == -5
    assert skew_component(field, (3,), (1, 3)) == 7
    rebuilt = from_skew_components(3, {((2,), (1, 2)): 5, ((3,), (1, 3)): 7})
    assert rebuilt == field
    # symmetric lower block carries the multiplicity factorial
    quad = pv("x1^2*d2", 3)
    assert skew_component(quad, (1, 1), (2,)) == 2
    assert from_skew_components(3, {((1, 1), (2,)): 2}) == quad


def test_zero_field_keeps_dimension():
    zero2 = PolyVectorField.zero(2)
    zero3 = PolyVectorField.zero(3)
    with pytest.raises(DimensionError):
        wedge(zero2, zero3)
