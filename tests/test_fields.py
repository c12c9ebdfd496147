import random
from fractions import Fraction

import pytest

import polyvec
from polyvec import (
    BiDegree,
    DegenerateNormalizerError,
    DimensionError,
    HomogeneityError,
    JacobiPair,
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    RMatrix,
    SingularMatrixError,
    are_associated,
    euler,
    from_skew_components,
    homogeneous_components,
    interior_product,
    linear_vector_field,
    pushforward,
    radial_field,
    schouten,
    skew_component,
    to_form,
    wedge,
    wedge_forms,
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
    with pytest.raises(SingularMatrixError, match="^pushforward along a singular matrix$"):
        pushforward(singular, pv("d1", 3))
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        singular.inverse()


@pytest.mark.parametrize("a, b", [(2, 3), (3, 2)])
def test_matmul_of_different_sizes_raises(a, b):
    with pytest.raises(DimensionError) as info:
        LinearMatrix.identity(a).matmul(LinearMatrix.identity(b))
    assert str(info.value) == f"dimension mismatch: {a} vs {b}"


@pytest.mark.parametrize("a, b", [(2, 3), (3, 2)])
@pytest.mark.parametrize("check", [
    lambda a, b: pv("d1", a) + pv("d1", b),
    lambda a, b: pushforward(LinearMatrix.identity(a), pv("d1", b)),
    lambda a, b: interior_product(pv("d1", a), to_form(pv("d1", b))),
    lambda a, b: JacobiPair(pv("d1/\\d2", a), pv("d1", b)),
    lambda a, b: are_associated(pv("d1/\\d2", a),
                                JacobiPair(pv("d1/\\d2", b), PolyVectorField.zero(b))),
], ids=["sum", "pushforward", "interior_product", "JacobiPair", "are_associated"])
def test_dimension_checks_name_both_dimensions(check, a, b):
    with pytest.raises(DimensionError) as info:
        check(a, b)
    assert str(info.value) == f"dimension mismatch: {a} vs {b}"


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


_X3_D1 = from_skew_components(3, {((3,), (1,)): 1})


@pytest.mark.parametrize("convert", [
    lambda: skew_component(_X3_D1, (0,), (1,)),
    lambda: skew_component(_X3_D1, (4,), (1,)),
    lambda: skew_component(_X3_D1, (3,), (0,)),
    lambda: skew_component(_X3_D1, (3,), (5,)),
    lambda: from_skew_components(3, {((0,), (1,)): 1}),
], ids=["lower-0", "lower-4", "upper-0", "upper-5", "build-lower-0"])
def test_skew_conversion_checks_its_indices(convert):
    """An index outside 1..n neither wraps to x_n, nor raises a bare
    IndexError, nor reads as a zero component."""
    assert _X3_D1 == pv("x3*d1", 3)
    with pytest.raises(DimensionError, match="index out of range"):
        convert()


def test_zero_field_keeps_dimension():
    zero2 = PolyVectorField.zero(2)
    zero3 = PolyVectorField.zero(3)
    with pytest.raises(DimensionError):
        wedge(zero2, zero3)


@pytest.mark.parametrize("dim", [2.5, 2.0, "2"])
def test_dimension_must_be_an_integer(dim):
    builds = [
        lambda: PolyVectorField(dim, {}),
        lambda: PolyVectorField(dim, {((1, 0), (1,)): 1}),
        lambda: PolyVectorField.zero(dim),
        lambda: PolyDifferentialForm(dim, {((0, 1), (1, 2)): 1}),
        lambda: RMatrix(dim, {}),
        lambda: radial_field(dim),
    ]
    for build in builds:
        with pytest.raises(TypeError):
            build()


_F = pv("x1*d1 + x2*d2", 2)
_W = to_form(pv("x1*d1", 2))


@pytest.mark.parametrize("combine", [
    lambda: _F - _W,
    lambda: _W + _F,
    lambda: wedge(_F, _W),
    lambda: wedge_forms(_W, _F),
    lambda: schouten(_F, _W),
    lambda: schouten(_W, _F),
], ids=["difference", "sum", "wedge", "wedge_forms", "schouten", "schouten-reversed"])
def test_a_field_and_a_form_do_not_combine(combine):
    """``dx2`` is not read as ``d2``: mixing the two kinds names both types,
    also where the dimensions would not match either."""
    assert _W == PolyDifferentialForm(2, {((1, 0), (2,)): 1})
    with pytest.raises(TypeError) as info:
        combine()
    assert "PolyVectorField" in str(info.value) and "PolyDifferentialForm" in str(info.value)


def test_schouten_takes_no_forms_and_kinds_are_checked_before_dimensions():
    with pytest.raises(TypeError):
        _F + to_form(pv("x1*d1", 3))
    with pytest.raises(TypeError, match="PolyDifferentialForm"):
        schouten(_W, _W)
    with pytest.raises(TypeError, match="int"):
        wedge(_F, 3)


_FIELD, _FORM = "PolyVectorField", "PolyDifferentialForm"
_PAIR = JacobiPair(pv("x1*d1/\\d2", 2), pv("d1", 2))
_WRONG_KINDS = [
    ("to_form", (_W,), _FIELD),
    ("from_form", (_F,), _FORM),
    ("trace_d", (_W,), _FIELD),
    ("exterior_derivative", (_F,), _FORM),
    ("interior_product", (_W, _W), _FIELD),
    ("interior_product", (_F, _F), _FORM),
    ("lie_derivative_form", (_F, _F), _FORM),
    ("pushforward", (LinearMatrix.identity(3), _W), _FIELD),
    ("homogeneous_components", (_W,), _FIELD),
    ("skew_component", (_W, (1,), (2,)), _FIELD),
    ("wedge", (_W, _W), _FIELD),
    ("wedge_forms", (_F, _F), _FORM),
    ("is_poisson", (_W,), _FIELD),
    ("poisson_component_test", (_W,), _FIELD),
    ("decompose", (_W,), _FIELD),
    ("generic_rank", (_W,), _FIELD),
    ("bracket_parts", (_W, _W), _FIELD),
    ("self_bracket_parts", (_W,), _FIELD),
    ("JacobiPair", (_W, _F), _FIELD),
    ("are_associated", (_W, _PAIR), _FIELD),
    ("matmul", (LinearMatrix([[1]]), _F), "LinearMatrix"),
]


@pytest.mark.parametrize("name, operands, kind", _WRONG_KINDS,
                         ids=[f"{name}-{len(ops)}-{kind}" for name, ops, kind in _WRONG_KINDS])
def test_operations_refuse_the_wrong_kind(name, operands, kind):
    """Each operation names itself, the kind it takes and the first operand
    of another kind, before it looks at a dimension."""
    got = _FORM if kind == _FIELD else _FIELD
    call = LinearMatrix.matmul if name == "matmul" else getattr(polyvec, name)
    with pytest.raises(TypeError, match=f"^{name} takes {kind}, not {got}$"):
        call(*operands)


@pytest.mark.parametrize("build", [lambda: radial_field(0), lambda: radial_field(-1),
                                   lambda: euler(0, 1, 0)], ids=["0", "-1", "euler"])
def test_radial_field_refuses_a_dimension_below_one(build):
    with pytest.raises(DimensionError, match=r"^ambient dimension must be >= 1, got -?\d+$"):
        build()
