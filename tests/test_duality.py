import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from polyvec import (
    DimensionError,
    DomainError,
    PolyDifferentialForm,
    PolyVectorField,
    VolumeConvention,
    dim_irrep,
    exterior_derivative,
    from_form,
    interior_product,
    lie_derivative_form,
    linalg,
    monomial_exponents,
    radial_field,
    to_form,
    trace_d,
    wedge,
    wedge_forms,
)
from polyvec.invariants import field_failures, random_fields, random_nonzero
from util import g_ab_bivector, pv


def form(n, terms):
    return PolyDifferentialForm(n, terms)


def test_to_form_fixtures():
    assert to_form(pv("d1/\\d2", 3)) == form(3, {((0, 0, 0), (3,)): 1})
    assert to_form(radial_field(3)) == form(3, {
        ((1, 0, 0), (2, 3)): 1,
        ((0, 1, 0), (1, 3)): -1,
        ((0, 0, 1), (1, 2)): 1,
    })
    assert to_form(pv("d1/\\d2", 2)) == form(2, {((0, 0), ()): 1})


def test_from_form_fixtures():
    assert from_form(form(3, {((0, 0, 0), (3,)): 1})) == pv("d1/\\d2", 3)
    assert from_form(form(2, {((0, 0), ()): 1})) == pv("d1/\\d2", 2)


def test_from_form_quartic_potential_fixture():
    # d of theta = xyz dt - tyz dx + txz dy - txy dz, pulled back through the
    # volume duality; expected values computed with the epsilon-contraction
    # oracle below and frozen here
    theta = form(4, {
        ((0, 1, 1, 1), (1,)): 1,
        ((1, 0, 1, 1), (2,)): -1,
        ((1, 1, 0, 1), (3,)): 1,
        ((1, 1, 1, 0), (4,)): -1,
    })
    pi = from_form(exterior_derivative(theta))
    assert pi == PolyVectorField(4, {
        ((1, 1, 0, 0), (1, 2)): -2,
        ((1, 0, 0, 1), (1, 4)): 2,
        ((0, 1, 1, 0), (2, 3)): -2,
        ((0, 0, 1, 1), (3, 4)): -2,
    })
    assert trace_d(pi).is_zero()


def test_duality_round_trip_randomized():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        u = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        assert from_form(to_form(u)) == u
        omega = to_form(u)
        assert to_form(from_form(omega)) == omega


def test_volume_pairing_oracle():
    # Psi(U)(W) = Psi(U /\ W): the coefficient polynomial of dx^K in Psi(U)
    # equals the top-degree coefficient of U /\ d_K, for every basis K
    rng = random.Random(22)
    for n in (2, 3, 4):
        top_idx = tuple(range(1, n + 1))
        for _ in range(12):
            ell = rng.randint(0, n)
            u = random_nonzero(rng, n, rng.randint(0, 2), ell)
            omega = to_form(u)
            for comp_idx in combinations(range(1, n + 1), n - ell):
                w = PolyVectorField.single(n, 1, (0,) * n, comp_idx)
                top = u.wedge(w)
                form_poly = {exp: c for (exp, idx), c in omega.terms.items()
                             if idx == comp_idx}
                top_poly = {exp: c for (exp, idx), c in top.terms.items()
                            if idx == top_idx}
                assert form_poly == top_poly


def test_exterior_derivative_fixtures():
    assert exterior_derivative(form(3, {((1, 0, 0), (2,)): 1})) == \
        form(3, {((0, 0, 0), (1, 2)): 1})
    quartic = form(3, {((2, 1, 0), ()): 1})
    assert exterior_derivative(exterior_derivative(quartic)).is_zero()
    assert exterior_derivative(form(4, {((0, 1, 1, 1), (1,)): 1})) == form(4, {
        ((0, 0, 1, 1), (1, 2)): -1,
        ((0, 1, 0, 1), (1, 3)): -1,
        ((0, 1, 1, 0), (1, 4)): -1,
    })


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        u = random_nonzero(rng, n, rng.randint(1, 3), rng.randint(0, n))
        assert field_failures(u) == []


def test_trace_fixtures():
    for n in (2, 3, 4):
        assert trace_d(radial_field(n)) == PolyVectorField.constant(n, n)
    assert trace_d(pv("x1^2*d2", 3)).is_zero()
    assert trace_d(g_ab_bivector(2, 3)) == pv("5*d1", 3)
    assert trace_d(g_ab_bivector(Fraction(1, 2), Fraction(-1, 2))).is_zero()


def test_trace_matches_duality_route():
    for u in random_fields(random.Random(24), 40):
        assert field_failures(u) == []


def test_trace_is_matrix_trace_on_linear_fields():
    from polyvec import LinearMatrix, linear_vector_field
    rng = random.Random(25)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        m = LinearMatrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        assert trace_d(linear_vector_field(m)) == PolyVectorField.constant(m.trace(), n)


def test_dim_irrep_values():
    assert dim_irrep(3, 2, 2) == 10
    assert dim_irrep(3, 2, 1) == 15
    assert dim_irrep(2, 1, 1) == 3
    for n in (2, 3, 4):
        for k in (0, 1, 2, 3):
            prod = Fraction(1)
            for j in range(1, k + 1):
                prod *= Fraction(n * n - j * j)
            fact = 1
            for t in range(2, k + 1):
                fact *= t
            if k <= n - 1:
                assert dim_irrep(n, k, k) == prod / (fact * fact)


def test_dim_irrep_matches_the_factorial_formula():
    for n in range(1, 9):
        for k in range(6):
            for ell in range(n):
                num = math.factorial(n + k)
                den = ((n + k - ell) * math.factorial(k) * math.factorial(ell)
                       * math.factorial(n - ell - 1))
                assert num % den == 0
                assert dim_irrep(n, k, ell) == num // den


def test_dim_irrep_of_a_large_dimension_builds_no_factorial():
    n = 10 ** 6
    assert dim_irrep(n, 2, 1) == (n + 2) * n * (n - 1) // 2


def test_dim_irrep_domain_errors():
    with pytest.raises(DomainError):
        dim_irrep(3, 2, 3)
    with pytest.raises(DomainError):
        dim_irrep(3, -1, 1)
    with pytest.raises(DomainError):
        dim_irrep(3, 2, -1)


def _trace_matrix(n, k, ell):
    basis = [PolyVectorField.single(n, 1, e, i)
             for e in monomial_exponents(n, k)
             for i in combinations(range(1, n + 1), ell)]
    images = [trace_d(b) for b in basis]
    keys = sorted({key for im in images for key in im.terms})
    return [[im.terms.get(key, Fraction(0)) for im in images] for key in keys], len(basis)


def test_trace_kernel_dimension_spot_checks():
    matrix, dim = _trace_matrix(3, 2, 1)
    assert dim - linalg.rank(matrix) == 15 and dim == 18
    matrix, dim = _trace_matrix(3, 2, 2)
    assert dim - linalg.rank(matrix) == 10


def test_trace_injective_on_top_degree():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            matrix, dim = _trace_matrix(n, k, n)
            assert linalg.rank(matrix) == dim


def test_lie_derivative_matches_componentwise_formula():
    # (L_X theta)_k = X(theta_k) + theta_i d_k(X^i), here for
    # X = x1 d2 + x2 d3 and theta = 2 x2 x3 dx1 + x1^2 dx3:
    #   slot 1: X(2 x2 x3) = 2 x1 x3 + 2 x2^2
    #   slot 2: theta_3 * d_2(X^3) = x1^2
    #   slot 3: X(x1^2) = 0
    x_field = pv("x1*d2 + x2*d3", 3)
    theta = form(3, {((0, 1, 1), (1,)): 2, ((2, 0, 0), (3,)): 1})
    expected = form(3, {
        ((1, 0, 1), (1,)): 2,
        ((0, 2, 0), (1,)): 2,
        ((2, 0, 0), (2,)): 1,
    })
    assert lie_derivative_form(x_field, theta) == expected


def test_interior_product_contracts():
    omega = form(3, {((0, 0, 0), (1, 2)): 1})
    x_field = pv("x3*d1", 3)
    assert interior_product(x_field, omega) == form(3, {((0, 0, 1), (2,)): 1})
    assert interior_product(pv("d2", 3), omega) == form(3, {((0, 0, 0), (1,)): -1})


def test_wedge_forms_and_volume_convention():
    a = form(3, {((0, 0, 0), (1,)): 1})
    b = form(3, {((0, 0, 0), (2,)): 1})
    assert wedge_forms(a, b) == form(3, {((0, 0, 0), (1, 2)): 1})
    assert wedge_forms(b, a) == form(3, {((0, 0, 0), (1, 2)): -1})
    vol = VolumeConvention(3)
    assert vol.epsilon((1, 2, 3)) == 1
    assert vol.epsilon((2, 1, 3)) == -1
    assert vol.epsilon((1, 1, 3)) == 0


# -- the sparse-term contract shared by fields and forms ----------------------

SPARSE_KINDS = pytest.mark.parametrize(
    "cls, product", [(PolyVectorField, wedge), (PolyDifferentialForm, wedge_forms)],
    ids=["field", "form"])


@SPARSE_KINDS
def test_sparse_unsorted_indices_sort_with_sign(cls, product):
    assert cls(3, {((1, 0, 0), (2, 1)): 3}).terms == {((1, 0, 0), (1, 2)): Fraction(-3)}
    assert cls(3, {((0, 0, 0), (3, 1, 2)): 2}).terms == {((0, 0, 0), (1, 2, 3)): Fraction(2)}
    assert cls(3, {((0, 0, 0), (2, 1)): 1, ((0, 0, 0), (1, 2)): 1}).is_zero()


@SPARSE_KINDS
def test_sparse_repeated_index_drops_term(cls, product):
    u = cls(3, {((0, 0, 0), (1, 1)): 5, ((0, 1, 0), (2, 3, 2)): 1, ((1, 0, 0), (3,)): 2})
    assert u.terms == {((1, 0, 0), (3,)): Fraction(2)}


@SPARSE_KINDS
def test_sparse_bad_exponents_raise(cls, product):
    for exp in ((1, 0), (1, 0, 0, 0), (0, -1, 0)):
        with pytest.raises(DimensionError):
            cls(3, {(exp, (1,)): 1})
    with pytest.raises(DimensionError):
        cls(3, {((0, 0, 0), (4,)): 1})
    with pytest.raises(DimensionError):
        cls(0, {})


@SPARSE_KINDS
def test_sparse_non_integral_exponents_and_indices_raise(cls, product):
    for key in (((1.5, 0), (1,)), ((1.0, 0), (1,)), (("1", 0), (1,)),
                ((Fraction(1), 0), (1,)), ((1, 0), (1.9,)), ((1, 0), ("1",)),
                ((1, 0), (1, 2.0))):
        with pytest.raises(TypeError):
            cls(2, {key: 1})
    # a float coefficient fails the same way
    with pytest.raises(TypeError):
        cls(2, {((1, 0), (1,)): 1.0})
    assert cls(2, {((True, 0), (2,)): 1}).terms == {((1, 0), (2,)): Fraction(1)}


@SPARSE_KINDS
def test_sparse_zero_coefficient_keys_are_checked(cls, product):
    with pytest.raises(TypeError):
        cls(2, {((1.5, 0), (1,)): 0})
    with pytest.raises(DimensionError):
        cls(2, {((1, 0, 0, 0), (9,)): 0})
    with pytest.raises(DimensionError):
        cls(2, {((0, 0), (3,)): Fraction(0)})
    assert cls(2, {((1, 0), (1,)): 0, ((0, 1), (2,)): 1}).terms == {((0, 1), (2,)): Fraction(1)}


def test_sparse_overlong_index_tuple_form_raises_field_drops():
    terms = {((0, 0), (1, 2, 1)): 1, ((1, 0), (2,)): 1}
    with pytest.raises(DimensionError):
        PolyDifferentialForm(2, terms)
    assert PolyVectorField(2, terms).terms == {((1, 0), (2,)): Fraction(1)}


def test_sparse_field_never_equals_form():
    terms = {((1, 0, 0), (2,)): 1}
    assert PolyVectorField(3, terms).terms == PolyDifferentialForm(3, terms).terms
    assert PolyVectorField(3, terms) != PolyDifferentialForm(3, terms)
    assert PolyDifferentialForm(3, terms) != PolyVectorField(3, terms)
    assert PolyVectorField.zero(3) != PolyDifferentialForm.zero(3)


@SPARSE_KINDS
def test_sparse_difference_with_itself_is_empty(cls, product):
    u = cls(3, {((1, 2, 0), (1, 3)): Fraction(3, 4), ((0, 0, 1), (2,)): -2})
    diff = u - u
    assert type(diff) is cls
    assert diff.terms == {} and diff.is_zero()
    assert diff.dim == 3 and diff == cls.zero(3)


@SPARSE_KINDS
def test_sparse_coefficients_stay_nonzero_fractions(cls, product):
    u = cls(3, {((1, 0, 0), (1,)): 2, ((0, 1, 0), (2,)): "1/3"})
    v = cls(3, {((0, 0, 1), (3,)): -1, ((1, 0, 0), (1,)): -2})
    results = [u + v, u - v, u.scale(Fraction(5, 7)), -u, 3 * u, product(u, v)]
    for result in results:
        assert type(result) is cls
        assert result.terms
        for c in result.terms.values():
            assert type(c) is Fraction and c != 0
    assert (u + v).terms == {((0, 1, 0), (2,)): Fraction(1, 3), ((0, 0, 1), (3,)): Fraction(-1)}
    assert u.scale(0).is_zero() and u.scale(0).dim == 3


@SPARSE_KINDS
def test_sparse_values_are_immutable_and_hashable(cls, product):
    u = cls(2, {((1, 0), (1,)): 1})
    with pytest.raises(AttributeError):
        u.terms = {}
    with pytest.raises(AttributeError):
        u.dim = 3
    assert hash(u) == hash(cls(2, {((1, 0), (1,)): Fraction(1)}))
    assert repr(cls.zero(2)) == f"{cls.__name__}(dim=2, 0)"
