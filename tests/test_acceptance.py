"""Acceptance suite: one section per published criterion.

Every check is exact (rational arithmetic, zero tolerance).  Sub-checks whose
published expected values are contradicted by the recomputation are kept in
their literal form and marked as strict expected failures; the verified
values for those spots live in the regular regression modules and the
published and recomputed value of each in MISPRINTS.md at the repository
root.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from polyvec import (
    JacobiPair,
    PolyVectorField,
    bracket_parts,
    centralizer_kernel,
    compatible_cubic_oneforms,
    cubic3_catalog,
    decompose,
    dim_irrep,
    exterior_derivative,
    format_expr,
    from_form,
    generic_rank,
    is_jacobi,
    is_poisson,
    is_simple,
    linalg,
    monomial_exponents,
    parse_expr,
    poisson_from_jacobi,
    pushforward,
    quartic_constraints,
    same_span,
    schouten,
    self_bracket_parts,
    to_form,
    trace_d,
    tracefree_projection,
    wedge,
    wedge_forms,
)
from polyvec.classifier import SolutionSpace
from test_cli import CANONICAL_FIXTURES, call
from util import (
    CASE_A12,
    CASE_A2,
    CASE_B2,
    CASE_C,
    CASE_D2,
    PRINTED_BASIS_A12,
    PRINTED_BASIS_B2,
    PRINTED_BASIS_C_VERBATIM,
    PRINTED_BASIS_D2_VERBATIM,
    QUAD4_DIAGONAL,
    QUAD4_NILPOTENT,
    QUAD4_ROTATION,
    fields_from,
    g_ab_bivector,
    quad4_diagonal_family,
    quad4_nilpotent_family,
    quad4_nilpotent_theta,
    quad4_rotation_family,
    random_invertible,
    random_nonzero,
    sgn,
    shifted_degree,
)

LEDGER = "MISPRINTS.md"


# -- criterion 1 -------------------------------------------------------------

@pytest.mark.criterion(1, "graded identity suite")
def test_criterion_1_identity_suite():
    started = time.monotonic()
    rng = random.Random(101)
    triples = 0
    while triples < 200:
        n = rng.choice([2, 3, 4])
        fields = [random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
                  for _ in range(3)]
        triples += 1
        uf, vf, wf = fields
        u, v, w = (shifted_degree(f) for f in fields)
        jacobi = (schouten(uf, schouten(vf, wf)).scale(sgn(u * w))
                  + schouten(wf, schouten(uf, vf)).scale(sgn(v * w))
                  + schouten(vf, schouten(wf, uf)).scale(sgn(u * v)))
        assert jacobi.is_zero()
        leibniz = schouten(uf, wedge(vf, wf)) \
            - wedge(schouten(uf, vf), wf) \
            - wedge(vf, schouten(uf, wf)).scale(sgn(u * (v + 1)))
        assert leibniz.is_zero()
        assert wedge(uf, vf) == wedge(vf, uf).scale(sgn((u + 1) * (v + 1)))
        lv = v + 1
        compat = trace_d(wedge(uf, vf)) \
            - wedge(trace_d(uf), vf).scale(sgn(lv)) \
            - wedge(uf, trace_d(vf)) \
            - schouten(uf, vf).scale(sgn(lv))
        assert compat.is_zero()
        assert trace_d(schouten(uf, vf)) == \
            schouten(uf, trace_d(vf)) - schouten(trace_d(uf), vf).scale(sgn(lv))
        assert schouten(trace_d(uf), uf) == -schouten(uf, trace_d(uf))
        assert wedge(trace_d(uf), uf) == wedge(uf, trace_d(uf))
        if (u + 1) % 2 == 0 and schouten(uf, uf).is_zero():
            assert schouten(trace_d(uf), uf).is_zero()
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


# -- criterion 2 -------------------------------------------------------------

@pytest.mark.criterion(2, "differential suite")
def test_criterion_2_differential_suite():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        u = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        assert trace_d(trace_d(u)).is_zero()
        omega = to_form(u)
        assert exterior_derivative(exterior_derivative(omega)).is_zero()
        assert trace_d(u) == from_form(exterior_derivative(to_form(u)))


# -- criterion 3 -------------------------------------------------------------

@pytest.mark.criterion(3, "bracket decomposition formulas")
def test_criterion_3_bracket_formulas():
    rng = random.Random(103)
    pairs = 0
    while pairs < 100:
        n = rng.choice([2, 3, 4])
        k1, l1 = rng.randint(0, 3), rng.randint(0, n)
        k2, l2 = rng.randint(0, 3), rng.randint(0, n)
        if n + k1 - l1 == 0 or n + k2 - l2 == 0:
            continue
        a = random_nonzero(rng, n, k1, l1)
        b = random_nonzero(rng, n, k2, l2)
        pairs += 1
        tf, tr = bracket_parts(a, b)
        direct = decompose(schouten(a, b))
        assert tf == direct.tracefree
        assert tr == direct.trace
    # even self-brackets through the specialized self-bracket route
    count = 0
    while count < 40:
        n = rng.choice([2, 3, 4])
        k = rng.randint(0, 3)
        ell = rng.choice([x for x in range(0, n + 1, 2)])
        if n + k - ell == 0:
            continue
        a = random_nonzero(rng, n, k, ell)
        count += 1
        tf, tr = self_bracket_parts(a)
        direct = decompose(schouten(a, a))
        assert tf == direct.tracefree
        assert tr == direct.trace


# -- criterion 4 -------------------------------------------------------------

@pytest.mark.criterion(4, "trace kernel/rank dimensions")
def test_criterion_4_dimension_formula():
    assert dim_irrep(3, 2, 1) == 15
    assert dim_irrep(3, 2, 2) == 10
    for n in (2, 3, 4):
        for ell in range(1, n):
            for k in range(0, 4):
                basis = [PolyVectorField.single(n, 1, e, i)
                         for e in monomial_exponents(n, k)
                         for i in combinations(range(1, n + 1), ell)]
                images = [trace_d(b) for b in basis]
                keys = sorted({key for im in images for key in im.terms})
                matrix = [[im.terms.get(key, Fraction(0)) for im in images] for key in keys]
                rank = linalg.rank(matrix)
                assert len(basis) - rank == dim_irrep(n, k, ell)
                expected_rank = dim_irrep(n, k - 1, ell - 1) if k >= 1 else 0
                assert rank == expected_rank


# -- criterion 5 -------------------------------------------------------------

@pytest.mark.criterion(5, "linear bi-vector family decomposition")
def test_criterion_5_linear_family():
    half = Fraction(1, 2)
    for alpha, beta in [(1, 3), (2, 5), (Fraction(1, 2), Fraction(-3, 7)),
                        (0, 1), (Fraction(7, 3), Fraction(-7, 3))]:
        parts = decompose(g_ab_bivector(alpha, beta))
        assert parts.tracefree == g_ab_bivector((alpha - beta) * half, (beta - alpha) * half)
        assert parts.trace_part == g_ab_bivector((alpha + beta) * half, (alpha + beta) * half)


# -- criterion 6 -------------------------------------------------------------

@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
def test_criterion_6_consistent_dimensions_and_spans():
    started = time.monotonic()
    kernel_a12 = centralizer_kernel(CASE_A12, 2)
    kernel_b2 = centralizer_kernel(CASE_B2, 2)
    kernel_c = centralizer_kernel(CASE_C, 2)
    kernel_d2 = centralizer_kernel(CASE_D2, 2)
    assert kernel_a12.dimension == 1
    assert kernel_b2.dimension == 8
    assert kernel_c.dimension == 4
    assert tracefree_projection(kernel_a12).dimension == 1
    assert tracefree_projection(kernel_b2).dimension == 6
    assert tracefree_projection(kernel_c).dimension == 3
    assert tracefree_projection(kernel_d2).dimension == 3
    assert same_span(tracefree_projection(kernel_a12).basis, fields_from(PRINTED_BASIS_A12))
    assert same_span(tracefree_projection(kernel_b2).basis, fields_from(PRINTED_BASIS_B2))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"catalog regression took {elapsed:.1f}s"


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
def test_criterion_6_all_generators_verified():
    for matrix in (CASE_A12, CASE_A2, CASE_B2, CASE_C, CASE_D2):
        case = cubic3_catalog(matrix)
        for g in case.generators:
            assert is_poisson(g)
            assert is_simple(g)
            assert generic_rank(g) == 2


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"published kernel dimension 6 for the zero-eigenvalue diagonal "
                          f"stratum; the kernel of [C, .] on quadratic vector fields is "
                          f"4-dimensional (see {LEDGER})")
def test_criterion_6_kernel_dimension_A2_as_published():
    assert centralizer_kernel(CASE_A2, 2).dimension == 6


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"published trace-free dimension 6 for the zero-eigenvalue "
                          f"diagonal stratum; the projection is 3-dimensional (see {LEDGER})")
def test_criterion_6_tracefree_dimension_A2_as_published():
    assert tracefree_projection(centralizer_kernel(CASE_A2, 2)).dimension == 6


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"published kernel dimension 3 for the rotation stratum; "
                          f"z^2 d3 also commutes, giving dimension 4 (see {LEDGER})")
def test_criterion_6_kernel_dimension_D2_as_published():
    assert centralizer_kernel(CASE_D2, 2).dimension == 3


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"published basis has 'x*y*dz - x^2*dy'; the kernel element is "
                          f"'x*y*dz + x^2*dy' (see {LEDGER})")
def test_criterion_6_span_C_as_published():
    assert same_span(tracefree_projection(centralizer_kernel(CASE_C, 2)).basis,
                     fields_from(PRINTED_BASIS_C_VERBATIM))


@pytest.mark.criterion(6, "dimension-3 cubic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"published basis lists z(x dx + y dy), which is not trace-free; "
                          f"the projection contains x*z*dx + y*z*dy - z^2*dz (see {LEDGER})")
def test_criterion_6_span_D2_as_published():
    assert same_span(tracefree_projection(centralizer_kernel(CASE_D2, 2)).basis,
                     fields_from(PRINTED_BASIS_D2_VERBATIM))


# -- criterion 7 -------------------------------------------------------------

@pytest.mark.criterion(7, "dimension-4 quadratic catalog regression")
def test_criterion_7_first_and_third_bullet():
    ker = compatible_cubic_oneforms(QUAD4_DIAGONAL)
    assert ker.dimension == 4
    assert same_span(ker.basis, quad4_diagonal_family())
    assert quartic_constraints(ker).is_identically_zero()

    ker3 = compatible_cubic_oneforms(QUAD4_ROTATION)
    assert ker3.dimension == 4
    assert same_span(ker3.basis, quad4_rotation_family())
    assert quartic_constraints(ker3).is_identically_zero()


def _nilpotent_family_constraints():
    space = SolutionSpace("printed 8-parameter family",
                          tuple(quad4_nilpotent_family()))
    return quartic_constraints(space)


def _two_sided_sampling(on_locus, second_branch, seed):
    """50 tuples on the locus must kill the square, 50 off it must not.

    ``second_branch`` pins b2 so the sampler exercises both components of the
    candidate locus, not just b1 = b2.
    """
    constraints = _nilpotent_family_constraints()
    rng = random.Random(seed)
    satisfying = violating = 0
    while satisfying < 50 or violating < 50:
        values = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        if rng.random() < 0.6:
            values[7] = values[6]
            if rng.random() < 0.5:
                values[3] = values[2]
            else:
                values[3] = second_branch(values)
        values = tuple(values)
        square_vanishes = constraints.vanishes_at(values)
        theta = quad4_nilpotent_theta(*values)
        dtheta = exterior_derivative(theta)
        assert square_vanishes == wedge_forms(dtheta, dtheta).is_zero()
        if on_locus(values):
            satisfying += 1
            assert square_vanishes, f"locus tuple {values} fails the square condition"
        else:
            violating += 1
            assert not square_vanishes, f"off-locus tuple {values} satisfies the square"


@pytest.mark.criterion(7, "dimension-4 quadratic catalog regression")
def test_criterion_7_second_bullet_recomputed_locus():
    assert compatible_cubic_oneforms(QUAD4_NILPOTENT).dimension == 8

    def on_locus(values):
        a1, a2, b1, b2, g1, g2, d1, d2 = values
        return d1 == d2 and (b1 - b2) * ((b1 - b2) + (g1 - g2)) == 0

    # b1 - b2 = -(g1 - g2) is the second component of the recomputed locus
    _two_sided_sampling(on_locus, lambda v: v[2] + v[4] - v[5], seed=107)


@pytest.mark.criterion(7, "dimension-4 quadratic catalog regression")
@pytest.mark.xfail(strict=True,
                   reason=f"the published relation reads (b1-b2)((b1-b2)+(g1+g2)) = 0 "
                          f"through a garbled parenthesis; the recomputed constraint set "
                          f"gives (g1-g2) in the second factor (see {LEDGER})")
def test_criterion_7_second_bullet_published_locus():
    def on_locus(values):
        a1, a2, b1, b2, g1, g2, d1, d2 = values
        return d1 == d2 and (b1 - b2) * ((b1 - b2) + (g1 + g2)) == 0

    # b1 - b2 = -(g1 + g2) lands on the published second component
    _two_sided_sampling(on_locus, lambda v: v[2] + v[4] + v[5], seed=108)


# -- criterion 8 -------------------------------------------------------------

@pytest.mark.criterion(8, "Jacobi round trip over catalog structures")
def test_criterion_8_jacobi_round_trip():
    zero = PolyVectorField.zero(3)
    for matrix in (CASE_A12, CASE_A2, CASE_B2, CASE_C, CASE_D2):
        for generator in cubic3_catalog(matrix).generators:
            parts = decompose(generator)
            identity_pair = JacobiPair(generator, zero)
            assert is_jacobi(identity_pair)
            tracefree_pair = JacobiPair(parts.tracefree, parts.trace.scale(Fraction(-1, 4)))
            assert is_jacobi(tracefree_pair)
            assert poisson_from_jacobi(tracefree_pair) == generator


# -- criterion 9 -------------------------------------------------------------

@pytest.mark.criterion(9, "dimension-2 bi-vector property")
def test_criterion_9_dimension_two():
    rng = random.Random(109)
    for _ in range(100):
        m = rng.randint(1, 4)
        a = random_nonzero(rng, 2, m, 2, nterms=rng.choice([1, 2, 3]))
        assert is_poisson(a)
        assert decompose(a).tracefree.is_zero()


# -- criterion 10 ------------------------------------------------------------

@pytest.mark.criterion(10, "linear equivariance of the trace")
def test_criterion_10_equivariance():
    rng = random.Random(110)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        l_matrix = random_invertible(rng, n)
        det = l_matrix.det()
        a = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        assert trace_d(pushforward(l_matrix, a)) == pushforward(l_matrix, trace_d(a)).scale(det)
        parts = decompose(a)
        moved = decompose(pushforward(l_matrix, a))
        assert moved.tracefree == pushforward(l_matrix, parts.tracefree)
        assert moved.trace == pushforward(l_matrix, parts.trace).scale(det)


# -- criterion 11 ------------------------------------------------------------

@pytest.mark.criterion(11, "command line interface")
def test_criterion_11_cli():
    assert len(CANONICAL_FIXTURES) >= 50
    for text in CANONICAL_FIXTURES:
        ast = parse_expr(text, 3)
        assert parse_expr(format_expr(ast.to_field()), 3) == ast
    assert call(["trace", "--dim", "3", "x1*d1 + x2*d2 + x3*d3"])[:2] == (0, "3")
    assert call(["check-poisson", "--dim", "3", "x1*d1/\\d2 + x2*d2/\\d3"])[:2] == (1, "false")
    assert call(["dim-irrep", "3", "2", "2"])[:2] == (0, "10")
