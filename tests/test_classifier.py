import random
from fractions import Fraction

import pytest

from polyvec import (
    DimensionError,
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    PreconditionError,
    build_quadratic_poisson,
    centralizer_kernel,
    compatible_cubic_oneforms,
    cubic3_catalog,
    decompose,
    dim_irrep,
    exterior_derivative,
    from_form,
    generic_rank,
    is_poisson,
    is_simple,
    lie_derivative_form,
    linalg,
    matrix_action_field,
    pushforward,
    quad4_catalog,
    quartic_constraints,
    same_span,
    schouten,
    tracefree_projection,
    trace_d,
    wedge_forms,
)
from polyvec.classifier import CUBIC4_DISPLAY_ORDER, SolutionSpace, monomial_exponents
from util import (
    BASIS_C_CORRECTED,
    BASIS_D2_CORRECTED,
    CASE_A12,
    CASE_A2,
    CASE_A3,
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
    centralizer_kernel_by_basis,
    compatible_cubic_oneforms_by_basis,
    fields_from,
    pv,
    quad4_diagonal_family,
    quad4_nilpotent_family,
    quad4_nilpotent_theta,
    quad4_rotation_family,
    random_invertible,
    tuple_nums,
)

# Kernel and trace-free dimensions recomputed exactly for the five printed
# strata.  Two catalog entries are misprinted at the source: the middle
# stratum with one zero eigenvalue has a 4-dimensional kernel (projection 3),
# and z^2 d3 commutes with the rotation block, making that kernel
# 4-dimensional as well.  The acceptance suite carries the printed values as
# expected failures; these are the mathematically verified ones.
TRUE_DIMENSIONS = {
    "A12": (CASE_A12, 1, 1),
    "A2": (CASE_A2, 4, 3),
    "B2": (CASE_B2, 8, 6),
    "C": (CASE_C, 4, 3),
    "D2": (CASE_D2, 4, 3),
}


@pytest.mark.parametrize("label", sorted(TRUE_DIMENSIONS))
def test_centralizer_kernel_dimensions(label):
    matrix, kernel_dim, tracefree_dim = TRUE_DIMENSIONS[label]
    kernel = centralizer_kernel(matrix, 2)
    assert kernel.dimension == kernel_dim
    assert tracefree_projection(kernel).dimension == tracefree_dim


@pytest.mark.parametrize("label", sorted(TRUE_DIMENSIONS))
def test_kernel_elements_satisfy_defining_equation(label):
    matrix, _, _ = TRUE_DIMENSIONS[label]
    c_field = matrix_action_field(matrix)
    kernel = centralizer_kernel(matrix, 2)
    for a in kernel.basis:
        assert schouten(c_field, a).is_zero()


def test_trace_free_basis_spans():
    assert same_span(tracefree_projection(centralizer_kernel(CASE_A12, 2)).basis,
                     fields_from(PRINTED_BASIS_A12))
    assert same_span(tracefree_projection(centralizer_kernel(CASE_B2, 2)).basis,
                     fields_from(PRINTED_BASIS_B2))
    assert same_span(tracefree_projection(centralizer_kernel(CASE_C, 2)).basis,
                     fields_from(BASIS_C_CORRECTED))
    assert same_span(tracefree_projection(centralizer_kernel(CASE_D2, 2)).basis,
                     fields_from(BASIS_D2_CORRECTED))
    # the misprinted variants really do span something else
    assert not same_span(tracefree_projection(centralizer_kernel(CASE_C, 2)).basis,
                         fields_from(PRINTED_BASIS_C_VERBATIM))
    assert not same_span(tracefree_projection(centralizer_kernel(CASE_D2, 2)).basis,
                         fields_from(PRINTED_BASIS_D2_VERBATIM))


def test_rotation_stratum_kernel_contains_extra_element():
    # z^2 d3 commutes with x d2 - y d1 but is not trace-free
    extra = pv("x3^2*d3", 3)
    assert schouten(matrix_action_field(CASE_D2), extra).is_zero()
    assert not trace_d(extra).is_zero()
    kernel = centralizer_kernel(CASE_D2, 2)
    assert same_span(list(kernel.basis),
                     fields_from(PRINTED_BASIS_D2_VERBATIM) + [extra])


def test_tracefree_projection_fixes_tracefree_spaces():
    space = tracefree_projection(centralizer_kernel(CASE_B2, 2))
    again = tracefree_projection(SolutionSpace("already trace-free", space.basis))
    assert same_span(space.basis, again.basis)


def test_solution_space_rejects_a_rescaled_copy():
    u = pv("1/2*x1^2*d2 + 3/7*x2*x3*d1", 3)
    with pytest.raises(PreconditionError):
        SolutionSpace("dependent", (u, u.scale(Fraction(-5, 9))))
    assert SolutionSpace("independent", (u, pv("x1*x3*d3", 3))).dimension == 2


def test_catalog_spaces_are_not_ranked_again(monkeypatch):
    """Kernel and trace-free bases come from nullspace and rref, independent
    by construction, so the catalogs rank none of them; the public
    constructor still checks its basis."""
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(rows) or real(rows))
    cubic3_catalog(CASE_A12)
    quad4_catalog(QUAD4_NILPOTENT)
    assert calls == []
    u = pv("x1^2*d2", 3)
    with pytest.raises(PreconditionError):
        SolutionSpace("dependent", (u, u.scale(3)))
    assert len(calls) == 1


def test_rescaling_by_non_unit_fractions_changes_no_span_or_projection():
    kernel = centralizer_kernel(CASE_B2, 2)
    factors = [Fraction(-5, 9), Fraction(7, 2), Fraction(3), Fraction(-1, 11)]
    rescaled = [b.scale(factors[i % len(factors)]) for i, b in enumerate(kernel.basis)]
    assert same_span(kernel.basis, rescaled) and same_span(rescaled, kernel.basis)
    assert not same_span(kernel.basis, rescaled[1:])
    again = tracefree_projection(SolutionSpace("rescaled", tuple(rescaled)))
    assert again.basis == tracefree_projection(kernel).basis


def test_cubic3_catalog_single_solution_stratum():
    case = cubic3_catalog(CASE_A12)
    assert case.kernel.dimension == 1
    assert same_span(case.tracefree_basis, fields_from(PRINTED_BASIS_A12))
    assert len(case.generators) == 1
    assert case.generators[0] == pv("-5/4*x1^3*d1/\\d2 - 11/4*x1^2*x3*d2/\\d3", 3)


def test_cubic3_catalog_zero_matrix_gives_all_tracefree_fields():
    case = cubic3_catalog(CASE_A3)
    assert case.kernel.dimension == 18
    assert len(case.tracefree_basis) == dim_irrep(3, 2, 1) == 15
    assert len(case.generators) == 15


@pytest.mark.parametrize("label", sorted(TRUE_DIMENSIONS))
def test_cubic3_catalog_generators_verified(label):
    matrix, _, _ = TRUE_DIMENSIONS[label]
    case = cubic3_catalog(matrix)
    for g in case.generators:
        assert is_poisson(g)
        assert is_simple(g)
        assert generic_rank(g) == 2


def test_cubic3_catalog_rejects_traceful_matrix():
    with pytest.raises(PreconditionError):
        cubic3_catalog(LinearMatrix.diagonal([1, 1, 1]))
    with pytest.raises(DimensionError):
        cubic3_catalog(LinearMatrix.diagonal([1, -1]))


def test_cubic3_equivariance_under_linear_maps():
    # transporting a catalog matches the catalog of the conjugated stratum;
    # the matrix conjugation pairing with the row-convention action is
    # C -> L^T C L^-T when fields move by pushforward(L, .)
    rng = random.Random(51)
    for matrix in (CASE_A12, CASE_D2):
        for _ in range(3):
            l_matrix = random_invertible(rng, 3, bound=2)
            lt = l_matrix.transpose()
            conjugated = lt.matmul(matrix).matmul(lt.inverse())
            moved = [pushforward(l_matrix, a0)
                     for a0 in cubic3_catalog(matrix).tracefree_basis]
            direct = cubic3_catalog(conjugated).tracefree_basis
            assert same_span(moved, direct)


def test_compatible_cubic_oneforms_dimensions_and_spans():
    ker = compatible_cubic_oneforms(QUAD4_DIAGONAL)
    assert ker.dimension == 4
    assert same_span(ker.basis, quad4_diagonal_family())

    ker = compatible_cubic_oneforms(QUAD4_NILPOTENT)
    assert ker.dimension == 8
    assert same_span(ker.basis, quad4_nilpotent_family())

    ker = compatible_cubic_oneforms(QUAD4_ROTATION)
    assert ker.dimension == 4
    assert same_span(ker.basis, quad4_rotation_family())


def test_compatible_oneforms_satisfy_defining_equation():
    for matrix in (QUAD4_DIAGONAL, QUAD4_NILPOTENT, QUAD4_ROTATION):
        a_field = matrix_action_field(matrix)
        for theta in compatible_cubic_oneforms(matrix).basis:
            assert lie_derivative_form(a_field, theta).is_zero()


def test_oneform_basis_has_eighty_elements():
    """The 80 keys x^(mno) dx^k, k major, are distinct and cover every cubic
    1-form term; for A = 0 each unit 1-form is a kernel element, in key
    order."""
    keys = [(exp, (k,)) for k in range(1, 5) for exp in CUBIC4_DISPLAY_ORDER]
    assert len(set(keys)) == 80
    assert sorted(CUBIC4_DISPLAY_ORDER) == sorted(monomial_exponents(4, 3))
    kernel = compatible_cubic_oneforms(LinearMatrix.diagonal([0, 0, 0, 0]))
    assert [tuple_nums(theta) for theta in kernel.basis] == [{key: 1} for key in keys]
    assert all(theta.den == 1 for theta in kernel.basis)


CUBIC3_STRATA = {"A12": CASE_A12, "A2": CASE_A2, "A3": CASE_A3,
                 "B2": CASE_B2, "C": CASE_C, "D2": CASE_D2}
QUAD4_STRATA = {"diagonal": QUAD4_DIAGONAL, "nilpotent": QUAD4_NILPOTENT,
                "rotation": QUAD4_ROTATION, "zero": LinearMatrix.diagonal([0, 0, 0, 0])}


def _stratum_kernel(label):
    """The kernel call of a catalog stratum and its oracle on validated basis
    objects: [C, A] = 0 on quadratic fields in dimension three, L_A theta = 0
    on cubic 1-forms in dimension four."""
    if label in CUBIC3_STRATA:
        matrix = CUBIC3_STRATA[label]
        return (lambda: centralizer_kernel(matrix, 2),
                lambda: centralizer_kernel_by_basis(matrix, 2))
    matrix = QUAD4_STRATA[label]
    return (lambda: compatible_cubic_oneforms(matrix),
            lambda: compatible_cubic_oneforms_by_basis(matrix))


def _assert_same_kernel(space, oracle):
    assert [type(b) for b in space.basis] == [type(b) for b in oracle]
    assert list(space.basis) == oracle


def _rational_tracefree(rng, n):
    """Seeded rational n x n matrix with trace zero, about half its
    off-diagonal entries zero."""
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if i == j or rng.random() < 0.5
             else Fraction(0) for j in range(n)] for i in range(n)]
    rows[-1][-1] -= sum(rows[i][i] for i in range(n))
    return LinearMatrix(rows)


@pytest.mark.parametrize("label", sorted(CUBIC3_STRATA) + sorted(QUAD4_STRATA))
def test_stratum_kernels_equal_the_basis_oracle(label):
    kernel, oracle = _stratum_kernel(label)
    _assert_same_kernel(kernel(), oracle())


def test_seeded_kernels_equal_the_basis_oracle():
    """Same type, order and elements as the operator solved on basis objects:
    centralizers at k = 0..3 of seeded rational trace-free 3 x 3 matrices,
    and compatible cubic 1-forms of seeded rational conjugates of the
    dimension-four strata."""
    rng = random.Random(15)
    dims = set()
    for k in range(4):
        for _ in range(3):
            matrix = _rational_tracefree(rng, 3)
            space = centralizer_kernel(matrix, k)
            _assert_same_kernel(space, centralizer_kernel_by_basis(matrix, k))
            dims.add(space.dimension)
    for stratum in (QUAD4_DIAGONAL, QUAD4_NILPOTENT, QUAD4_ROTATION):
        l_matrix = random_invertible(rng, 4, bound=2)
        matrix = l_matrix.matmul(stratum).matmul(l_matrix.inverse())
        assert matrix.trace() == 0
        space = compatible_cubic_oneforms(matrix)
        _assert_same_kernel(space, compatible_cubic_oneforms_by_basis(matrix))
        dims.add(space.dimension)
    assert 0 in dims and len(dims) > 2


@pytest.mark.parametrize("label", sorted(CUBIC3_STRATA) + sorted(QUAD4_STRATA))
def test_kernel_runs_the_checked_constructor_once_per_element(monkeypatch, label):
    """The operator's units and images skip the validating constructor: one
    call builds the operator's linear field and one each kernel element."""
    from polyvec import fields
    calls = []
    real = fields._SparseTerms.__init__

    def counting(self, *args):
        calls.append(type(self))
        real(self, *args)

    monkeypatch.setattr(fields._SparseTerms, "__init__", counting)
    kernel, _ = _stratum_kernel(label)
    space = kernel()
    assert len(calls) <= space.dimension + 1


def test_quartic_constraints_identically_zero_families():
    assert quartic_constraints(compatible_cubic_oneforms(QUAD4_DIAGONAL)).is_identically_zero()
    assert quartic_constraints(compatible_cubic_oneforms(QUAD4_ROTATION)).is_identically_zero()


def test_quartic_constraints_nilpotent_zero_locus():
    # in the printed parameters the zero locus is
    #   d1 - d2 = 0  and  (b1 - b2)((b1 - b2) + (g1 - g2)) = 0
    # (recomputation fixes the garbled sign printed in the source list)
    space = SolutionSpace("printed 8-parameter family",
                          tuple(quad4_nilpotent_family()))
    constraints = quartic_constraints(space)
    rng = random.Random(52)

    def on_locus(values):
        a1, a2, b1, b2, g1, g2, d1, d2 = values
        return d1 == d2 and (b1 - b2) * ((b1 - b2) + (g1 - g2)) == 0

    satisfying = 0
    violating = 0
    while satisfying < 50 or violating < 50:
        values = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        if rng.random() < 0.6:
            values[7] = values[6]
            if rng.random() < 0.5:
                values[3] = values[2]
            else:
                values[3] = values[2] + values[4] - values[5]
        values = tuple(values)
        if on_locus(values):
            if satisfying < 50:
                satisfying += 1
                assert constraints.vanishes_at(values)
                theta = quad4_nilpotent_theta(*values)
                dtheta = exterior_derivative(theta)
                assert wedge_forms(dtheta, dtheta).is_zero()
        else:
            if violating < 50:
                violating += 1
                assert not constraints.vanishes_at(values)
                theta = quad4_nilpotent_theta(*values)
                dtheta = exterior_derivative(theta)
                assert not wedge_forms(dtheta, dtheta).is_zero()


def test_constraint_evaluation_matches_direct_square():
    # vanishing of the constraint set must equal d theta /\ d theta = 0 for
    # arbitrary parameter tuples of the computed kernel basis
    rng = random.Random(53)
    ker = compatible_cubic_oneforms(QUAD4_NILPOTENT)
    constraints = quartic_constraints(ker)
    for _ in range(30):
        values = [Fraction(rng.randint(-3, 3)) for _ in range(ker.dimension)]
        theta = PolyDifferentialForm.zero(4)
        for c, b in zip(values, ker.basis):
            if c:
                theta = theta + b.scale(c)
        dtheta = exterior_derivative(theta)
        assert constraints.vanishes_at(values) == wedge_forms(dtheta, dtheta).is_zero()


def test_constraint_evaluation_refuses_floats():
    constraints = quartic_constraints(compatible_cubic_oneforms(QUAD4_NILPOTENT))
    values = [0] * len(constraints.parameters)
    assert constraints.vanishes_at(values)
    with pytest.raises(TypeError):
        constraints.evaluate([0.1] + values[1:])


def test_build_quadratic_poisson_exact_form_gives_pure_trace():
    quartic = PolyDifferentialForm(4, {((1, 1, 1, 1), ()): 1})
    theta = exterior_derivative(quartic)
    zero_matrix = LinearMatrix.diagonal([0, 0, 0, 0])
    assert build_quadratic_poisson(theta, zero_matrix).is_zero()


def test_build_quadratic_poisson_diagonal_fixture():
    theta = quad4_diagonal_family()[0]
    for extra in quad4_diagonal_family()[1:]:
        theta = theta + extra
    # all-ones theta is d(txyz), so the structure is the pure trace part
    assert exterior_derivative(theta).is_zero()
    pi = build_quadratic_poisson(theta, QUAD4_DIAGONAL)
    assert pi == PolyVectorField(4, {
        ((1, 1, 0, 0), (1, 2)): Fraction(-1, 4),
        ((1, 0, 1, 0), (1, 3)): Fraction(-3, 4),
        ((1, 0, 0, 1), (1, 4)): 2,
        ((0, 1, 1, 0), (2, 3)): Fraction(-1, 2),
        ((0, 1, 0, 1), (2, 4)): Fraction(9, 4),
        ((0, 0, 1, 1), (3, 4)): Fraction(11, 4),
    })
    assert is_poisson(pi)
    assert decompose(pi).trace == matrix_action_field(QUAD4_DIAGONAL)


def test_build_quadratic_poisson_nilpotent_sample_structure():
    # the printed sample shape: alpha ty dx/\dz + beta Psi^-1(d(ty)/\d(tz-xy))
    # with alpha = 2(a1 - a2) and beta = b1 - g1 at b1=b2, g1=g2, d1=d2
    a1, a2, b, g, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7), Fraction(11)
    theta = quad4_nilpotent_theta(a1, a2, b, b, g, g, d, d)
    pi = build_quadratic_poisson(theta, QUAD4_NILPOTENT)
    pi_theta = decompose(pi).tracefree
    ty = PolyDifferentialForm(4, {((1, 0, 1, 0), ()): 1})
    tz_xy = PolyDifferentialForm(4, {((1, 0, 0, 1), ()): 1, ((0, 1, 1, 0), ()): -1})
    pair_block = from_form(wedge_forms(exterior_derivative(ty), exterior_derivative(tz_xy)))
    expected = pv("x1*x3*d2/\\d4", 4).scale(2 * (a1 - a2)) + pair_block.scale(b - g)
    assert pi_theta == expected


def test_build_quadratic_poisson_precondition_failures():
    theta = quad4_diagonal_family()[0]
    with pytest.raises(PreconditionError, match=r"\(i\)"):
        build_quadratic_poisson(theta, QUAD4_NILPOTENT)
    bad = quad4_nilpotent_theta(1, 0, 1, 0, 0, 0, 0, 0)
    dtheta = exterior_derivative(bad)
    assert not wedge_forms(dtheta, dtheta).is_zero()
    with pytest.raises(PreconditionError, match=r"\(ii\)"):
        build_quadratic_poisson(bad, QUAD4_NILPOTENT)


def test_quad4_catalog_document_roundtrip():
    case = quad4_catalog(QUAD4_DIAGONAL)
    assert case.kernel.dimension == 4
    assert case.constraints.is_identically_zero()
    assert len(case.generators) == 4
    for g in case.generators:
        assert is_poisson(g)
    for pi in case.tracefree_basis:
        assert trace_d(pi).is_zero()


def _count_calls(monkeypatch, module, names):
    """Wrap each named attribute of ``module`` so its calls are counted."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(module, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counting)
    return counts


# L D L^-1 for the diagonal stratum D and L with det 2: a rational stratum
QUAD4_CONJUGATE = LinearMatrix([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
QUAD4_CONJUGATE = QUAD4_CONJUGATE.matmul(QUAD4_DIAGONAL).matmul(QUAD4_CONJUGATE.inverse())


def _count_brackets(monkeypatch):
    """Count the operators ``[C, .]`` that ``classifier`` builds through
    ``fields._bracket_with``, the one Schouten kernel, and the brackets that
    they make."""
    from polyvec import classifier, fields
    counts = {"operators": 0, "brackets": 0}

    def building(u):
        counts["operators"] += 1
        bracket = fields._bracket_with(u)

        def counting(v):
            counts["brackets"] += 1
            return bracket(v)
        return counting

    monkeypatch.setattr(classifier, "_bracket_with", building)
    return counts


@pytest.mark.parametrize("matrix", [QUAD4_DIAGONAL, QUAD4_NILPOTENT, QUAD4_ROTATION,
                                    LinearMatrix.diagonal([0, 0, 0, 0]), QUAD4_CONJUGATE],
                         ids=["diagonal", "nilpotent", "rotation", "zero", "conjugate"])
def test_quad4_catalog_builds_each_object_once(monkeypatch, matrix):
    """One d theta per kernel element, one operator [A, Psi^-1 .] that
    brackets only the 80 basis forms through the Schouten kernel (no Cartan
    formula), one trace term per stratum, no wedge of forms (condition (ii)
    is read off the quartic constraints), no trip through the checked public
    constructor, and one Poisson check per generator."""
    from polyvec import classifier
    brackets = _count_brackets(monkeypatch)
    counts = _count_calls(monkeypatch, classifier, [
        "build_quadratic_poisson", "wedge_forms", "exterior_derivative",
        "lie_derivative_form", "wedge", "is_poisson"])
    case = quad4_catalog(matrix)
    assert len(case.generators) > 0
    assert brackets == {"operators": 1, "brackets": 80}
    assert counts == {
        "build_quadratic_poisson": 0, "wedge_forms": 0,
        "exterior_derivative": case.kernel.dimension, "lie_derivative_form": 0,
        "wedge": 1, "is_poisson": len(case.generators)}


@pytest.mark.parametrize("label", sorted(CUBIC3_STRATA))
def test_cubic3_catalog_builds_each_object_once(monkeypatch, label):
    """One operator [C, .] that brackets only the 18 quadratic unit vector
    fields through the Schouten kernel, one trace-free part per kernel
    element, one wedge and one Poisson check per generator."""
    from polyvec import classifier
    brackets = _count_brackets(monkeypatch)
    counts = _count_calls(monkeypatch, classifier, ["decompose", "wedge", "is_poisson"])
    case = cubic3_catalog(CUBIC3_STRATA[label])
    assert len(case.generators) > 0
    assert brackets == {"operators": 1, "brackets": 18}
    assert counts == {"decompose": case.kernel.dimension,
                      "wedge": len(case.generators), "is_poisson": len(case.generators)}


@pytest.mark.parametrize("label", sorted(CUBIC3_STRATA) + sorted(QUAD4_STRATA))
def test_kernel_buckets_its_operator_once(monkeypatch, label):
    """The derivative buckets of the operator's linear field are built once
    per kernel and those of each unit once: units + 1 in all."""
    from polyvec import fields
    calls = []
    real = fields._derivative_buckets

    def counting(dim, nums):
        calls.append(nums)
        return real(dim, nums)

    monkeypatch.setattr(fields, "_derivative_buckets", counting)
    kernel, _ = _stratum_kernel(label)
    kernel()
    assert len(calls) == (18 if label in CUBIC3_STRATA else 80) + 1


@pytest.mark.parametrize("label", sorted(CUBIC3_STRATA) + sorted(QUAD4_STRATA) + ["conjugate"])
def test_kernel_normalises_no_image_and_takes_no_form_route(monkeypatch, label):
    """The kernel rows are read off the raw totals of the unit brackets:
    ``_normalised`` runs once for the operator's linear field and once for
    each kernel element, never for an image, and Psi^-1 of a unit 1-form is
    a signed unit group, not a call of ``from_form``."""
    from polyvec import classifier, duality, fields
    normalised = _count_calls(monkeypatch, fields, ["_normalised"])
    forms = [_count_calls(monkeypatch, module, ["from_form"]) for module in (classifier, duality)]
    if label == "conjugate":
        space = compatible_cubic_oneforms(QUAD4_CONJUGATE)
    else:
        space = _stratum_kernel(label)[0]()
    assert normalised == {"_normalised": space.dimension + 1}
    assert forms == [{"from_form": 0}, {"from_form": 0}]


def test_quad4_catalog_generators_match_the_checked_constructor():
    """The assembled generators equal build_quadratic_poisson on the same
    kernel elements, which re-checks conditions (i) and (ii)."""
    for matrix in (QUAD4_NILPOTENT, QUAD4_CONJUGATE):
        case = quad4_catalog(matrix)
        built = [build_quadratic_poisson(theta, matrix) for i, theta in
                 enumerate(case.kernel.basis) if case.constraints.vanishes_at(
                     [int(j == i) for j in range(case.kernel.dimension)])]
        assert list(case.generators) == built


@pytest.mark.parametrize("name, fake", [("is_poisson", lambda p: False),
                                        ("generic_rank", lambda p: 0)])
def test_catalogs_raise_their_internal_checks(monkeypatch, name, fake):
    from polyvec import classifier
    monkeypatch.setattr(classifier, name, fake)
    with pytest.raises(PreconditionError, match="internal check failed"):
        cubic3_catalog(CASE_A12)
    if name == "is_poisson":
        with pytest.raises(PreconditionError, match="internal check failed"):
            quad4_catalog(QUAD4_DIAGONAL)
    else:
        # the quad4 rank flag is recorded, not required
        assert {flags[2] for flags in quad4_catalog(QUAD4_DIAGONAL).generator_flags} == {0}


def test_quad4_equivariance_under_linear_maps():
    rng = random.Random(54)
    for _ in range(2):
        l_matrix = random_invertible(rng, 4, bound=1)
        lt = l_matrix.transpose()
        conjugated = lt.matmul(QUAD4_DIAGONAL).matmul(lt.inverse())
        moved = [pushforward(l_matrix, pi)
                 for pi in quad4_catalog(QUAD4_DIAGONAL).tracefree_basis]
        direct = quad4_catalog(conjugated).tracefree_basis
        assert same_span(moved, direct)
