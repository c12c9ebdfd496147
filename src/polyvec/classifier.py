"""Exact kernel computations behind the low-dimension catalogs.

Dimension three, cubic: solve [C, A] = 0 on quadratic vector fields for a
trace-free linear C, project onto the trace-free part and emit the simple
Poisson structures A0 /\\ (C + e^(3,2)).

Dimension four, quadratic: solve L_A theta = 0 on the 80-dimensional space
of cubic 1-forms, derive the quadratic coefficient constraints of
d theta /\\ d theta = 0, and build Poisson structures Psi^-1(d theta) + A /\\ e^(2,2).
For linear A the volume duality Psi turns the Lie derivative into a bracket,
L_A theta = Psi[A, Psi^-1 theta] + tr(A) theta, and A is trace-free, so the
kernel equation is [A, Psi^-1 theta] = 0: both catalogs solve [C, U] = 0
through the one ``schouten`` kernel.  ``lie_derivative_form`` (the Cartan
formula) stays the independent route of ``build_quadratic_poisson``.

Throughout, a matrix C acts on coordinates in the row convention
x -> x C, i.e. as the vector field sum_ij C[i][j] x_i d_j; that convention is
what reproduces the printed kernel bases of the catalog strata.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Optional

from .errors import DimensionError, PreconditionError
from . import linalg
from .fields import (
    LinearMatrix,
    PolyVectorField,
    _frac,
    _integer_terms,
    _sort_with_sign,
    euler,
    linear_vector_field,
    schouten,
    wedge,
)
from .duality import (
    PolyDifferentialForm,
    exterior_derivative,
    from_form,
    lie_derivative_form,
    wedge_forms,
)
from .decomposition import decompose
from .structures import generic_rank, is_poisson, is_simple


def monomial_exponents(n, k):
    """All exponent tuples of total degree k in n variables (deterministic)."""
    if n == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in monomial_exponents(n - 1, k - first):
            out.append((first,) + rest)
    return out


# The 20 cubic monomials in dimension four, in the catalog display order
# (coordinate digits over (t, x, y, z)):
# 012 013 023 123 001 002 003 110 112 113 220 221 223 330 331 332 000 111 222 333
CUBIC4_DISPLAY_ORDER = [
    (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    (2, 1, 0, 0), (2, 0, 1, 0), (2, 0, 0, 1),
    (1, 2, 0, 0), (0, 2, 1, 0), (0, 2, 0, 1),
    (1, 0, 2, 0), (0, 1, 2, 0), (0, 0, 2, 1),
    (1, 0, 0, 2), (0, 1, 0, 2), (0, 0, 1, 2),
    (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
]


def _coordinatize(elements):
    """Sparse coordinate rows ``{column: coefficient}`` of fields/forms, the
    columns numbering the sorted union of their term keys."""
    keys = sorted({key for el in elements for key in el.terms})
    column = {key: c for c, key in enumerate(keys)}
    rows = [{column[key]: v for key, v in el.terms.items()} for el in elements]
    return keys, rows


def same_span(elements_a, elements_b):
    """Do two families of fields (or forms) span the same subspace?"""
    elements_a = list(elements_a)
    keys, rows = _coordinatize(elements_a + list(elements_b))
    if not keys:
        return True
    split = len(elements_a)
    return linalg.span_equal(rows[:split], rows[split:], len(keys))


def _combine(basis, vector):
    out = basis[0].scale(vector[0])
    for b, c in zip(basis[1:], vector[1:]):
        if c:
            out = out + b.scale(c)
    return out


def _operator_kernel(basis, operator):
    """Exact nullspace of a linear operator given by its action on a basis.

    The matrix has one sparse row per term key of the images: row ``key``
    maps the index of each basis element to the coefficient of ``key`` in its
    image, so it goes to ``linalg.nullspace`` without a dense transpose.
    """
    rows = {}
    for j, b in enumerate(basis):
        for key, c in operator(b).terms.items():
            rows.setdefault(key, {})[j] = c
    vectors = linalg.nullspace(list(rows.values()), len(basis))
    return [_combine(basis, v) for v in vectors]


@dataclass(frozen=True)
class SolutionSpace:
    """An exactly computed solution space with an independent basis."""

    ambient: str
    basis: tuple

    def __post_init__(self):
        _, rows = _coordinatize(self.basis)
        if self.basis and linalg.rank(rows) != len(self.basis):
            raise PreconditionError("solution space basis is linearly dependent")
        object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def dimension(self):
        return len(self.basis)


@dataclass(frozen=True)
class QuadraticConstraintSet:
    """Quadratic relations among family parameters c_1..c_m.

    Each constraint is a mapping (i, j) -> coefficient with i <= j standing
    for the monomial c_i c_j; a parameter tuple lies on the zero locus iff it
    annihilates every constraint.
    """

    parameters: tuple
    constraints: tuple

    def evaluate(self, values):
        values = [_frac(v) for v in values]
        if len(values) != len(self.parameters):
            raise DimensionError(
                f"expected {len(self.parameters)} parameter values, got {len(values)}")
        out = []
        for constraint in self.constraints:
            total = Fraction(0)
            for (i, j), c in constraint.items():
                total += c * values[i] * values[j]
            out.append(total)
        return out

    def vanishes_at(self, values):
        return all(v == 0 for v in self.evaluate(values))

    def is_identically_zero(self):
        return all(not constraint for constraint in self.constraints)


@dataclass(frozen=True)
class ClassificationCase:
    """One catalog stratum: kernel, trace-free projection and generators.

    ``generator_flags`` holds one verified ``(poisson, simple, rank)`` tuple
    per generator, so documents need not recompute them.
    """

    matrix: LinearMatrix
    kernel: SolutionSpace
    tracefree_basis: tuple
    constraints: Optional[QuadraticConstraintSet]
    generators: tuple
    generator_flags: tuple


def matrix_action_field(matrix):
    """Vector field of the row-convention action x -> x M."""
    return linear_vector_field(matrix.transpose())


def centralizer_kernel(c_matrix, k):
    """Basis of {A in P^(k,1) : [C, A] = 0} by exact elimination."""
    if k < 0:
        raise PreconditionError(f"polynomial degree must be >= 0, got {k}")
    n = c_matrix.dim
    c_field = matrix_action_field(c_matrix)
    basis = [
        PolyVectorField.single(n, 1, exp, (j,))
        for exp in monomial_exponents(n, k)
        for j in range(1, n + 1)
    ]
    kernel = _operator_kernel(basis, lambda a: schouten(c_field, a))
    return SolutionSpace(f"P^({k},1) in dimension {n}", tuple(kernel))


def tracefree_projection(space):
    """Independent basis of the trace-free parts of a solution space."""
    projected = [decompose(a).tracefree for a in space.basis]
    projected = [p for p in projected if not p.is_zero()]
    if not projected:
        return SolutionSpace(f"trace-free part of {space.ambient}", ())
    keys, rows = _coordinatize(projected)
    reduced, _ = linalg.rref(rows)
    dim = projected[0].dim
    fields = [PolyVectorField._from_canonical(dim, {keys[c]: v for c, v in row.items()})
              for row in reduced]
    return SolutionSpace(f"trace-free part of {space.ambient}", tuple(fields))


def _catalog_case(matrix, kernel, tracefree_basis, constraints, generators):
    """The stratum's ``ClassificationCase``, each generator verified once:
    it must be Poisson, and its ``(True, simple, rank)`` flags are recorded."""
    flags = []
    for pi in generators:
        if not is_poisson(pi):
            raise PreconditionError(
                "internal check failed: assembled structure is not Poisson")
        flags.append((True, is_simple(pi), generic_rank(pi)))
    return ClassificationCase(
        matrix=matrix,
        kernel=kernel,
        tracefree_basis=tuple(tracefree_basis),
        constraints=constraints,
        generators=tuple(generators),
        generator_flags=tuple(flags),
    )


def cubic3_catalog(c_matrix):
    """Simple cubic Poisson structures A0 /\\ (C + e^(3,2)) for one stratum."""
    if c_matrix.dim != 3:
        raise DimensionError("cubic catalog lives in dimension 3")
    if c_matrix.trace() != 0:
        raise PreconditionError("stratum matrix must be trace-free")
    kernel = centralizer_kernel(c_matrix, 2)
    tracefree = tracefree_projection(kernel).basis
    pivot = matrix_action_field(c_matrix) + euler(3, 3, 2)
    case = _catalog_case(c_matrix, kernel, tracefree, None,
                         [wedge(a0, pivot) for a0 in tracefree])
    if any(flags != (True, True, 2) for flags in case.generator_flags):
        raise PreconditionError(
            "internal check failed: emitted generator is not a simple rank-two "
            "Poisson structure")
    return case


def cubic_oneform_basis():
    """The 80 basis 1-forms theta = x^(mno) dx^k in display order, k major."""
    basis = []
    for k in range(1, 5):
        for exp in CUBIC4_DISPLAY_ORDER:
            basis.append(PolyDifferentialForm(4, {(exp, (k,)): Fraction(1)}))
    return basis


def compatible_cubic_oneforms(a_matrix):
    """Kernel of theta -> L_A theta on cubic 1-forms in dimension four.

    Volume duality intertwines the two operators: for linear A,
    L_A theta = Psi[A, Psi^-1 theta] + tr(A) theta.  A is trace-free here, so
    L_A theta = 0 exactly when [A, Psi^-1 theta] = 0, and the operator is
    applied through ``schouten`` as in ``centralizer_kernel``.  Psi is a
    signed bijection on term keys, so this matrix and that of L_A differ
    only in row order and signs: the same nullspace and canonical basis.
    """
    if a_matrix.dim != 4:
        raise DimensionError("quadratic catalog lives in dimension 4")
    if a_matrix.trace() != 0:
        raise PreconditionError("stratum matrix must be trace-free")
    a_field = matrix_action_field(a_matrix)
    kernel = _operator_kernel(
        cubic_oneform_basis(), lambda th: schouten(a_field, from_form(th)))
    return SolutionSpace("cubic 1-forms in dimension 4 (80 coefficients)", tuple(kernel))


# The six ordered pairs (ab, cd) of complementary index pairs of (1, 2, 3, 4)
# with the sign of the permutation (a, b, c, d).
_COMPLEMENTARY_PAIRS = tuple(
    (ab, cd, _sort_with_sign(ab + cd)[0])
    for ab in combinations(range(1, 5), 2)
    for cd in [tuple(j for j in range(1, 5) if j not in ab)])


def quartic_constraints(space):
    """Coefficients of d theta /\\ d theta as quadratics in the family
    parameters of a cubic 1-form solution space in dimension four."""
    for theta in space.basis:
        if theta.dim != 4:
            raise DimensionError("quartic constraints live in dimension 4")
        if any(len(idx) != 1 for _, idx in theta.terms):
            raise PreconditionError("quartic constraints need a space of 1-forms")
    return _quartic_pairing([exterior_derivative(theta) for theta in space.basis])


def _quartic_pairing(dthetas):
    """Constraints of ``quartic_constraints`` from the 2-forms d theta_i.

    The coefficient of c_i c_j (i <= j) is (2 - [i = j]) (d theta_i /\\
    d theta_j)_{1234}, and in dimension four that component is the signed sum
    over the six ordered complementary index pairs (ab, cd) of
    (d theta_i)_{ab} (d theta_j)_{cd}.  Each d theta_i goes over its common
    denominator D_i once and its terms are bucketed by index pair; a pair
    (i, j) accumulates in integers and each nonzero coefficient becomes one
    ``Fraction(factor * total, D_i * D_j)``.
    """
    buckets = []
    for dtheta in dthetas:
        denom, terms = _integer_terms(dtheta)
        by_pair = {}
        for exp, idx, c in terms:
            by_pair.setdefault(idx, []).append((exp, c))
        buckets.append((denom, by_pair))
    per_monomial = {}
    for i, (d_i, left) in enumerate(buckets):
        for j in range(i, len(buckets)):
            d_j, right = buckets[j]
            totals = {}
            for ab, cd, sign in _COMPLEMENTARY_PAIRS:
                if ab not in left or cd not in right:
                    continue
                for ea, ca in left[ab]:
                    if sign < 0:
                        ca = -ca
                    for eb, cb in right[cd]:
                        exp = tuple(map(add, ea, eb))
                        totals[exp] = totals.get(exp, 0) + ca * cb
            factor = 1 if i == j else 2
            for exp, total in totals.items():
                if total:
                    per_monomial.setdefault(exp, {})[(i, j)] = Fraction(
                        factor * total, d_i * d_j)
    parameters = tuple(f"c{i + 1}" for i in range(len(buckets)))
    constraints = tuple(per_monomial[exp] for exp in sorted(per_monomial))
    return QuadraticConstraintSet(parameters=parameters, constraints=constraints)


def build_quadratic_poisson(theta, a_matrix):
    """Poisson structure Psi^-1(d theta) + A /\\ e^(2,2) from compatible data.

    Checks condition (i) L_A theta = 0 and condition (ii)
    d theta /\\ d theta = 0 before assembling the structure.
    """
    if a_matrix.dim != 4 or theta.dim != 4:
        raise DimensionError("quadratic construction lives in dimension 4")
    if a_matrix.trace() != 0:
        raise PreconditionError("trace part must be encoded by a trace-free matrix")
    if not theta.form_degrees() <= {1}:
        raise PreconditionError("theta must be a 1-form")
    a_field = matrix_action_field(a_matrix)
    if not lie_derivative_form(a_field, theta).is_zero():
        raise PreconditionError("condition (i) fails: L_A theta != 0")
    dtheta = exterior_derivative(theta)
    if not wedge_forms(dtheta, dtheta).is_zero():
        raise PreconditionError("condition (ii) fails: d theta /\\ d theta != 0")
    pi = from_form(dtheta)
    if not a_field.is_zero():
        pi = pi + wedge(a_field, euler(4, 2, 2))
    if not is_poisson(pi):
        raise PreconditionError("internal check failed: assembled structure is not Poisson")
    return pi


def quad4_catalog(a_matrix):
    """Catalog data for one dimension-four stratum.

    Each generator is Psi^-1(d theta_i) + A /\\ e^(2,2): the trace-free basis
    element of a kernel element theta_i plus the stratum's one trace term, so
    condition (i) holds by construction of the kernel.  Generators come from
    the theta_i whose own square already satisfies condition (ii); families
    with genuine quadratic constraints are reported through the constraint
    set instead.  The constraints carry a c_i^2 coefficient exactly where
    d theta_i /\\ d theta_i is nonzero, so that test needs no further wedge.
    """
    kernel = compatible_cubic_oneforms(a_matrix)
    dthetas = [exterior_derivative(theta) for theta in kernel.basis]
    constraints = _quartic_pairing(dthetas)
    nonzero_squares = {i for c in constraints.constraints for i, j in c if i == j}
    tracefree = [from_form(dtheta) for dtheta in dthetas]
    trace_term = wedge(matrix_action_field(a_matrix), euler(4, 2, 2))
    generators = [pi + trace_term for i, pi in enumerate(tracefree)
                  if i not in nonzero_squares]
    return _catalog_case(a_matrix, kernel, tracefree, constraints, generators)
