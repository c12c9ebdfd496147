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
over the unit terms U through the one Schouten kernel, whose raw integer
totals fill the matrix rows with no value built per unit.
``lie_derivative_form`` (the Cartan formula) stays the independent route of
``build_quadratic_poisson``.

Throughout, a matrix C acts on coordinates in the row convention
x -> x C, i.e. as the vector field sum_ij C[i][j] x_i d_j; that convention is
what reproduces the printed kernel bases of the catalog strata.
"""

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import DimensionError, PreconditionError
from . import linalg
from .linalg import _frac
from .fields import (
    LinearMatrix,
    PolyVectorField,
    _Value,
    _add_products,
    _bracket_with,
    _canonical,
    _check_degrees,
    _integer,
    _operands,
    _pack,
    _sequence,
    euler,
    linear_vector_field,
    wedge,
)
from .duality import (
    PolyDifferentialForm,
    _complement,
    _dual_groups,
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
    """Sparse integer coordinate rows ``{column: numerator}`` of fields/forms,
    the columns numbering the sorted union of their term keys
    ``(packed, indices)``.  Each row is its element times the positive
    ``den``, which changes no rank, span or reduced row echelon form."""
    keys = sorted({(packed, idx) for el in elements
                   for idx, group in el.nums.items() for packed in group})
    column = {key: c for c, key in enumerate(keys)}
    rows = [{column[packed, idx]: v for idx, group in el.nums.items()
             for packed, v in group.items()} for el in elements]
    return keys, rows


def _family(name, elements):
    """``elements`` as a list, which must hold fields, or forms, of one
    ``dim``: ``TypeError`` or ``DimensionError`` otherwise."""
    elements = list(elements)
    if elements:
        forms = isinstance(elements[0], PolyDifferentialForm)
        kind = PolyDifferentialForm if forms else PolyVectorField
        _operands(name, *((element, kind) for element in elements))
    return elements


def same_span(elements_a, elements_b):
    """Do two families of fields (or forms) span the same subspace?"""
    elements_a = list(elements_a)
    keys, rows = _coordinatize(_family("same_span", elements_a + list(elements_b)))
    if not keys:
        return True
    split = len(elements_a)
    return linalg.span_equal(rows[:split], rows[split:], len(keys))


def _from_coordinates(cls, dim, keys, items):
    """The element of ``cls`` whose coefficient at ``keys[c]`` is the
    rational ``v`` for each coordinate ``(c, v)`` in ``items``: the inverse
    of ``_coordinatize``."""
    raw = {}
    for c, v in items:
        if v:
            packed, idx = keys[c]
            raw.setdefault(idx, {})[packed] = v
    return cls._wrap(dim, *_canonical(raw))


def _operator_kernel(cls, dim, keys, image):
    """Exact nullspace of a linear operator on the span of the unit terms of
    ``cls`` at ``keys``; the order of ``keys`` fixes the canonical basis.

    ``image(packed, idx)`` returns the raw integer totals ``{indices:
    {packed: total}}`` of the image of the unit at ``(packed, idx)``, and
    the kernel checks each group by ``_check_degrees``.  Every image has the same
    denominator, the action field's ``den`` times 1, and a common factor
    changes no nullspace, so row ``key`` of the sparse integer matrix maps
    the column of each unit to its total at ``key``, with no transpose.  A
    nullspace vector is the coefficient vector of its element over ``keys``.
    """
    rows = {}
    for j, (packed, idx) in enumerate(keys):
        for image_idx, sums in image(packed, idx).items():
            _check_degrees(sums)
            for image_packed, c in sums.items():
                rows.setdefault((image_packed, image_idx), {})[j] = c
    vectors = linalg.nullspace(list(rows.values()), len(keys))
    return [_from_coordinates(cls, dim, keys, enumerate(v)) for v in vectors]


class SolutionSpace(_Value):
    """An exactly computed solution space with an independent basis."""

    __slots__ = _fields = ("ambient", "basis")

    def __init__(self, ambient, basis):
        _operands("SolutionSpace", (ambient, str))
        basis = _family("SolutionSpace", basis)
        _, rows = _coordinatize(basis)
        if basis and linalg.rank(rows) != len(basis):
            raise PreconditionError("solution space basis is linearly dependent")
        _Value.__init__(self, ambient, tuple(basis))

    @classmethod
    def _independent(cls, ambient, basis):
        """A space on a basis that is independent by construction, such as
        one read off ``linalg.nullspace`` or ``linalg.rref``; the rank check
        of the public constructor is skipped."""
        out = object.__new__(cls)
        _Value.__init__(out, ambient, tuple(basis))
        return out

    @property
    def dimension(self):
        return len(self.basis)


class QuadraticConstraintSet(_Value):
    """Quadratic relations among family parameters c_1..c_m.

    Each constraint is a mapping (i, j) -> coefficient with i <= j standing
    for the monomial c_i c_j; a parameter tuple lies on the zero locus iff it
    annihilates every constraint.  A key that is not an integer pair with
    0 <= i <= j < len(parameters) raises ``DimensionError``.  The parameters
    are stored as a tuple and each constraint as a read-only view of a copy,
    so the set hashes and no write can change it.
    """

    __slots__ = _fields = ("parameters", "constraints")

    def __init__(self, parameters, constraints):
        name = "QuadraticConstraintSet"
        parameters = _sequence(name, parameters, str)
        constraints = tuple(map(dict, _sequence(name, constraints, Mapping)))
        m = len(parameters)
        for key in (key for constraint in constraints for key in constraint):
            if not (type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
                    and 0 <= key[0] <= key[1] < m):
                raise DimensionError(f"constraint key {key!r} is not a pair 0 <= i <= j < {m}")
        _Value.__init__(self, parameters, tuple(map(MappingProxyType, constraints)))

    def __hash__(self):
        return hash((self.parameters, tuple(frozenset(c.items()) for c in self.constraints)))

    def __reduce__(self):
        # a mappingproxy can be neither pickled nor deep-copied
        return type(self), (self.parameters, tuple(map(dict, self.constraints)))

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


class ClassificationCase(_Value):
    """One catalog stratum: kernel, trace-free projection and generators.

    ``generator_flags`` holds one verified ``(poisson, simple, rank)`` tuple
    per generator, so documents need not recompute them.
    """

    __slots__ = _fields = ("matrix", "kernel", "tracefree_basis", "constraints",
                           "generators", "generator_flags")


def matrix_action_field(matrix):
    """Vector field of the row-convention action x -> x M."""
    _operands("matrix_action_field", (matrix, LinearMatrix))
    return linear_vector_field(matrix.transpose())


def centralizer_kernel(c_matrix, k):
    """Basis of {A in P^(k,1) : [C, A] = 0} by exact elimination."""
    _operands("centralizer_kernel", (c_matrix, LinearMatrix))
    k = _integer("centralizer_kernel", k)
    if k < 0:
        raise PreconditionError(f"polynomial degree must be >= 0, got {k}")
    n = c_matrix.dim
    keys = [(_pack(n, exp), (j,)) for exp in monomial_exponents(n, k) for j in range(1, n + 1)]
    bracket = _bracket_with(matrix_action_field(c_matrix))
    kernel = _operator_kernel(PolyVectorField, n, keys,
                              lambda packed, idx: bracket({idx: {packed: 1}}))
    return SolutionSpace._independent(f"P^({k},1) in dimension {n}", kernel)


def tracefree_projection(space):
    """Independent basis of the trace-free parts of a solution space."""
    _operands("tracefree_projection", (space, SolutionSpace))
    projected = [p for p in (decompose(a).tracefree for a in space.basis) if not p.is_zero()]
    keys, rows = _coordinatize(projected)
    fields = [_from_coordinates(PolyVectorField, projected[0].dim, keys, row.items())
              for row in linalg.rref(rows)[0]]
    return SolutionSpace._independent(f"trace-free part of {space.ambient}", fields)


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
    _operands("cubic3_catalog", (c_matrix, LinearMatrix))
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


def compatible_cubic_oneforms(a_matrix):
    """Kernel of theta -> L_A theta on cubic 1-forms in dimension four.

    Volume duality intertwines the two operators: for linear A,
    L_A theta = Psi[A, Psi^-1 theta] + tr(A) theta.  A is trace-free here, so
    L_A theta = 0 exactly when [A, Psi^-1 theta] = 0, and Psi^-1 of a unit
    1-form is one signed unit group, from ``duality._dual_groups``.  Psi is
    a signed bijection on term keys, so this matrix and that of L_A differ
    only in row order and signs: the same nullspace and canonical basis.
    """
    _operands("compatible_cubic_oneforms", (a_matrix, LinearMatrix))
    if a_matrix.dim != 4:
        raise DimensionError("quadratic catalog lives in dimension 4")
    if a_matrix.trace() != 0:
        raise PreconditionError("stratum matrix must be trace-free")
    bracket = _bracket_with(matrix_action_field(a_matrix))
    keys = [(_pack(4, exp), (k,)) for k in range(1, 5) for exp in CUBIC4_DISPLAY_ORDER]
    kernel = _operator_kernel(PolyDifferentialForm, 4, keys, lambda packed, idx: bracket(
        _dual_groups({idx: {packed: 1}}, 4, True)))
    return SolutionSpace._independent(
        "cubic 1-forms in dimension 4 (80 coefficients)", kernel)


def quartic_constraints(space):
    """Coefficients of d theta /\\ d theta as quadratics in the family
    parameters of a cubic 1-form solution space in dimension four."""
    _operands("quartic_constraints", (space, SolutionSpace))
    for theta in space.basis:
        if theta.dim != 4:
            raise DimensionError("quartic constraints live in dimension 4")
        if any(len(idx) != 1 for idx in theta.nums):
            raise PreconditionError("quartic constraints need a space of 1-forms")
    return _quartic_pairing([exterior_derivative(theta) for theta in space.basis])


def _quartic_pairing(dthetas):
    """Constraints of ``quartic_constraints`` from the 2-forms d theta_i.

    The coefficient of c_i c_j (i <= j) is (2 - [i = j]) (d theta_i /\\
    d theta_j)_{1234}, and in dimension four that component is the signed sum
    over the index pairs ab of d theta_i of (d theta_i)_{ab} (d theta_j)_{cd},
    cd the pair complementary to ab and the sign that of (a, b, c, d), both
    read off ``duality._complement``.  Each index pair cd is mapped to the j
    whose d theta_j has a group at cd, so only the groups that meet are
    visited.  The integer numerators of each d theta_i, over its denominator
    D_i, are read in their stored groups; a pair (i, j) accumulates in
    integers through ``_add_products``, each product monomial the sum of two
    packed keys, and each nonzero coefficient becomes one
    ``Fraction(factor * total, D_i * D_j)``.
    """
    holders = {}
    for j, dtheta in enumerate(dthetas):
        for cd in dtheta.nums:
            holders.setdefault(cd, []).append(j)
    per_monomial = {}
    for i, dtheta in enumerate(dthetas):
        met = {}
        for ab, left in dtheta.nums.items():
            sign, cd = _complement(ab, 4)
            for j in holders.get(cd, ()):
                if j >= i:
                    _add_products(met.setdefault(j, {}), left.items(),
                                  dthetas[j].nums[cd].items(), sign < 0)
        for j in sorted(met):
            factor = 1 if i == j else 2
            den = dtheta.den * dthetas[j].den
            for key, total in met[j].items():
                if total:
                    per_monomial.setdefault(key, {})[(i, j)] = Fraction(factor * total, den)
    parameters = tuple(f"c{i + 1}" for i in range(len(dthetas)))
    constraints = tuple(per_monomial[key] for key in sorted(per_monomial))
    return QuadraticConstraintSet(parameters=parameters, constraints=constraints)


def build_quadratic_poisson(theta, a_matrix):
    """Poisson structure Psi^-1(d theta) + A /\\ e^(2,2) from compatible data.

    Checks condition (i) L_A theta = 0 and condition (ii)
    d theta /\\ d theta = 0 before assembling the structure.
    """
    _operands("build_quadratic_poisson", (theta, PolyDifferentialForm))
    _operands("build_quadratic_poisson", (a_matrix, LinearMatrix))
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
    _operands("quad4_catalog", (a_matrix, LinearMatrix))
    kernel = compatible_cubic_oneforms(a_matrix)
    dthetas = [exterior_derivative(theta) for theta in kernel.basis]
    constraints = _quartic_pairing(dthetas)
    nonzero_squares = {i for c in constraints.constraints for i, j in c if i == j}
    tracefree = [from_form(dtheta) for dtheta in dthetas]
    trace_term = wedge(matrix_action_field(a_matrix), euler(4, 2, 2))
    generators = [pi + trace_term for i, pi in enumerate(tracefree)
                  if i not in nonzero_squares]
    return _catalog_case(a_matrix, kernel, tracefree, constraints, generators)
