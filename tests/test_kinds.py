"""The kind contract of the public API, the robustness counterpart of
``test_values.py``: every callable in ``polyvec.__all__`` that takes a value
refuses a value of the wrong kind with ``TypeError`` or a ``PolyvecError``,
never with another exception or a result.

``TABLE`` names each such callable with a call that succeeds and the kind of
each of its parameters.  Each parameter is given, in turn, each of a field,
a form, a ``LinearMatrix``, an ``int`` and a ``str`` that is not of its
kind.  A public callable in neither ``TABLE``, ``RECORDS`` nor the error
classes fails the completeness check, so a new one must join the table."""

import io

import pytest

import polyvec
from polyvec import (
    JacobiPair,
    LinearMatrix,
    PolyvecError,
    PolyVectorField,
    RMatrix,
    SolutionSpace,
    cli,
    compatible_cubic_oneforms,
    cubic3_catalog,
    exterior_derivative,
    to_form,
    wedge_forms,
)
from util import pv

WRONG = {
    "field": pv("x1*d1 + x2*d2", 2),
    "form": to_form(pv("x1*d1", 2)),
    "matrix": LinearMatrix([[1, 1], [0, 1]]),
    "int": 3,
    "str": "x1*d1",
}

# The value records the library builds and returns whose constructors store
# the fields they are given and check nothing; copy and pickle rebuild them
# through those constructors (``test_values.py``).  The records that check
# their fields are in ``TABLE``.
RECORDS = {"ClassificationCase", "DecompositionResult"}

_F2 = WRONG["field"]
_W2 = WRONG["form"]
_M2 = WRONG["matrix"]
_X2 = pv("x1*d1", 2)
_P3 = pv("x1*x2*d1/\\d2", 3)
_L3 = pv("x3*d1/\\d2", 3)
_Z3 = PolyVectorField.zero(3)
_M3 = LinearMatrix.diagonal([1, 2, -3])
_M4 = LinearMatrix.diagonal([1, 2, 4, -7])


def _closed_theta():
    """A cubic 1-form of the dim-4 kernel whose d theta squares to zero."""
    return next(theta for theta in compatible_cubic_oneforms(_M4).basis
                if wedge_forms(exterior_derivative(theta), exterior_derivative(theta)).is_zero())


def _run(argv):
    """``cli.run`` on private streams; an exit status of 2 is its refusal."""
    status = cli.run(argv, io.StringIO(), io.StringIO())
    if status == 2:
        raise PolyvecError("run exited 2")
    return status


# name: (callable, arguments of a call that succeeds, kind of each parameter).
# A kind of WRONG accepts its own substitute; any other kind accepts none.
TABLE = {
    "BiDegree": (polyvec.BiDegree, lambda: (2, 1), ("int", "int")),
    "ExpressionAST": (polyvec.ExpressionAST, lambda: (2, ((1, (1, 0), (2,)),)),
                      ("int", "terms")),
    "JacobiPair": (JacobiPair, lambda: (_L3, _Z3), ("field", "field")),
    "LinearMatrix": (LinearMatrix, lambda: ([[1, "1/2"], [0, 1]],), ("rows",)),
    "PolyDifferentialForm": (polyvec.PolyDifferentialForm, lambda: (2, {((1, 0), (2,)): 1}),
                             ("int", "mapping")),
    "PolyVectorField": (PolyVectorField, lambda: (2, {((1, 0), (2,)): 1}), ("int", "mapping")),
    "QuadraticConstraintSet": (polyvec.QuadraticConstraintSet,
                               lambda: (["c1", "c2"], [{(0, 1): 1}]),
                               ("parameters", "constraints")),
    "RMatrix": (RMatrix, lambda: (2, {((1, 1), (2, 2)): 1}), ("int", "mapping")),
    "SolutionSpace": (SolutionSpace, lambda: ("P", [_F2]), ("str", "family")),
    "VolumeConvention": (polyvec.VolumeConvention, lambda: (3,), ("int",)),
    "are_associated": (polyvec.are_associated, lambda: (_L3, JacobiPair(_L3, _Z3)),
                       ("field", "pair")),
    "bracket_parts": (polyvec.bracket_parts, lambda: (_F2, _F2), ("field", "field")),
    "build_quadratic_poisson": (polyvec.build_quadratic_poisson,
                                lambda: (_closed_theta(), _M4), ("form", "matrix")),
    "centralizer_kernel": (polyvec.centralizer_kernel, lambda: (_M3, 1), ("matrix", "int")),
    "compatible_cubic_oneforms": (compatible_cubic_oneforms, lambda: (_M4,), ("matrix",)),
    "cubic3_catalog": (cubic3_catalog, lambda: (_M3,), ("matrix",)),
    "decompose": (polyvec.decompose, lambda: (_F2,), ("field",)),
    "dim_irrep": (polyvec.dim_irrep, lambda: (3, 2, 2), ("int", "int", "int")),
    "euler": (polyvec.euler, lambda: (3, 2, 2), ("int", "int", "int")),
    "exceptional_pair_check": (polyvec.exceptional_pair_check,
                               lambda: (_P3, JacobiPair(_P3, _Z3), _Z3),
                               ("field", "pair", "field")),
    "exterior_derivative": (exterior_derivative, lambda: (_W2,), ("form",)),
    "format_expr": (polyvec.format_expr, lambda: (_W2, "numeric"), ("field or form", "str")),
    "from_form": (polyvec.from_form, lambda: (_W2,), ("form",)),
    "from_skew_components": (polyvec.from_skew_components, lambda: (2, {((1,), (2,)): 1}),
                             ("int", "mapping")),
    "generic_rank": (polyvec.generic_rank, lambda: (_P3,), ("field",)),
    "homogeneous_components": (polyvec.homogeneous_components, lambda: (_F2,), ("field",)),
    "interior_product": (polyvec.interior_product, lambda: (_X2, _W2), ("field", "form")),
    "is_jacobi": (polyvec.is_jacobi, lambda: (JacobiPair(_L3, _Z3),), ("pair",)),
    "is_poisson": (polyvec.is_poisson, lambda: (_P3,), ("field",)),
    "is_simple": (polyvec.is_simple, lambda: (_P3,), ("field",)),
    "jacobi_from_poisson": (polyvec.jacobi_from_poisson, lambda: (_L3, _Z3, _Z3),
                            ("field", "field", "field")),
    "lie_derivative_form": (polyvec.lie_derivative_form, lambda: (_X2, _W2), ("field", "form")),
    "linear_vector_field": (polyvec.linear_vector_field, lambda: (_M2,), ("matrix",)),
    "matrix_action_field": (polyvec.matrix_action_field, lambda: (_M2,), ("matrix",)),
    "monomial_exponents": (polyvec.monomial_exponents, lambda: (3, 2), ("int", "int")),
    "parse_expr": (polyvec.parse_expr, lambda: ("x1*d2", 2), ("str", "int")),
    "parse_field": (polyvec.parse_field, lambda: ("x1*d2", 2), ("str", "int")),
    "poisson_component_test": (polyvec.poisson_component_test, lambda: (_P3,), ("field",)),
    "poisson_from_jacobi": (polyvec.poisson_from_jacobi, lambda: (JacobiPair(_L3, _Z3),),
                            ("pair",)),
    "pushforward": (polyvec.pushforward, lambda: (_M2, _F2), ("matrix", "field")),
    "quad4_catalog": (polyvec.quad4_catalog, lambda: (_M4,), ("matrix",)),
    "quartic_constraints": (polyvec.quartic_constraints,
                            lambda: (compatible_cubic_oneforms(_M4),), ("space",)),
    "r_matrix_to_bivector": (polyvec.r_matrix_to_bivector,
                             lambda: (RMatrix(2, {((1, 1), (2, 2)): 1}),), ("rmatrix",)),
    "radial_field": (polyvec.radial_field, lambda: (3,), ("int",)),
    "run": (_run, lambda: (["dim-irrep", "3", "2", "2"],), ("argv",)),
    "same_span": (polyvec.same_span, lambda: ([_F2], [_F2]), ("family", "family")),
    "schouten": (polyvec.schouten, lambda: (_F2, _F2), ("field", "field")),
    "self_bracket_parts": (polyvec.self_bracket_parts, lambda: (_P3,), ("field",)),
    "skew_component": (polyvec.skew_component, lambda: (_F2, (1,), (1,)),
                       ("field", "indices", "indices")),
    "to_form": (to_form, lambda: (_F2,), ("field",)),
    "trace_d": (polyvec.trace_d, lambda: (_F2,), ("field",)),
    "tracefree_projection": (polyvec.tracefree_projection,
                             lambda: (SolutionSpace("P", [_P3]),), ("space",)),
    "wedge": (polyvec.wedge, lambda: (_F2, _F2), ("field", "field")),
    "wedge_forms": (wedge_forms, lambda: (_W2, _W2), ("form", "form")),
    # not in __all__, but the other entry point of a catalog document
    "cli.catalog_document": (cli.catalog_document, lambda: (cubic3_catalog(_M3),), ("case",)),
}

ACCEPTS = {"field": {"field"}, "form": {"form"}, "field or form": {"field", "form"},
           "matrix": {"matrix"}, "int": {"int"}, "str": {"str"}}

CASES = [(name, position, wrong)
         for name, (_, _, kinds) in TABLE.items()
         for position, kind in enumerate(kinds)
         for wrong in WRONG if wrong not in ACCEPTS.get(kind, ())]


def test_the_table_covers_the_public_api():
    public = {name for name in polyvec.__all__ if callable(getattr(polyvec, name))}
    errors = {name for name in public
              if isinstance(getattr(polyvec, name), type)
              and issubclass(getattr(polyvec, name), PolyvecError)}
    assert public - errors - RECORDS == set(TABLE) - {"cli.catalog_document"}
    assert not RECORDS & set(TABLE)


@pytest.mark.parametrize("name", list(TABLE))
def test_each_entry_succeeds_on_its_own_arguments(name):
    call, arguments, kinds = TABLE[name]
    args = arguments()
    assert len(args) == len(kinds)
    call(*args)


@pytest.mark.parametrize("name, position, wrong", CASES,
                         ids=[f"{name}-{position}-{wrong}" for name, position, wrong in CASES])
def test_a_value_of_the_wrong_kind_is_refused(name, position, wrong):
    call, arguments, _ = TABLE[name]
    args = list(arguments())
    args[position] = WRONG[wrong]
    with pytest.raises((TypeError, PolyvecError)):
        call(*args)


_CALLS = {
    "is_jacobi": lambda: polyvec.is_jacobi((_F2, _F2)),
    "poisson_from_jacobi": lambda: polyvec.poisson_from_jacobi(_F2),
    "exceptional_pair_check": lambda: polyvec.exceptional_pair_check(_F2, (_F2, _F2), _F2),
    "are_associated": lambda: polyvec.are_associated(_F2, (_F2, _F2)),
    "r_matrix_to_bivector": lambda: polyvec.r_matrix_to_bivector(_F2),
    "tracefree_projection": lambda: polyvec.tracefree_projection([_F2]),
    "quartic_constraints": lambda: polyvec.quartic_constraints([_F2]),
    "cubic3_catalog": lambda: cubic3_catalog([[1, 0, 0], [0, 2, 0], [0, 0, -3]]),
    "centralizer_kernel": lambda: polyvec.centralizer_kernel([[1, 0], [0, -1]], 1),
    "matrix_action_field": lambda: polyvec.matrix_action_field([[1, 0], [0, -1]]),
    "linear_vector_field": lambda: polyvec.linear_vector_field([[1, 0], [0, -1]]),
    "same_span": lambda: polyvec.same_span([1], [2]),
    "SolutionSpace": lambda: SolutionSpace("a", [1, 2]),
    "format_expr": lambda: polyvec.format_expr(3),
    "catalog_document": lambda: cli.catalog_document(_F2),
    "BiDegree": lambda: polyvec.BiDegree("x1*d1", 1),
    "VolumeConvention": lambda: polyvec.VolumeConvention("x"),
    "ExpressionAST": lambda: polyvec.ExpressionAST(2, "x1*d1"),
    "QuadraticConstraintSet": lambda: polyvec.QuadraticConstraintSet(("c1",), "x1"),
}


_INTEGER_CALLS = [
    ("PolyVectorField", lambda: polyvec.PolyVectorField("x", {})),
    ("PolyDifferentialForm", lambda: polyvec.PolyDifferentialForm.zero(2.0)),
    ("radial_field", lambda: polyvec.radial_field("3")),
    ("RMatrix", lambda: RMatrix("x", {})),
    ("VolumeConvention", lambda: polyvec.VolumeConvention(1.0)),
    ("euler", lambda: polyvec.euler("3", 1, 1)),
    ("euler", lambda: polyvec.euler(3, 1.5, 1)),
    ("dim_irrep", lambda: polyvec.dim_irrep("3", 1, 1)),
    ("dim_irrep", lambda: polyvec.dim_irrep(3, 1, "1")),
    ("centralizer_kernel", lambda: polyvec.centralizer_kernel(
        LinearMatrix([[1, 0], [0, -1]]), "2")),
    ("parse_field", lambda: polyvec.parse_field("x1", "3")),
]


@pytest.mark.parametrize("name, call", _INTEGER_CALLS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(_INTEGER_CALLS)])
def test_an_integer_argument_of_another_kind_names_its_callable(name, call):
    """Each integer argument is read once through ``fields._integer``."""
    with pytest.raises(TypeError, match=f"^{name} takes int, not (str|float)$"):
        call()


@pytest.mark.parametrize("name", list(_CALLS))
def test_a_tuple_list_or_field_in_place_of_a_value_raises_type_error(name):
    """A tuple for a ``JacobiPair``, a list for a ``LinearMatrix`` or a
    ``SolutionSpace``, plain values for fields, a field for an ``RMatrix``
    or a ``ClassificationCase``, a string for a record's integer or terms:
    the ``TypeError`` names the callable."""
    with pytest.raises(TypeError, match=name):
        _CALLS[name]()
