"""The value contract of the twelve value types.

Each value compares equal to one built again from the same fields, hashes
where every field does, prints as ``Name(field=value, ...)`` (fields and
forms print their terms, ``LinearMatrix`` its entries), is built from its
fields by position or keyword in the order below, and refuses assignment and
deletion.  Copy, deep copy and pickle rebuild an equal value.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from polyvec import (
    BiDegree,
    ClassificationCase,
    DecompositionResult,
    DimensionError,
    ExpressionAST,
    JacobiPair,
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    PreconditionError,
    QuadraticConstraintSet,
    RMatrix,
    SolutionSpace,
    VolumeConvention,
    cubic3_catalog,
    decompose,
    parse_expr,
    quad4_catalog,
)
from util import CASE_A12, QUAD4_NILPOTENT, pv


def _field():
    return pv("1/2*x1*x2*d1/\\d2 + 2/3*x2*d2/\\d3", 3)


def _case():
    return cubic3_catalog(CASE_A12)


# One builder per type, called afresh for each value, and the field names in
# constructor order.
VALUES = {
    BiDegree: (lambda: BiDegree(2, 1), ("k", "ell")),
    VolumeConvention: (lambda: VolumeConvention(3), ("dim",)),
    DecompositionResult: (lambda: decompose(pv("x1*x2*d1/\\d2", 3)),
                          ("tracefree", "trace_part", "trace", "bidegree")),
    SolutionSpace: (lambda: SolutionSpace("P^(1,1) in dimension 3",
                                          (_field(), pv("x3*d1", 3))), ("ambient", "basis")),
    QuadraticConstraintSet: (lambda: QuadraticConstraintSet(
        ("c1", "c2"), ({(0, 1): Fraction(1, 2), (1, 1): Fraction(-3)},)),
                             ("parameters", "constraints")),
    ClassificationCase: (_case, ("matrix", "kernel", "tracefree_basis", "constraints",
                                 "generators", "generator_flags")),
    ExpressionAST: (lambda: parse_expr("1/2*x1*d2 - x2^2", 2), ("dim", "terms")),
    PolyVectorField: (_field, ("dim", "terms")),
    PolyDifferentialForm: (lambda: PolyDifferentialForm(
        3, {((1, 0, 0), (2, 3)): Fraction(1, 2), ((0, 0, 2), (1,)): -1}), ("dim", "terms")),
    LinearMatrix: (lambda: LinearMatrix([[1, "1/2"], [0, -3]]), ("entries",)),
    JacobiPair: (lambda: JacobiPair(pv("x1*d1/\\d2", 3), pv("d3", 3)), ("lam", "e_field")),
    RMatrix: (lambda: RMatrix(2, {((1, 1), (2, 2)): Fraction(1, 3), ((2, 1), (1, 2)): 2}),
              ("dim", "coefficients")),
}

# A value other than the builder's, of the same type.
OTHERS = {
    BiDegree: lambda: BiDegree(1, 2),
    VolumeConvention: lambda: VolumeConvention(4),
    DecompositionResult: lambda: decompose(pv("x1*x3*d1/\\d3", 3)),
    SolutionSpace: lambda: SolutionSpace("P^(1,1) in dimension 3", (_field(),)),
    QuadraticConstraintSet: lambda: QuadraticConstraintSet(("c1", "c2"), ()),
    ClassificationCase: lambda: cubic3_catalog(LinearMatrix.diagonal([0, 1, -1])),
    ExpressionAST: lambda: parse_expr("1/2*x1*d2", 2),
    PolyVectorField: lambda: pv("x1*d1", 3),
    PolyDifferentialForm: lambda: PolyDifferentialForm(3, {((1, 0, 0), (2,)): 1}),
    LinearMatrix: lambda: LinearMatrix([[1, 0], [0, 1]]),
    JacobiPair: lambda: JacobiPair(pv("x1*d1/\\d2", 3), PolyVectorField.zero(3)),
    RMatrix: lambda: RMatrix(2, {((1, 1), (2, 2)): 1}),
}

TYPES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


def _fields(value):
    return [getattr(value, name) for name in VALUES[type(value)][1]]


@TYPES
def test_values_compare_by_their_fields(cls):
    build, _ = VALUES[cls]
    a, b, other = build(), build(), OTHERS[cls]()
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a != tuple(_fields(a)) and a != None  # noqa: E711
    if cls is not JacobiPair:  # see test_jacobi_pairs_hash
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls", [BiDegree, VolumeConvention, DecompositionResult, SolutionSpace,
                                 ClassificationCase, ExpressionAST],
                         ids=lambda cls: cls.__name__)
def test_records_hash_as_the_tuple_of_their_fields(cls):
    value = VALUES[cls][0]()
    assert hash(value) == hash(tuple(_fields(value)))


def test_value_equality_is_type_strict():
    u = PolyVectorField(2, {((1, 0), (1,)): 1})
    assert u != PolyDifferentialForm(2, {((1, 0), (1,)): 1})
    assert BiDegree(1, 1) != (1, 1)
    assert BiDegree(1, 1).__eq__((1, 1)) is NotImplemented
    assert VolumeConvention(3) != BiDegree(3, 0)


@TYPES
def test_values_build_by_position_or_keyword(cls):
    build, names = VALUES[cls]
    value = build()
    fields = _fields(value)
    assert cls(*fields) == value
    assert cls(**dict(zip(names, fields))) == value
    assert cls(**dict(reversed(list(zip(names, fields))))) == value
    assert cls(fields[0], **dict(zip(names[1:], fields[1:]))) == value


@pytest.mark.parametrize("args, kwargs", [((1,), {}), ((1, 2, 3), {}), ((1,), {"k": 2}),
                                          ((1,), {"ell": 2, "other": 3}), ((), {"ell": 2})])
def test_records_refuse_missing_extra_and_repeated_fields(args, kwargs):
    with pytest.raises(TypeError):
        BiDegree(*args, **kwargs)


@TYPES
def test_values_refuse_assignment(cls):
    value = VALUES[cls][0]()
    for name in VALUES[cls][1]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_reprs():
    assert repr(BiDegree(2, 1)) == "BiDegree(k=2, ell=1)"
    assert repr(VolumeConvention(3)) == "VolumeConvention(dim=3)"
    assert repr(parse_expr("1/2*x1*d2", 2)) == (
        "ExpressionAST(dim=2, terms=((Fraction(1, 2), (1, 0), (2,)),))")
    assert repr(QuadraticConstraintSet(("c1",), ({(0, 0): Fraction(2)},))) == (
        "QuadraticConstraintSet(parameters=('c1',), "
        "constraints=(mappingproxy({(0, 0): Fraction(2, 1)}),))")
    assert repr(_field()) == "PolyVectorField(dim=3, 2/3*x2^1*d2/\\d3 + 1/2*x1^1*x2^1*d1/\\d2)"
    assert repr(PolyDifferentialForm(2, {((0, 1), (1,)): -1})) == (
        "PolyDifferentialForm(dim=2, -1*x2^1*dx1)")
    assert repr(LinearMatrix([[1, "1/2"], [0, -3]])) == (
        "LinearMatrix([['1', '1/2'], ['0', '-3']])")
    parts = decompose(pv("x1*x2*d1/\\d2", 3))
    assert repr(parts) == (
        f"DecompositionResult(tracefree={parts.tracefree!r}, trace_part={parts.trace_part!r}, "
        f"trace={parts.trace!r}, bidegree=BiDegree(k=2, ell=2))")
    space = SolutionSpace("P", [pv("x3*d1", 3)])
    assert repr(space) == "SolutionSpace(ambient='P', basis=(PolyVectorField(dim=3, 1*x3^1*d1),))"
    case = _case()
    assert repr(case) == (
        f"ClassificationCase(matrix={case.matrix!r}, kernel={case.kernel!r}, "
        f"tracefree_basis={case.tracefree_basis!r}, constraints=None, "
        f"generators={case.generators!r}, generator_flags={case.generator_flags!r})")


def test_values_iterate_over_their_parts():
    assert tuple(BiDegree(2, 1)) == (2, 1)
    parts = decompose(pv("x1*x2*d1/\\d2", 3))
    assert tuple(parts) == (parts.tracefree, parts.trace_part, parts.trace)
    pair = VALUES[JacobiPair][0]()
    lam, e_field = pair
    assert (lam, e_field) == (pair.lam, pair.e_field)


def test_solution_space_keeps_its_constructor_checks():
    u, v = _field(), pv("x3*d1", 3)
    assert SolutionSpace("P", [u, v]).basis == (u, v)
    assert SolutionSpace(ambient="P", basis=[u]) == SolutionSpace("P", (u,))
    with pytest.raises(PreconditionError):
        SolutionSpace("P", [u, v, u.scale(3) - v])


# -- the contract beyond what the dataclasses gave ---------------------------


def test_jacobi_pairs_hash():
    pair = VALUES[JacobiPair][0]()
    assert hash(pair) == hash(VALUES[JacobiPair][0]())
    assert len({pair, VALUES[JacobiPair][0](), OTHERS[JacobiPair]()}) == 2


def test_quadratic_constraint_sets_are_frozen_and_hash():
    case = quad4_catalog(QUAD4_NILPOTENT)
    assert case.constraints.constraints
    assert hash(case) == hash(quad4_catalog(QUAD4_NILPOTENT))
    with pytest.raises(TypeError):
        case.constraints.constraints[0][(0, 0)] = 5
    names, raw = ["c1", "c2"], {(0, 1): Fraction(1, 2)}
    value = QuadraticConstraintSet(names, [raw])
    names.append("c3")
    raw[(0, 1)] = 5
    assert value.parameters == ("c1", "c2") and value.constraints == ({(0, 1): Fraction(1, 2)},)
    assert hash(value) == hash(QuadraticConstraintSet(("c1", "c2"), ({(0, 1): Fraction(1, 2)},)))


@pytest.mark.parametrize("key", [(0, 5), (1, 0), (-1, 0), (0, 2), ("0", 1), (True, 1),
                                 (0,), (0, 0, 0), 0])
def test_quadratic_constraint_keys_are_checked_at_construction(key):
    """A key must be an integer pair (i, j) with 0 <= i <= j < 2."""
    with pytest.raises(DimensionError, match="^constraint key .* is not a pair"):
        QuadraticConstraintSet(("c1", "c2"), ({(0, 1): 1}, {key: 1}))


@pytest.mark.parametrize("build", [
    lambda: BiDegree(-1, 2), lambda: BiDegree(0, -1), lambda: VolumeConvention(0),
    lambda: VolumeConvention(-2)], ids=["k", "ell", "volume-0", "volume-negative"])
def test_records_refuse_a_negative_degree_and_a_dimension_below_one(build):
    with pytest.raises(DimensionError, match="must be >= "):
        build()


def test_jacobi_pair_and_r_matrix_reprs():
    lam, e_field = pv("x1*d1/\\d2", 3), pv("d3", 3)
    assert repr(JacobiPair(lam, e_field)) == f"JacobiPair(lam={lam!r}, e_field={e_field!r})"
    assert repr(RMatrix(2, {((2, 2), (1, 1)): -1})) == (
        "RMatrix(dim=2, coefficients=mappingproxy({((1, 1), (2, 2)): 1}))")


@TYPES
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_values_copy_and_pickle(cls, how):
    value = VALUES[cls][0]()
    again = {"copy": copy.copy, "deepcopy": copy.deepcopy,
             "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how](value)
    assert type(again) is cls and again == value
    assert hash(again) == hash(value)
    assert repr(again) == repr(value)


@TYPES
def test_values_refuse_deletion(cls):
    value = VALUES[cls][0]()
    shown = repr(value)
    for name in VALUES[cls][1]:
        if name == "terms":
            continue  # read through a property of the stored numerators
        with pytest.raises(AttributeError):
            delattr(value, name)
    if isinstance(value, PolyVectorField | PolyDifferentialForm):
        for name in ("den", "nums"):
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert repr(value) == shown and value == VALUES[cls][0]()
