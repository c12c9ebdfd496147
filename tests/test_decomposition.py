import random
import re
from fractions import Fraction

import pytest

from polyvec import (
    BiDegree,
    DegenerateNormalizerError,
    HomogeneityError,
    ParityError,
    PolyVectorField,
    bracket_parts,
    decompose,
    euler,
    pushforward,
    radial_field,
    schouten,
    self_bracket_parts,
    trace_d,
    wedge,
)
from polyvec.invariants import (
    closed_form_parts,
    pair_failures,
    random_even_fields,
    random_nonzero,
    random_pairs,
    self_bracket_failures,
)
from util import (
    g_ab_bivector,
    pv,
    random_invertible,
    so3_bivector,
)


def test_linear_bivector_family_decomposition():
    for alpha, beta in [(1, 3), (2, 5), (Fraction(1, 2), Fraction(-3, 7)), (0, 1), (-2, -2)]:
        a = g_ab_bivector(alpha, beta)
        parts = decompose(a)
        half = Fraction(1, 2)
        assert parts.tracefree == g_ab_bivector((alpha - beta) * half, (beta - alpha) * half)
        assert parts.trace_part == g_ab_bivector((alpha + beta) * half, (alpha + beta) * half)
        assert parts.trace == PolyVectorField(3, {((0, 0, 0), (1,)): alpha + beta})
        assert parts.tracefree + parts.trace_part == a
        assert trace_d(parts.tracefree).is_zero()


def test_tracefree_input_short_circuits():
    pi = so3_bivector()
    parts = decompose(pi)
    assert parts.tracefree == pi
    assert parts.trace_part.is_zero() and parts.trace.is_zero()


def test_radial_field_is_pure_trace():
    for n in (2, 3, 4):
        parts = decompose(radial_field(n))
        assert parts.tracefree.is_zero()
        assert parts.trace_part == radial_field(n)
        assert parts.trace == PolyVectorField.constant(n, n)
        assert parts.bidegree == BiDegree(1, 1)


def test_decompose_rejects_mixed_fields():
    with pytest.raises(HomogeneityError):
        decompose(pv("x1*d2 + x1^2*d3", 3))


def test_degenerate_normalizer_short_circuit():
    # constant top multivector sits at (0, n) where e^(0,n) is undefined
    top = pv("d1/\\d2/\\d3/\\d4", 4)
    parts = decompose(top)
    assert parts.tracefree == top and parts.trace.is_zero()


def test_top_vector_degree_is_pure_trace():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.choice([2, 3])
        k = rng.randint(1, 3)
        a = random_nonzero(rng, n, k, n)
        assert decompose(a).tracefree.is_zero()


def test_decompose_idempotence_and_reconstruction():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        a = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        parts = decompose(a)
        assert parts.tracefree + parts.trace_part == a
        again = decompose(parts.tracefree)
        assert again.tracefree == parts.tracefree
        assert again.trace.is_zero()
        if not parts.trace.is_zero():
            k, ell = parts.bidegree
            assert parts.trace_part == wedge(parts.trace, euler(n, k, ell))


def test_bracket_parts_fixtures():
    # constant bi-vectors: everything vanishes
    a = pv("d1/\\d2", 3)
    tf, tr = bracket_parts(a, a)
    assert tf.is_zero() and tr.is_zero()

    # trace-free against the radial field: [e0, A] = (k - l) A
    a = pv("x1^2*d2", 3)
    tf, tr = bracket_parts(a, radial_field(3))
    assert tf == pv("-x1^2*d2", 3)
    assert tr.is_zero()

    # linear bi-vector instance: trace output -2[DA, A0] = 0
    a = g_ab_bivector(1, 3)
    tf, tr = bracket_parts(a, a)
    assert tr.is_zero()


def test_bracket_parts_matches_direct_route():
    for a, b in random_pairs(random.Random(33), 120):
        assert pair_failures(a, b) == []


def _count_schouten(monkeypatch, module):
    """Record the operands of every ``schouten`` call made through ``module``."""
    original = module.schouten
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(module, "schouten", counting)
    return calls


_TRACED_PAIR = (pv("x1^2*d1/\\d3 + 2*x1*x2*d2/\\d3", 3), pv("x1*x3*d3 - 1/3*x2^2*d1", 3))


def test_bracket_parts_brackets_each_pair_once(monkeypatch):
    from polyvec import decomposition
    a, b = _TRACED_PAIR
    assert not trace_d(a).is_zero() and not trace_d(b).is_zero()
    calls = _count_schouten(monkeypatch, decomposition)
    bracket_parts(a, b)
    assert calls == [(a, b)]


def test_closed_form_parts_brackets_each_pair_once(monkeypatch):
    from polyvec import invariants
    a, b = _TRACED_PAIR
    calls = _count_schouten(monkeypatch, invariants)
    closed_form_parts(a, b)
    assert len(calls) == 4
    assert len(set(calls)) == 4
    assert pair_failures(a, b) == []


def test_bracket_parts_rejects_mixed_input():
    with pytest.raises(HomogeneityError):
        bracket_parts(pv("x1*d2 + x1^2*d3", 3), pv("d1", 3))


_PAIR_NEEDS = "bracket decomposition needs n + k - l != 0 for both operands"
_SELF_NEEDS = "self-bracket decomposition needs n + k - l != 0"


@pytest.mark.parametrize("parts, message", [
    (lambda: bracket_parts(pv("d1/\\d2/\\d3", 3), pv("x1*d1", 3)), _PAIR_NEEDS),
    (lambda: bracket_parts(pv("x1*d1", 3), pv("d1/\\d2/\\d3", 3)), _PAIR_NEEDS),
    (lambda: self_bracket_parts(pv("d1/\\d2", 2)), _SELF_NEEDS),
], ids=["top-left", "top-right", "self-top"])
def test_bracket_parts_refuse_a_degenerate_normalizer(parts, message):
    """An operand with n + k - l = 0 has no e^(k,l): the parts are refused,
    although the bracket itself decomposes without complaint."""
    with pytest.raises(DegenerateNormalizerError, match=f"^{re.escape(message)}$"):
        parts()


@pytest.mark.parametrize("parts", [
    lambda: bracket_parts(PolyVectorField.zero(3), pv("d1/\\d2/\\d3", 3)),
    lambda: bracket_parts(pv("x1*d2 + x1^2*d3", 3), PolyVectorField.zero(3)),
    lambda: self_bracket_parts(PolyVectorField.zero(2)),
], ids=["zero-left", "zero-right", "self-zero"])
def test_bracket_parts_of_a_zero_operand_are_zero(parts):
    """A zero operand gives (0, 0) before the other operand is looked at."""
    tracefree, trace = parts()
    assert tracefree.is_zero() and trace.is_zero()


def test_self_bracket_fixtures():
    # fields of the shape A /\ e^(k,l) always self-commute
    a = wedge(pv("d1", 3), euler(3, 1, 2))
    tf, tr = self_bracket_parts(a)
    assert tf.is_zero() and tr.is_zero()
    assert schouten(a, a).is_zero()

    tf, tr = self_bracket_parts(so3_bivector())
    assert tf.is_zero() and tr.is_zero()

    # quadratic bi-vector from an r-matrix image (k = l = 2 branch)
    from polyvec import RMatrix, r_matrix_to_bivector
    image = r_matrix_to_bivector(RMatrix(2, {((1, 1), (2, 2)): 1}))
    assert schouten(image, image).is_zero()
    tf, tr = self_bracket_parts(image)
    assert tf.is_zero() and tr.is_zero()


def test_self_bracket_parity():
    with pytest.raises(ParityError):
        self_bracket_parts(pv("x1^2*d2", 3))


def test_self_bracket_matches_bracket_parts():
    for a in random_even_fields(random.Random(34), 60):
        assert self_bracket_failures(a) == []


def test_decomposition_transports_under_linear_maps():
    # tracefree part transports directly, the trace picks up det(L)
    rng = random.Random(35)
    for _ in range(20):
        n = rng.choice([2, 3])
        l_matrix = random_invertible(rng, n)
        a = random_nonzero(rng, n, rng.randint(0, 3), rng.randint(0, n))
        parts = decompose(a)
        moved = decompose(pushforward(l_matrix, a))
        assert moved.tracefree == pushforward(l_matrix, parts.tracefree)
        assert moved.trace == pushforward(l_matrix, parts.trace).scale(l_matrix.det())
