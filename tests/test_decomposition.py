import random
from fractions import Fraction

import pytest

from polyvec import (
    BiDegree,
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
from util import (
    g_ab_bivector,
    pv,
    random_invertible,
    random_nonzero,
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
    rng = random.Random(33)
    checked = 0
    while checked < 120:
        n = rng.choice([2, 3, 4])
        k1, l1 = rng.randint(0, 3), rng.randint(0, n)
        k2, l2 = rng.randint(0, 3), rng.randint(0, n)
        if n + k1 - l1 == 0 or n + k2 - l2 == 0:
            continue
        a = random_nonzero(rng, n, k1, l1)
        b = random_nonzero(rng, n, k2, l2)
        checked += 1
        tf, tr = bracket_parts(a, b)
        parts = decompose(schouten(a, b))
        assert tf == parts.tracefree
        assert tr == parts.trace


def test_bracket_parts_brackets_each_pair_once(monkeypatch):
    from polyvec import decomposition
    a = pv("x1^2*d1/\\d3 + 2*x1*x2*d2/\\d3", 3)
    b = pv("x1*x3*d3 - 1/3*x2^2*d1", 3)
    assert not trace_d(a).is_zero() and not trace_d(b).is_zero()
    original = decomposition.schouten
    calls = []

    def counting(u, v):
        calls.append((u, v))
        return original(u, v)

    monkeypatch.setattr(decomposition, "schouten", counting)
    tf, tr = bracket_parts(a, b)
    assert len(calls) == 4
    assert len(set(calls)) == 4
    parts = decompose(schouten(a, b))
    assert (tf, tr) == (parts.tracefree, parts.trace)


def test_bracket_parts_rejects_mixed_input():
    with pytest.raises(HomogeneityError):
        bracket_parts(pv("x1*d2 + x1^2*d3", 3), pv("d1", 3))


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
    rng = random.Random(34)
    checked = 0
    while checked < 60:
        n = rng.choice([2, 3, 4])
        k = rng.randint(0, 3)
        ell = rng.choice([x for x in range(0, n + 1, 2)])
        if n + k - ell == 0:
            continue
        a = random_nonzero(rng, n, k, ell)
        checked += 1
        assert self_bracket_parts(a) == bracket_parts(a, a)
        tf, tr = self_bracket_parts(a)
        parts = decompose(schouten(a, a))
        assert tf == parts.tracefree and tr == parts.trace


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
