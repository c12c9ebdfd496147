import random
from fractions import Fraction
from itertools import combinations

import pytest

from polyvec import (
    DegreeLimitError,
    DimensionError,
    ExceptionalDegreeError,
    IncompatibleSplittingError,
    JacobiPair,
    ParityError,
    PolyVectorField,
    PreconditionError,
    RMatrix,
    are_associated,
    decompose,
    euler,
    exceptional_pair_check,
    generic_rank,
    is_jacobi,
    is_poisson,
    is_simple,
    jacobi_from_poisson,
    linalg,
    poisson_component_test,
    poisson_from_jacobi,
    pushforward,
    r_matrix_to_bivector,
    schouten,
    trace_d,
    wedge,
)
from polyvec.invariants import random_nonzero
from util import (
    CASE_A12,
    g_ab_bivector,
    generic_rank_by_minors,
    pfaffian_by_wedges,
    point_values_by_fractions,
    pv,
    random_invertible,
    so3_bivector,
    wedge_entries,
)
from polyvec import fields, structures
from polyvec.classifier import cubic3_catalog
from polyvec.structures import _pfaffian, _scaled_point_values


def test_is_poisson_examples():
    assert is_poisson(pv("d1/\\d2 + 2*d2/\\d3", 3))
    assert is_poisson(so3_bivector())
    assert not is_poisson(pv("x1*d1/\\d2 + x2*d2/\\d3", 3))
    assert is_poisson(PolyVectorField.zero(3))


def test_is_poisson_rejects_odd_degrees():
    with pytest.raises(ParityError):
        is_poisson(pv("x1*d1", 3))


def test_component_test_fixtures():
    for alpha, beta in [(1, 1), (2, -3), (Fraction(5, 2), Fraction(1, 3))]:
        assert poisson_component_test(g_ab_bivector(alpha, beta))
    assert poisson_component_test(PolyVectorField.zero(3))
    # quadratic instance with [A0, A0] = 0 but [DA, A0] != 0, found by search
    # over sparse rational bi-vectors: fails through the k = l branch
    a = pv("x1*x3*d1/\\d2 + x1*x2*d2/\\d3", 3)
    parts = decompose(a)
    assert schouten(parts.tracefree, parts.tracefree).is_zero()
    assert not schouten(parts.trace, parts.tracefree).is_zero()
    assert not poisson_component_test(a)
    assert not is_poisson(a)


def test_component_test_agrees_with_direct_bracket():
    rng = random.Random(41)
    checked = 0
    poisson_hits = 0
    while checked < 200:
        n = rng.choice([2, 3, 4])
        k = rng.randint(0, 3)
        ell = rng.choice([x for x in range(0, n + 1, 2)])
        a = random_nonzero(rng, n, k, ell, nterms=rng.choice([1, 2, 3]))
        checked += 1
        direct = is_poisson(a)
        poisson_hits += direct
        assert poisson_component_test(a) == direct
    # the sample must exercise both outcomes
    assert 0 < poisson_hits < checked


def test_is_simple_examples():
    assert is_simple(g_ab_bivector(1, 3))
    assert is_simple(so3_bivector())
    a0 = pv("x1^2*d2", 3)
    assert is_simple(wedge(a0, euler(3, 3, 2)))
    with pytest.raises(PreconditionError):
        is_simple(pv("x1*d1/\\d2 + x2*d2/\\d3", 3))


def test_generic_rank_examples():
    assert generic_rank(pv("d1/\\d2 + d3/\\d4", 4)) == 4
    assert generic_rank(so3_bivector()) == 2
    assert generic_rank(PolyVectorField.zero(3)) == 0
    with pytest.raises(ParityError):
        generic_rank(pv("x1*d1", 3))


def test_generic_rank_invariant_under_pushforward():
    rng = random.Random(42)
    for pi in (so3_bivector(), g_ab_bivector(2, 3), pv("x1*x2*d1/\\d2", 3)):
        for _ in range(5):
            l_matrix = random_invertible(rng, 3)
            assert generic_rank(pushforward(l_matrix, pi)) == generic_rank(pi)


def linear_field(rng, n, nterms):
    """A sparse linear vector field as {(variable, partial): coefficient},
    both 0-based."""
    slots = rng.sample([(m, i) for m in range(n) for i in range(n)], nterms)
    return {slot: Fraction(rng.choice((1, 2, 3, 5, 7)) * rng.choice((1, -1)),
                           rng.choice((1, 1, 2)))
            for slot in slots}


def as_field(n, linear):
    return PolyVectorField(n, {(tuple(int(t == m) for t in range(n)), (i + 1,)): c
                               for (m, i), c in linear.items()})


def symplectic(n):
    """The constant form d1/\\d2 + d3/\\d4 + ... on the even part of R^n."""
    return PolyVectorField(n, {((0,) * n, (i, i + 1)): 1 for i in range(1, n, 2)})


def point_skew(pairs, n, point, constant=None):
    """Skew matrix of sum X /\\ Y (+ constant) at a point, from the factors."""
    def at(linear):
        out = [Fraction(0)] * n
        for (m, i), c in linear.items():
            out[i] += c * point[m]
        return out
    skew = [[Fraction(0)] * n for _ in range(n)]
    for x, y in pairs:
        xs, ys = at(x), at(y)
        for i in range(n):
            for j in range(n):
                skew[i][j] += xs[i] * ys[j] - xs[j] * ys[i]
    for (exp, (i, j)), c in (constant.terms if constant else {}).items():
        skew[i - 1][j - 1] += c
        skew[j - 1][i - 1] -= c
    return skew


def times_vanishing_form(field):
    """field times a linear form vanishing at generic_rank's evaluation point
    x_m = m + 1/(m + 1): 14 * 3/2 - 9 * 7/3 = 0."""
    return wedge(pv("14*x1 - 9*x2", field.dim), field)


def rank_at_documented_point(p):
    n = p.dim
    point = [m + Fraction(1, m + 1) for m in range(1, n + 1)]
    skew = [[Fraction(0)] * n for _ in range(n)]
    for (exp, (i, j)), c in p.terms.items():
        for m, e in enumerate(exp):
            c *= point[m] ** e
        skew[i - 1][j - 1] += c
        skew[j - 1][i - 1] -= c
    return linalg.rank(skew)


def scale_cases():
    """Seeded bi-vectors: homogeneous ones and sums of two degrees, so the
    exponent of a variable differs between terms (top_m - e_m varies)."""
    rng = random.Random(1414)
    cases = [PolyVectorField.zero(4), symplectic(5), so3_bivector(), g_ab_bivector(2, 0),
             times_vanishing_form(symplectic(4))]
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(4):
            k = rng.randint(0, 3)
            p = random_nonzero(rng, n, k, 2, nterms=rng.randint(1, 8))
            cases += [p, p + random_nonzero(rng, n, rng.randint(0, 4), 2, nterms=4)]
    return cases


def test_integer_point_is_a_positive_multiple_of_the_fraction_point():
    """generic_rank's integer matrix is prod_m b_m^top_m times the matrix of
    the Fraction evaluation at x_m = m + 1/(m + 1), entry for entry, and the
    two have the same pivot columns."""
    varied = 0
    for p in scale_cases():
        exps = [exp for exp, _ in p.terms]
        top = [max(column) for column in zip(*exps)]
        varied += any(len({exp[m] for exp in exps}) > 1 for m in range(len(top)))
        scale = 1
        for m, t in enumerate(top, 1):
            scale *= (m + 1) ** t
        values = _scaled_point_values(p)
        oracle = point_values_by_fractions(p)
        assert values.keys() == oracle.keys()
        for ij, v in values.items():
            assert type(v) is int and v == scale * oracle[ij], (p, ij)
        support = sorted({i for ij in values for i in ij})

        def skew(vals):
            return [[vals.get((i, j), 0) if i < j else -vals.get((j, i), 0)
                     for j in support] for i in support]

        assert linalg.rref(skew(values))[1] == linalg.rref(skew(oracle))[1]
    assert varied > 20


def test_point_values_unpack_each_distinct_monomial_once(monkeypatch):
    calls = []

    def counting(dim, packed):
        calls.append(packed)
        return unpack(dim, packed)

    unpack = structures._unpack
    monkeypatch.setattr(structures, "_unpack", counting)
    repeated = 0
    for p in scale_cases():
        calls.clear()
        _scaled_point_values(p)
        distinct = [packed for group in p.nums.values() for packed in group]
        repeated += len(distinct) > len(set(distinct))
        assert sorted(calls) == sorted(set(distinct)), p
    assert repeated > 20


def test_generic_rank_makes_the_degree_bound_hold_in_its_pfaffians():
    """Pf(1234) = x1^e x2^e - x1^e x2^e is the zero polynomial, but each of
    its products has degree 2e = 32768, past the bound, and a key of that
    degree would carry out of its degree field if it were ever added to."""
    e = 16384
    p = PolyVectorField(4, {((e, 0, 0, 0), (1, 2)): 1, ((e, 0, 0, 0), (1, 4)): 1,
                            ((0, e, 0, 0), (2, 3)): -1, ((0, e, 0, 0), (3, 4)): 1})
    with pytest.raises(DegreeLimitError,
                       match="^a result has a term of degree 32768, past the limit of 32767$"):
        generic_rank(p)


def pfaffian_cases():
    """Seeded sums of wedges of linear fields, with and without the
    symplectic form, at n = 4..8: ranks 2, 4 and full."""
    rng = random.Random(1818)
    cases = []
    for n in range(4, 9):
        x, y, z, w = (as_field(n, linear_field(rng, n, rng.randint(2, n))) for _ in range(4))
        cases += [wedge(x, y), wedge(x, y) + wedge(z, w), symplectic(n) + wedge(x, y)]
    return cases


def test_integer_pfaffians_equal_the_wedge_oracle():
    """Every even-sized principal Pfaffian on the support, from 2 x 2 up,
    equals the numerators of the Pfaffian expanded by field wedges."""
    nonzero = vanishing = 0
    for p in pfaffian_cases():
        upper = p.nums
        fields_upper, fields_memo = wedge_entries(p)
        memo = {}
        support = sorted({i for ij in upper for i in ij})
        for size in range(2, len(support) + 1, 2):
            for rows in combinations(support, size):
                value = _pfaffian(rows, upper, memo)
                oracle = pfaffian_by_wedges(p.dim, rows, fields_upper, fields_memo)
                assert oracle.den == 1
                assert oracle.nums == ({(): value} if value else {}), (p, rows)
                if size >= 4:
                    nonzero += bool(value)
                    vanishing += not value
    assert nonzero > 100 and vanishing > 100


def test_generic_rank_builds_no_field_for_its_pfaffians(monkeypatch):
    """A rank-deficient input reaches the bordered Pfaffians, and they
    expand with no ``_wedge`` call and no field stored; its point pivots are
    read off the integer elimination, with no ``Fraction`` built in
    ``linalg``."""
    rng = random.Random(7)
    x, y = (as_field(6, linear_field(rng, 6, 5)) for _ in range(2))
    p = wedge(x, y)
    counts = {"_wedge": 0, "_store": 0, "_pfaffian": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    counting(fields._SparseTerms, "_wedge")
    counting(fields, "_store")
    counting(structures, "_pfaffian")

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("linalg built a Fraction")
    monkeypatch.setattr(linalg, "Fraction", NoFraction)
    assert generic_rank(p) == 2
    assert counts["_wedge"] == counts["_store"] == 0 < counts["_pfaffian"]
    with pytest.raises(AssertionError, match="built a Fraction"):
        linalg.rref([[1, 2]])


def test_generic_rank_matches_minor_oracle():
    rng = random.Random(2024)
    cases = [PolyVectorField.zero(n) for n in (2, 5)]
    cases += [symplectic(n) for n in (2, 3, 4, 5, 6)]
    cases += [pv("2*d1/\\d3 - 1/2*d2/\\d4 + d1/\\d4", 4), so3_bivector(),
              g_ab_bivector(1, 3), g_ab_bivector(2, 0)]
    for n in (3, 4, 5, 6):
        for _ in range(5):
            x, y, z, w = (as_field(n, linear_field(rng, n, rng.randint(2, n)))
                          for _ in range(4))
            cases += [wedge(x, y), wedge(x, y) + wedge(z, w)]
    for n in (2, 3, 4, 5, 6):
        for _ in range(8):
            cases.append(random_nonzero(rng, n, rng.randint(0, 2), 2, nterms=rng.randint(1, 6)))
    for n in (4, 5, 6):
        x, y = (as_field(n, linear_field(rng, n, 3)) for _ in range(2))
        cases += [times_vanishing_form(symplectic(n)),
                  symplectic(n) + times_vanishing_form(wedge(x, y))]
    cases.append(times_vanishing_form(so3_bivector()))
    for p in cases:
        assert generic_rank(p) == generic_rank_by_minors(p), p


def test_generic_rank_grows_the_pivot_block_when_the_point_is_unlucky():
    """Fields that lose rank at the evaluation point: the pivot block found
    there is too small, and only the bordered Pfaffians reach the answer."""
    for p, expected in [
        (times_vanishing_form(symplectic(4)), 4),
        (pv("d1/\\d2", 4) + times_vanishing_form(pv("d3/\\d4", 4)), 4),
        (times_vanishing_form(so3_bivector()), 2),
        (times_vanishing_form(symplectic(6)), 6),
    ]:
        assert rank_at_documented_point(p) < expected
        assert generic_rank(p) == generic_rank_by_minors(p) == expected


@pytest.mark.parametrize("n, npairs, nterms, with_symplectic, expected", [
    (12, 1, 12, False, 2),
    (10, 2, 8, False, 4),
    (16, 1, 16, True, 16),
])
def test_generic_rank_beyond_minor_enumeration(n, npairs, nterms, with_symplectic, expected):
    """Each answer is certified in the test: the construction bounds the rank
    from above, the exact rank at a seeded rational point from below."""
    rng = random.Random(f"rank-{n}")
    pairs = [(linear_field(rng, n, nterms), linear_field(rng, n, nterms))
             for _ in range(npairs)]
    p = symplectic(n) if with_symplectic else PolyVectorField.zero(n)
    for x, y in pairs:
        p = p + wedge(as_field(n, x), as_field(n, y))
    point = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
    lower = linalg.rank(point_skew(pairs, n, point, symplectic(n) if with_symplectic else None))
    assert lower == expected
    assert generic_rank(p) == expected


def test_is_jacobi_examples():
    pi = so3_bivector()
    assert is_jacobi(JacobiPair(pi, PolyVectorField.zero(3)))
    assert not is_jacobi(JacobiPair(pi, pv("d1", 3)))
    # cubic catalog structure with the two canonical pairs
    gen = cubic3_catalog(CASE_A12).generators[0]
    parts = decompose(gen)
    assert is_jacobi(JacobiPair(gen, PolyVectorField.zero(3)))
    assert is_jacobi(JacobiPair(parts.tracefree, parts.trace.scale(Fraction(-1, 4))))


def test_jacobi_pair_validation():
    with pytest.raises(ParityError):
        JacobiPair(pv("x1*d1", 3), PolyVectorField.zero(3))
    with pytest.raises(ParityError):
        JacobiPair(so3_bivector(), pv("d1/\\d2", 3))
    with pytest.raises(DimensionError):
        JacobiPair(so3_bivector(), PolyVectorField.zero(2))


def test_poisson_from_jacobi_round_trips():
    gen = cubic3_catalog(CASE_A12).generators[0]
    parts = decompose(gen)
    # identity pair reproduces the structure
    assert poisson_from_jacobi(JacobiPair(gen, PolyVectorField.zero(3))) == gen
    # trace-free pair reproduces it as well
    pair = JacobiPair(parts.tracefree, parts.trace.scale(Fraction(-1, 4)))
    assert poisson_from_jacobi(pair) == gen


def test_poisson_from_jacobi_degree_guards():
    quad = pv("x1*x2*d1/\\d2", 2)
    assert is_poisson(quad)
    with pytest.raises(ExceptionalDegreeError):
        poisson_from_jacobi(JacobiPair(quad, PolyVectorField.zero(2)))
    with pytest.raises(PreconditionError):
        poisson_from_jacobi(JacobiPair(so3_bivector(), pv("d1", 3)))


def test_jacobi_from_poisson_special_cases():
    gen = cubic3_catalog(CASE_A12).generators[0]
    parts = decompose(gen)
    zero = PolyVectorField.zero(3)
    identity_pair = jacobi_from_poisson(gen, parts.trace, zero)
    assert identity_pair.lam == gen and identity_pair.e_field.is_zero()
    tracefree_pair = jacobi_from_poisson(gen, zero, zero)
    assert tracefree_pair.lam == parts.tracefree
    assert tracefree_pair.e_field == parts.trace.scale(Fraction(-1, 4))
    for pair in (identity_pair, tracefree_pair):
        assert is_jacobi(pair)
        assert poisson_from_jacobi(pair) == gen


def test_jacobi_from_poisson_scaled_splittings():
    gen = cubic3_catalog(CASE_A12).generators[0]
    dp = decompose(gen).trace
    zero = PolyVectorField.zero(3)
    for c in (Fraction(1, 2), Fraction(-2), Fraction(3, 7)):
        pair = jacobi_from_poisson(gen, dp.scale(c), zero)
        assert is_jacobi(pair)
        assert poisson_from_jacobi(pair) == gen


def test_jacobi_from_poisson_incompatible_splitting():
    gen = cubic3_catalog(CASE_A12).generators[0]
    zero = PolyVectorField.zero(3)
    # a trace-free quadratic field that fails the compatibility equation
    bad = pv("x2^2*d1", 3)
    assert trace_d(bad).is_zero()
    with pytest.raises(IncompatibleSplittingError):
        jacobi_from_poisson(gen, bad, zero)


def test_jacobi_from_poisson_rejects_non_tracefree_split():
    gen = cubic3_catalog(CASE_A12).generators[0]
    zero = PolyVectorField.zero(3)
    with pytest.raises(PreconditionError):
        jacobi_from_poisson(gen, pv("x1^2*d1", 3), zero)


def test_are_associated_examples():
    gen = cubic3_catalog(CASE_A12).generators[0]
    parts = decompose(gen)
    zero = PolyVectorField.zero(3)
    assert are_associated(gen, JacobiPair(gen, zero))
    assert are_associated(gen, JacobiPair(parts.tracefree, parts.trace.scale(Fraction(-1, 4))))
    # another stratum's generator has a different trace-free part
    from util import CASE_B2
    other = cubic3_catalog(CASE_B2).generators[0]
    assert decompose(other).tracefree != parts.tracefree
    assert not are_associated(gen, JacobiPair(other, zero))
    # same trace-free part but unmatched trace fails through the E-condition
    padded = wedge(pv("x2^2*d1", 3), euler(3, 3, 2)) + gen
    assert decompose(padded).tracefree == parts.tracefree
    assert not are_associated(gen, JacobiPair(padded, zero))


def test_exceptional_degree_checker():
    quad = pv("x1*x2*d1/\\d2", 2)
    pair = JacobiPair(quad, PolyVectorField.zero(2))
    assert exceptional_pair_check(quad, pair, PolyVectorField.zero(2))


def test_r_matrix_fixtures():
    image = r_matrix_to_bivector(RMatrix(2, {((1, 1), (2, 2)): 1}))
    assert image == pv("x1*x2*d1/\\d2", 2)
    assert r_matrix_to_bivector(RMatrix(2, {((1, 2), (1, 2)): 1})).is_zero()
    # swapped wedge order flips the sign in canonical storage
    r = RMatrix(2, {((2, 2), (1, 1)): 1})
    assert r_matrix_to_bivector(r) == pv("-x1*x2*d1/\\d2", 2)


def test_r_matrix_compares_and_hashes_by_value():
    """One element built two ways, the second with the units swapped and the
    sign flipped, is one value: equal and hash-equal."""
    a = RMatrix(2, {((1, 1), (2, 2)): 1})
    b = RMatrix(2, {((2, 2), (1, 1)): -1, ((1, 2), (1, 2)): 5})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != RMatrix(3, {((1, 1), (2, 2)): 1})
    assert a != RMatrix(2, {((1, 1), (2, 2)): 2})
    assert a != a.coefficients


def test_r_matrix_refuses_float_coefficients():
    with pytest.raises(TypeError):
        RMatrix(2, {((1, 1), (2, 2)): 0.1})
    exact = RMatrix(2, {((1, 1), (2, 2)): "1/10"})
    assert exact.coefficients == {((1, 1), (2, 2)): Fraction(1, 10)}


def test_r_matrix_refuses_non_integral_unit_indices():
    with pytest.raises(TypeError):
        RMatrix(2, {((1.9, 1), (2, 2)): 1})


def test_r_matrix_coefficients_cannot_be_changed_past_the_checks():
    r = RMatrix(2, {((1, 1), (2, 2)): 1})
    with pytest.raises(TypeError):
        r.coefficients[((1, 1), (3, 3))] = Fraction(1, 2)
    with pytest.raises(AttributeError):
        r.coefficients.clear()
    assert r.coefficients == {((1, 1), (2, 2)): 1}
    assert r_matrix_to_bivector(r) == pv("x1*x2*d1/\\d2", 2)


def test_r_matrix_checks_the_key_of_a_zero_coefficient():
    with pytest.raises(DimensionError):
        RMatrix(2, {((5, 5), (1, 1)): 0})
    with pytest.raises(TypeError):
        RMatrix(2, {((1.9, 1), (2, 2)): 0})
    assert RMatrix(2, {((1, 1), (2, 2)): 0}).coefficients == {}


def test_r_matrix_images_quadratic_and_poisson_in_dim2():
    rng = random.Random(43)
    for _ in range(25):
        coefficients = {}
        for _ in range(rng.randint(1, 4)):
            key = ((rng.randint(1, 2), rng.randint(1, 2)),
                   (rng.randint(1, 2), rng.randint(1, 2)))
            coefficients[key] = coefficients.get(key, Fraction(0)) + rng.randint(-3, 3)
        image = r_matrix_to_bivector(RMatrix(2, coefficients))
        assert is_poisson(image)
        if not image.is_zero():
            assert image.bidegree().k == 2 and image.bidegree().ell == 2


def test_tracefree_cubic_bivectors_self_commute_in_dim3():
    # [P0, P0] = D(P0 /\ P0) and the wedge square lives in vector degree 4,
    # which vanishes in dimension three; hence every trace-free cubic
    # bi-vector self-commutes and cubic Poisson structures are simple
    rng = random.Random(44)
    for _ in range(25):
        a = random_nonzero(rng, 3, 3, 2, nterms=3)
        p0 = decompose(a).tracefree
        assert schouten(p0, p0).is_zero()
        assert wedge(p0, p0).is_zero()


def test_euler_wedge_raises_trace_by_known_factor():
    # D(A /\ e^(k,l)) = (n + k' - l')/(n + k - l) A whenever DA = 0
    rng = random.Random(45)
    checked = 0
    while checked < 30:
        n = rng.choice([2, 3, 4])
        kp, lp = rng.randint(0, 3), rng.randint(0, n)
        k, ell = rng.randint(0, 3), rng.randint(0, n)
        if n + k - ell == 0:
            continue
        a0 = decompose(random_nonzero(rng, n, kp, lp)).tracefree
        if a0.is_zero():
            continue
        checked += 1
        scale = Fraction(n + kp - lp, n + k - ell)
        assert trace_d(wedge(a0, euler(n, k, ell))) == a0.scale(scale)


def test_component_test_on_constructed_poisson_instances():
    rng = random.Random(46)
    instances = [so3_bivector(), g_ab_bivector(3, -2)]
    instances.extend(cubic3_catalog(CASE_A12).generators)
    # images of r-matrices in dimension two
    for _ in range(5):
        coefficients = {}
        for _ in range(3):
            key = ((rng.randint(1, 2), rng.randint(1, 2)),
                   (rng.randint(1, 2), rng.randint(1, 2)))
            coefficients[key] = coefficients.get(key, Fraction(0)) + rng.randint(-3, 3)
        instances.append(r_matrix_to_bivector(RMatrix(2, coefficients)))
    # trace-shaped fields A /\ e^(k,l)
    for _ in range(5):
        n = rng.choice([3, 4])
        a = random_nonzero(rng, n, rng.randint(0, 2), 1)
        instances.append(wedge(a, euler(n, 1 + a.bidegree().k, 2)))
    for pi in instances:
        if pi.is_zero():
            continue
        assert is_poisson(pi)
        assert poisson_component_test(pi)


def test_jacobi_from_poisson_on_full_compatibility_family():
    # solve the compatibility equation exactly in the unknowns (F0, xi) and
    # check the construction yields a Jacobi pair on random solutions
    from polyvec import linalg, monomial_exponents, trace_d as D

    rng = random.Random(47)
    vf_basis = [PolyVectorField.single(3, 1, e, (j,))
                for e in monomial_exponents(3, 2) for j in (1, 2, 3)]
    keys = sorted({k for b in vf_basis for k in D(b).terms})
    matrix = [[D(b).terms.get(k, Fraction(0)) for b in vf_basis] for k in keys]
    tf_basis = []
    for vec in linalg.nullspace(matrix, len(vf_basis)):
        acc = PolyVectorField.zero(3)
        for c, b in zip(vec, vf_basis):
            if c:
                acc = acc + b.scale(c)
        tf_basis.append(acc)
    xi_basis = [PolyVectorField.single(3, 1, e, ())
                for e in monomial_exponents(3, 1)]

    from polyvec.classifier import cubic3_catalog as catalog
    from util import CASE_B2
    for pi in catalog(CASE_B2).generators[:3]:
        parts = decompose(pi)
        p0, dp = parts.tracefree, parts.trace
        images = [schouten(p0, f) + wedge(f, dp) for f in tf_basis]
        images += [wedge(x, p0).scale(-1) for x in xi_basis]
        okeys = sorted({k for im in images for k in im.terms})
        m = [[im.terms.get(k, Fraction(0)) for im in images] for k in okeys]
        solutions = linalg.nullspace(m, len(images))
        assert solutions, "compatibility system should at least contain F0 = DP"
        for _ in range(6):
            weights = [Fraction(rng.randint(-2, 2)) for _ in solutions]
            combo = [sum((w * vec[i] for w, vec in zip(weights, solutions)), Fraction(0))
                     for i in range(len(images))]
            f0 = PolyVectorField.zero(3)
            for c, b in zip(combo[:len(tf_basis)], tf_basis):
                if c:
                    f0 = f0 + b.scale(c)
            xi = PolyVectorField.zero(3)
            for c, b in zip(combo[len(tf_basis):], xi_basis):
                if c:
                    xi = xi + b.scale(c)
            pair = jacobi_from_poisson(pi, f0, xi)
            assert is_jacobi(pair)
