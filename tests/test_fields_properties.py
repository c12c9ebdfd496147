"""Properties of the Schouten bracket, checked with hypothesis.

Every property runs derandomized, so the examples are the same on each run.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from polyvec import PolyVectorField, schouten
from util import schouten_pairwise, sgn

COEFFICIENTS = st.builds(
    Fraction,
    st.integers(-6, 6).filter(bool),
    st.sampled_from([1, 2, 3, 5, 10**12 + 39]),
)


@st.composite
def fields(draw, n, ell=None, max_terms=6):
    """A field on R^n with terms of polynomial degree 0..3; with ``ell`` all
    terms have that vector degree, otherwise the vector degrees mix."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        degree = draw(st.integers(0, n)) if ell is None else ell
        idx = draw(st.sampled_from(list(combinations(range(1, n + 1), degree))))
        terms[(exp, idx)] = draw(COEFFICIENTS)
    return PolyVectorField(n, terms)


@st.composite
def field_pairs(draw, homogeneous_vectors=False):
    n = draw(st.integers(1, 5))
    if homogeneous_vectors:
        return (draw(fields(n, draw(st.integers(0, n)))),
                draw(fields(n, draw(st.integers(0, n)))))
    return draw(fields(n)), draw(fields(n))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs())
def test_schouten_equals_pairwise_oracle(pair):
    u, v = pair
    assert schouten(u, v) == schouten_pairwise(u, v)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(field_pairs(homogeneous_vectors=True))
def test_schouten_is_graded_antisymmetric(pair):
    u, v = pair
    shift_u = len(next(iter(u.terms))[1]) - 1 if u.terms else 0
    shift_v = len(next(iter(v.terms))[1]) - 1 if v.terms else 0
    assert schouten(u, v) == schouten(v, u).scale(-sgn(shift_u * shift_v))
