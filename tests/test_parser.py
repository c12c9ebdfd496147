"""The one-pass parser against the token-cursor parser it replaced
(``util.parse_field_by_tokens``): on any text and dimension both give the
same field, or the same error with the same position.  Each drawn text is
parsed at n = 1..4, and seeded sums at the benchmark's dimensions and n = 40."""

import random
import sys

from hypothesis import example, given, settings, strategies as st

from polyvec import PolyvecError, parse_field
from util import parse_field_by_tokens

# grammar tokens and aliases, names out of range or unknown, Unicode decimal
# digits, superscripts and letters, the underscore, and Unicode whitespace
PIECES = st.sampled_from([
    "x1", "x2", "x3", "x4", "x5", "x0", "x01", "x٣", "x²", "d1", "d2", "d3", "d4", "d0", "d9",
    "x", "y", "z", "t", "dx", "dy", "dz", "dt", "w", "xd1", "é", "ß", "Ωx", "_", "?", ".",
    "0", "1", "2", "3", "10", "007", "٣", "۵", "²", "¹", "½", "^", "^2", "^999", "^1000",
    "/", "\\", "/\\", "*", "+", "-", " ", "\t", "\n", " ", " ", "　",
])
CHARACTERS = st.text(alphabet="0123456789xyztdw+-*/\\^ \t_²٣é ", max_size=16)
# sums of products, mostly well formed
FACTORS = st.sampled_from(["x1", "x2", "x3", "x4", "x", "y", "z", "t", "d1", "d2", "d3", "d4",
                           "dx", "dy", "dz", "dt", "2", "3/4", "0", "٣", "x1^2", "y^3", "x1^999"])
TERMS = st.tuples(st.sampled_from(["*", "/\\", " * "]), st.lists(FACTORS, min_size=1, max_size=4))
SUMS = st.lists(st.tuples(st.sampled_from(["", " + ", "-", " - "]), TERMS),
                min_size=1, max_size=5).map(
    lambda terms: "".join(sign + op.join(factors) for sign, (op, factors) in terms))
TEXTS = st.one_of(st.lists(PIECES, max_size=12).map("".join), CHARACTERS, SUMS)

# an integer past the interpreter's int/str digit limit, and names just past
# and at it
_LIMIT = sys.get_int_max_str_digits()
LONG = ["7" * (_LIMIT + 1), "x" + "0" * (_LIMIT - 1) + "1", "x" + "0" * (_LIMIT - 2) + "1"]


def outcome(parse, text, n):
    try:
        return parse(text, n)
    except PolyvecError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "position", None)


@settings(derandomize=True, max_examples=2000, deadline=None, database=None)
@given(TEXTS)
@example("x1^1000*x1^0 + x1^999*x1")
@example("-3/4*x*y*dz - dz/\\dx + 2/4*x*y*dz")
@example("t*dx/\\dt + dt/\\dx*t + d1/\\d1")
@example("x1 + ?" + LONG[0])
@example("x1 + x + " + LONG[0])
@example("2*" + LONG[1] + " + x")
@example("2*" + LONG[2] + "^2 + x1")
@example("1/" + LONG[0] + "*d1 _")
def test_parse_field_matches_the_token_parser(text):
    for n in range(1, 5):
        assert outcome(parse_field, text, n) == outcome(parse_field_by_tokens, text, n), n


def seeded_sums(n, count):
    """``count`` seeded sums at dimension ``n`` that mix signs, integer,
    fractional and zero coefficients, powers, repeated variables and
    unsorted, repeated partials.  Two fixed texts lead: a sweep through every
    variable and partial, and a term whose degree passes the cap at a bare
    variable.  About one text in five names an index past ``n`` or a term
    degree past the cap, so errors and their positions are compared too."""
    rng = random.Random(f"parser-sums-{n}")
    texts = [" + ".join(f"{m}/{m + 1}*x{m}^{m % 4 + 1}*x{n + 1 - m}*d{m}/\\d{n + 1 - m}"
                        for m in range(1, n + 1)), f"x{n}^998*x1*x{n}*d1"]
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 6)):
            factors = [rng.choice(["", "3", "0", "7/4", "2/6", "123456789012345678901"])]
            for m in rng.choices(range(1, n + 1), k=rng.randint(0, 4)):
                factors.append(f"x{m}" + rng.choice(["", "", "^2", "^7", "^0"]))
            partials = [f"d{j}" for j in rng.choices(range(1, n + 1), k=rng.randint(0, 3))]
            if rng.random() < 0.03:
                factors.append(f"x{n + 1}")
            if rng.random() < 0.03:
                factors.append(f"x{rng.randint(1, n)}^999*x{rng.randint(1, n)}^2")
            body = "*".join(f for f in factors if f) or "1"
            terms.append(rng.choice([" + ", " - ", "-"]) + "*".join(
                f for f in (body, "/\\".join(partials)) if f))
        texts.append("".join(terms).removeprefix(" + "))
    return texts


def test_parse_field_matches_the_token_parser_at_benchmark_dimensions():
    # the packed key's field offsets depend on n; the rank workload parses
    # at n = 5..7 and brackets at n = 8
    for n in (5, 6, 7, 8, 40):
        for text in seeded_sums(n, 100):
            assert outcome(parse_field, text, n) == outcome(parse_field_by_tokens, text, n), (
                n, text)
