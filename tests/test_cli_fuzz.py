"""Fuzzed command lines: every argv ends in exit 0, 1 or 2 with no
traceback, and anything on stderr is a usage or an ``error:`` line."""

import io
from datetime import timedelta

from hypothesis import example, given, settings, strategies as st

from polyvec.cli import run
from test_cli import CAPPED_CALLS, OVERSIZED_INTEGER_CALLS

# selftest reads no input, so it is left out
ARITY = {"wedge": 2, "bracket": 2, "trace": 1, "decompose": 1, "check-poisson": 1,
         "check-jacobi": 2, "rank": 1, "associate": 1, "dim-irrep": 3,
         "classify-cubic3": 0, "classify-quad4": 0, "rmatrix": 0}

# well-formed sums of products, and tokens and characters of the grammar,
# aliases included, joined in any order
FACTORS = st.sampled_from(["x1", "x2", "x3", "x4", "d1", "d2", "d3", "d4", "x", "y", "z",
                           "dx", "dy", "dz", "2", "3/2", "x1^2", "x2^3", "y^2"])
TERMS = st.lists(FACTORS, min_size=1, max_size=3).map("*".join)
TOKENS = ["x1", "x2", "x4", "d1", "d3", "t", "dt", "0", "1", "3/2", "^", "^2", "*", "/\\",
          "+", "-", " "]
EXPRESSIONS = st.one_of(
    st.lists(TERMS, min_size=1, max_size=3).map(" + ".join),
    st.lists(st.sampled_from(TOKENS), max_size=8).map("".join),
    st.text(alphabet="0123456789xdtyz+-*/\\^ ", max_size=12))
ENTRIES = st.sampled_from(["0", "1", "-1", "2", "1/2", "x", ""])


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 4))
    return ";".join(",".join(draw(ENTRIES) for _ in range(n)) for _ in range(n))


RMATRIX_TERMS = st.lists(
    st.tuples(st.lists(st.integers(0, 3), min_size=4, max_size=4), ENTRIES).map(
        lambda t: ",".join(map(str, t[0])) + ":" + t[1]),
    max_size=3).map(";".join)
OPTIONS = st.sampled_from(["--json", "--alias", "xyz", "txyz", "--dim", "x", "-1"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(ARITY)))
    argv = [command, "--dim", draw(st.sampled_from(["3", "4", "2", "1", "0"]))]
    if command == "dim-irrep":
        argv += [str(draw(st.integers(-1, 12))) for _ in range(3)]
    else:
        argv += [draw(EXPRESSIONS) for _ in range(ARITY[command])]
    if command.startswith("classify"):
        argv += ["--matrix", draw(matrices())]
    if command == "rmatrix":
        argv += ["--terms", draw(RMATRIX_TERMS)]
    return argv + draw(st.lists(OPTIONS, max_size=2))


def with_reproductions(test):
    """The capped and oversized-integer calls of test_cli, and a superscript
    digit, as explicit examples."""
    calls = [argv for argv, _ in CAPPED_CALLS + OVERSIZED_INTEGER_CALLS]
    for argv in calls + [["trace", "--dim", "3", "x²"]]:
        test = example(argv)(test)
    return test


@settings(derandomize=True, max_examples=200, deadline=timedelta(seconds=1),
          database=None)
@given(argvs())
@with_reproductions
def test_cli_never_raises(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    assert code in (0, 1, 2)
    text = err.getvalue()
    assert text == "" or text.startswith(("error:", "usage:"))
