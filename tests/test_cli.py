import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polyvec import (
    ParseError,
    PolyVectorField,
    PolyvecError,
    PreconditionError,
    format_expr,
    linalg,
    parse_expr,
    parse_field,
    schouten,
)
from polyvec import cli
from polyvec.cli import (
    catalog_document,
    parse_matrix,
    parse_rmatrix_terms,
    reverify_catalog_document,
    run,
)
from polyvec.classifier import cubic3_catalog, quad4_catalog
from polyvec.invariants import random_nonzero
from util import CASE_A12, CASE_B2, pv


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue().rstrip("\n"), err.getvalue()


def test_parse_basic_fixtures():
    assert parse_expr("x1^2*d2", 3).to_field() == PolyVectorField.single(3, 1, (2, 0, 0), (2,))
    assert parse_expr("d2/\\d1", 3).to_field() == PolyVectorField.single(3, -1, (0, 0, 0), (1, 2))
    assert parse_field("3/4*x*y*dz", 3) == PolyVectorField.single(3, Fraction(3, 4), (1, 1, 0), (3,))
    assert parse_field("t*dx - x*dt", 4) == PolyVectorField(
        4, {((1, 0, 0, 0), (2,)): 1, ((0, 1, 0, 0), (1,)): -1})
    assert parse_field("d1/\\d1", 3).is_zero()
    assert parse_field("2 + x1", 2) == PolyVectorField(
        2, {((0, 0), ()): 2, ((1, 0), ()): 1})


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_expr("x5*d1", 3)
    with pytest.raises(ParseError) as info:
        parse_expr("x1 + ", 3)
    assert info.value.position is not None
    with pytest.raises(ParseError):
        parse_expr("x1 ? d2", 3)
    with pytest.raises(ParseError):
        parse_expr("w*d1", 3)
    with pytest.raises(ParseError):
        parse_expr("", 3)
    with pytest.raises(ParseError):
        parse_expr("1/0", 3)


def test_format_fixtures():
    assert format_expr(pv("x1^2*d2", 3)) == "x1^2*d2"
    assert format_expr(pv("x1^2*d2", 3), alias="xyz") == "x^2*dy"
    assert format_expr(PolyVectorField.zero(3)) == "0"
    assert format_expr(pv("x1*d1 + x2*d2", 2)) == "x1*d1 + x2*d2"
    assert format_expr(pv("-d1/\\d2 - 1/2*x1*d3", 3)) == "-d1/\\d2 - 1/2*x1*d3"
    assert format_expr(PolyVectorField.constant(-3, 3)) == "-3"


CANONICAL_FIXTURES = [
    "0", "1", "-1", "5/7", "x1", "x3^4", "x1*x2*x3",
    "d1", "d1/\\d2", "d1/\\d2/\\d3", "-d2",
    "x1*d1 + x2*d2 + x3*d3", "x1^2*d2", "2*x1^2*d2",
    "-5/4*x1^3*d1/\\d2 - 11/4*x1^2*x3*d2/\\d3",
    "x2*d1/\\d2 + 3*x3*d1/\\d3", "x1*x2*d1/\\d2",
    "1/2*x1*d1", "x1^2*x2^3*x3*d1/\\d3", "7*x2^2*d3",
    "x1*d2 - x2*d1", "x3^2*d3 - x1*x3*d1 - x2*x3*d2",
    "3*x1*x3*d3 - x1^2*d1 - x1*x2*d2", "d1/\\d3",
    "x1^2*d1/\\d2/\\d3", "-2*x2*d2", "x2^2*d1", "x1*x3*d2",
    "1/3*x1*d1 + 1/3*x2*d2 + 1/3*x3*d3", "x2*x3*d1",
    "x1^2 + x2^2 + x3^2", "-x1^3*d1/\\d2", "4*d1",
    "x1*x2^2*d3", "x3*d1/\\d2", "-x2*d1/\\d3", "x1^4*d2",
    "x1^2*d2 - x1*x2*d1", "d2/\\d3", "x2^4*d1/\\d2",
    "2/3*x3^3*d3", "x1*d1/\\d2 + x2*d1/\\d3", "-7/2*x2*x3*d2",
    "x1^3*x2*d1", "x2*d3", "x3*d2", "5*x1*x2*d1/\\d2/\\d3",
    "x1*x2*x3*d1/\\d2/\\d3", "9*x3^2*d1/\\d2", "-x1*d1 + x1*d2",
]


def test_parse_format_identity_on_fixtures():
    assert len(CANONICAL_FIXTURES) >= 50
    for text in CANONICAL_FIXTURES:
        ast = parse_expr(text, 3)
        assert parse_expr(format_expr(ast.to_field()), 3) == ast


def test_parse_format_identity_on_random_fields():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        f = random_nonzero(rng, n, rng.randint(0, 4), rng.randint(0, n), nterms=3)
        assert parse_field(format_expr(f), n) == f
        if n == 3:
            assert parse_field(format_expr(f, alias="xyz"), n) == f
        if n == 4:
            assert parse_field(format_expr(f, alias="txyz"), n) == f


def test_run_documented_examples():
    assert call(["trace", "--dim", "3", "x1*d1 + x2*d2 + x3*d3"]) [:2] == (0, "3")
    code, text, _ = call(["check-poisson", "--dim", "3", "x1*d1/\\d2 + x2*d2/\\d3"])
    assert (code, text) == (1, "false")
    assert call(["dim-irrep", "3", "2", "2"])[:2] == (0, "10")


def test_run_predicates_and_operations():
    code, text, _ = call(["check-poisson", "--dim", "3", "x*d2/\\d3 - y*d1/\\d3 + z*d1/\\d2"])
    assert (code, text) == (0, "true")
    code, text, _ = call(["rank", "--dim", "4", "d1/\\d2 + d3/\\d4"])
    assert (code, text) == (0, "4")
    code, text, _ = call(["bracket", "--dim", "3", "d1", "x1^2*d2"])
    assert (code, text) == (0, "2*x1*d2")
    code, text, _ = call(["wedge", "--dim", "3", "x1*d1", "x2*d2"])
    assert (code, text) == (0, "x1*x2*d1/\\d2")
    code, text, _ = call(["check-jacobi", "--dim", "3",
                          "x*d2/\\d3 - y*d1/\\d3 + z*d1/\\d2", "0*d1"])
    assert (code, text) == (0, "true")
    code, text, _ = call(["check-jacobi", "--dim", "3",
                          "x*d2/\\d3 - y*d1/\\d3 + z*d1/\\d2", "d1"])
    assert (code, text) == (1, "false")


def test_run_decompose_text_output():
    code, text, _ = call(["decompose", "--dim", "3", "x2*d1/\\d2 + 3*x3*d1/\\d3"])
    assert code == 0
    assert text.splitlines() == [
        "tracefree: -x2*d1/\\d2 + x3*d1/\\d3",
        "trace_part: 2*x2*d1/\\d2 + 2*x3*d1/\\d3",
        "trace: 4*d1",
    ]


def test_run_associate():
    code, text, _ = call(["associate", "--dim", "3", "--json",
                          "x2*d1/\\d2 + 3*x3*d1/\\d3"])
    assert code == 0
    payload = json.loads(text)
    assert [p["case"] for p in payload["pairs"]] == ["identity", "trace-free"]
    assert all(p["jacobi"] for p in payload["pairs"])


def test_run_error_paths():
    code, _, err = call(["trace", "--dim", "3", "x5*d1"])
    assert code == 2 and "error" in err
    code, _, err = call(["decompose", "--dim", "3", "x1*d2 + x1^2*d3"])
    assert code == 2
    assert call(["no-such-command"])[0] == 2
    code, _, err = call(["rank", "--dim", "0", "x1*d1/\\d2"])
    assert (code, err) == (2, "error: ambient dimension must be >= 1, got 0\n")


def test_run_dimension_cap_fails_before_parsing(monkeypatch):
    assert cli.MAX_DIM >= 2000
    assert call(["rank", "--dim", str(cli.MAX_DIM), "d1/\\d2"])[:2] == (0, "2")

    def no_parse(text, n):
        raise AssertionError("parsed an expression over the dimension cap")

    monkeypatch.setattr(cli, "parse_field", no_parse)
    for argv in (["rank", "--dim", "1000000", "d1/\\d2"],
                 ["wedge", "--dim", str(cli.MAX_DIM + 1), "d1", "d2"],
                 ["rmatrix", "--dim", "1000000", "--terms", "1,1,2,2:1"]):
        start = time.perf_counter()
        code, text, err = call(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, text) == (2, "")
        assert err == f"error: ambient dimension must be <= {cli.MAX_DIM}, got {argv[2]}\n"


# inputs whose work would grow without bound past a cap
CAPPED_CALLS = [
    (["rank", "--dim", "2", "x1^100000000*d1/\\d2"], "term degree exceeds the limit"),
    (["rank", "--dim", "2", f"x1^{cli.MAX_DEGREE - 1}*x1^2*d1/\\d2"],
     "term degree exceeds the limit"),
    (["dim-irrep", "100000000", "100000000", "5"], "dim-irrep needs n <="),
    (["dim-irrep", str(cli.MAX_DIM + 1), "1", "5"], "dim-irrep needs n <="),
    (["dim-irrep", "3", str(cli.MAX_DEGREE + 1), "1"], "dim-irrep needs n <="),
    (["classify-cubic3", "--matrix", "1e999999999,0,0;0,-1,0;0,0,1"],
     "decimal exponent exceeds the limit"),
    (["rmatrix", "--dim", "2", "--terms", "1,1,2,2:1E-999_999_999"],
     "decimal exponent exceeds the limit"),
    (["trace", "--dim", "10000", " + ".join(f"x{i}*d1/\\d2" for i in range(1, 3001))],
     "terms times dimension exceed the limit"),
    (["rmatrix", "--dim", "10000", "--terms",
      ";".join(f"{i},{i + 1},{i + 2},{i + 3}:{i}" for i in range(1, 3001))],
     "terms times dimension exceed the limit"),
]


def test_run_degree_and_irrep_caps():
    assert call(["rank", "--dim", "2", f"x1^{cli.MAX_DEGREE}*d1/\\d2"])[:2] == (0, "2")
    at_cap = " + ".join(["d1/\\d2"] * (cli.MAX_TERM_CELLS // cli.MAX_DIM))
    assert call(["rank", "--dim", str(cli.MAX_DIM), at_cap])[:2] == (0, "2")
    assert call(["rank", "--dim", str(cli.MAX_DIM), at_cap + " - d1/\\d2"])[0] == 2
    at_cap = ";".join(["1,1,2,2:1"] * (cli.MAX_TERM_CELLS // cli.MAX_DIM))
    assert call(["rmatrix", "--dim", str(cli.MAX_DIM), "--terms", at_cap])[:2] == (
        0, f"{cli.MAX_TERM_CELLS // cli.MAX_DIM}*x1*x2*d1/\\d2")
    code, text, err = call(["rmatrix", "--dim", str(cli.MAX_DIM), "--terms",
                            at_cap + ";1,1,2,2:1"])
    assert (code, text) == (2, "") and "terms times dimension exceed the limit" in err
    assert call(["dim-irrep", str(cli.MAX_DIM), "2", "1"])[0] == 0
    assert call(["dim-irrep", "3", str(cli.MAX_DEGREE), "1"])[0] == 0
    for argv, message in CAPPED_CALLS:
        start = time.perf_counter()
        code, text, err = call(argv)
        assert time.perf_counter() - start < 1.0
        assert (code, text) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1


# inputs whose integers pass the interpreter's int/str digit limit, in the
# expression text or in the result
DIGIT_LIMIT = sys.get_int_max_str_digits()
_LONG_LITERAL = "7" * (DIGIT_LIMIT + 1)
_HALF_LITERAL = "7" * (DIGIT_LIMIT // 2 + 200)
OVERSIZED_INTEGER_CALLS = [
    (["wedge", "--dim", "1", _LONG_LITERAL, "1"], "parse"),
    (["trace", "--dim", "2", "x" + _LONG_LITERAL], "parse"),
    (["wedge", "--dim", "2", "x1", f"1/{_LONG_LITERAL}*d1"], "parse"),
    (["wedge", "--dim", "2", "x1", f"x1^{_LONG_LITERAL}"], "parse"),
    (["wedge", "--dim", "1", _HALF_LITERAL, _HALF_LITERAL], "render"),
    (["bracket", "--json", "--dim", "2", f"{_HALF_LITERAL}*x1*d2", f"{_HALF_LITERAL}*d1"],
     "render"),
    (["rmatrix", "--dim", "2", "--terms", f"1,1,2,2:1e{DIGIT_LIMIT}"], "render"),
    (["classify-cubic3", "--matrix", f"1e{DIGIT_LIMIT},0,0;0,-1e{DIGIT_LIMIT},0;0,0,0"],
     "render"),
    (["dim-irrep", str(cli.MAX_DIM), str(cli.MAX_DEGREE), str(cli.MAX_DIM // 2)], "render"),
]


def test_run_oversized_integers_end_in_one_error_line():
    for argv, where in OVERSIZED_INTEGER_CALLS:
        code, text, err = call(argv)
        assert (code, text) == (2, ""), argv[:2]
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"limit of {DIGIT_LIMIT} digits" in err
        if where == "parse":
            assert "(at position " in err


def test_format_expr_names_the_digit_limit():
    field = PolyVectorField.single(2, Fraction(10 ** DIGIT_LIMIT, 3), (1, 0), (2,))
    with pytest.raises(PolyvecError, match=f"limit of {DIGIT_LIMIT} digits"):
        format_expr(field)


def test_parser_takes_only_decimal_digits():
    for text in ("x\u00b2*d1", "\u00b2", "d1/\\d\u00b9"):
        with pytest.raises(ParseError):
            parse_expr(text, 3)
    assert parse_field("\u0663*x1", 3) == parse_field("3*x1", 3)


def test_no_digit_limit_means_no_digit_cap():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_field("7" * (limit + 1) + "*x1", 1).terms
        assert parse_matrix(f"1e{limit + 1}").det() == 10 ** (limit + 1)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv, expected", [
    (["wedge", "--dim", "3", "x1*d1", "d2"], "x1*d1/\\d2"),
    (["bracket", "--dim", "3", "x1*d2", "x2*d1"], "x1*d1 - x2*d2"),
    (["trace", "--dim", "3", "--alias", "xyz", "x1*d1 + x2*d2"], "2"),
])
def test_run_field_operations_render_once(monkeypatch, argv, expected):
    original = cli.format_expr
    calls = []

    def counting(obj, alias="numeric"):
        calls.append(alias)
        return original(obj, alias)

    monkeypatch.setattr(cli, "format_expr", counting)
    assert call(argv) == (0, expected, "")
    assert call(argv + ["--json"]) == (0, json.dumps({"result": expected}, indent=2), "")
    assert len(calls) == 2


def test_run_rank_works_on_the_support_only():
    """Dimension 2000 with four partial indices in use: at most rank 4, and
    the support block at x3 = 1 already has rank 4."""
    at_x3_equal_one = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert linalg.rank(at_x3_equal_one) == 4
    assert call(["rank", "--dim", "2000", "d1/\\d2 + x3*d3/\\d4"])[:2] == (0, "4")


def test_run_reuses_one_parser_with_unchanged_results(capsys):
    argvs = [
        ["rank", "--dim", "4", "--json", "d1/\\d2 + d3/\\d4"],
        ["trace", "--dim", "3", "x1*d1 + x2*d2"],
        ["rank", "--bogus", "d1/\\d2"],
        ["--help"],
        ["rank", "--help"],
        ["dim-irrep", "3", "2", "1"],
        [],
    ]

    def outcome(argv):
        code, text, err = call(argv)
        streams = capsys.readouterr()
        return code, text, err, streams.out, streams.err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [o[0] for o in fresh] == [0, 0, 2, 0, 0, 0, 2]
    assert "unrecognized arguments: --bogus" in fresh[2][2]
    assert fresh[3][1].startswith("usage: polyvec")
    assert all(o[3:] == ("", "") for o in fresh)
    assert cli._parser() is cli._parser()
    shared = [outcome(argv) for argv in argvs + argvs]
    assert shared == fresh + fresh


def test_run_sends_argparse_output_to_the_given_streams(capsys):
    code, text, err = call(["rank", "--bogus", "d1"])
    assert (code, text) == (2, "")
    assert err.startswith("usage:") and "unrecognized arguments: --bogus" in err
    code, text, err = call(["--help"])
    assert (code, err) == (0, "")
    assert text.startswith("usage: polyvec") and "classify-quad4" in text
    assert capsys.readouterr() == ("", "")


def test_run_selftest():
    assert call(["selftest"]) == (0, "selftest: all invariants hold", "")


def test_matrix_parsing():
    m = parse_matrix("1,0,0;0,2,0;0,0,-3")
    assert m == CASE_A12
    assert parse_matrix("0,1,0;0,0,0;0,0,0") == CASE_B2
    assert parse_matrix("1/2,0;0,-1/2").trace() == 0
    with pytest.raises(ParseError):
        parse_matrix("1,oops;0,1")


def test_rmatrix_parsing_and_command():
    r = parse_rmatrix_terms("1,1,2,2:1", 2)
    assert r.coefficients == {((1, 1), (2, 2)): 1}
    code, text, _ = call(["rmatrix", "--dim", "2", "--terms", "1,1,2,2:1"])
    assert (code, text) == (0, "x1*x2*d1/\\d2")
    code, text, _ = call(["rmatrix", "--dim", "2", "--terms", "1,2,1,2:1", "--json"])
    assert code == 0
    assert json.loads(text) == {"bivector": "0", "poisson": True}


def test_operations_look_up_their_kernel_at_call_time(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return schouten(*args)

    monkeypatch.setattr(cli, "schouten", counting)
    assert call(["bracket", "--dim", "2", "x1*d1", "x2*d2"])[:2] == (0, "0")
    assert len(calls) == 1


def test_rmatrix_command_refuses_an_out_of_range_unit_with_zero_coefficient():
    code, text, err = call(["rmatrix", "--dim", "2", "--terms", "1,1,5,5:0"])
    assert (code, text) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_cubic3_command_and_json_roundtrip():
    code, text, _ = call(["classify-cubic3", "--matrix", "1,0,0;0,2,0;0,0,-3", "--json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["format_version"] == 1
    assert doc["kernel_dimension"] == 1
    assert doc["tracefree_dimension"] == 1
    assert doc["generators"][0]["poisson"] is True
    assert doc["generators"][0]["simple"] is True
    assert doc["generators"][0]["rank"] == 2
    assert reverify_catalog_document(doc)


def test_classify_quad4_command():
    code, text, _ = call(["classify-quad4", "--json",
                          "--matrix", "1,0,0,0;0,2,0,0;0,0,4,0;0,0,0,-7"])
    assert code == 0
    doc = json.loads(text)
    assert doc["kernel_dimension"] == 4
    assert doc["constraints"] == []
    assert len(doc["generators"]) == 4
    assert reverify_catalog_document(doc)


def test_catalog_document_reverify_detects_tampering():
    doc = catalog_document(cubic3_catalog(CASE_A12))
    doc["generators"][0]["rank"] = 4
    assert not reverify_catalog_document(doc)


def test_catalog_document_reverify_checks_simple_flag_from_one_bracket(monkeypatch):
    from polyvec import structures
    doc = catalog_document(cubic3_catalog(CASE_B2))
    generators = [pv(entry["expression"], 3) for entry in doc["generators"]]
    original = structures.schouten
    self_brackets = []

    def counting(u, v):
        if u is v:
            self_brackets.append(u)
        return original(u, v)

    monkeypatch.setattr(structures, "schouten", counting)
    assert reverify_catalog_document(doc)
    assert [sum(u == g for u in self_brackets) for g in generators] == [1] * len(generators)
    doc["generators"][0]["simple"] = False
    assert not reverify_catalog_document(doc)
    # a generator recorded and confirmed non-Poisson has no simple flag
    doc["generators"] = [{"expression": "x2*d2/\\d3 + d1/\\d2", "poisson": False,
                          "simple": False, "rank": 2}]
    with pytest.raises(PreconditionError, match="needs a Poisson structure"):
        reverify_catalog_document(doc)


def test_quad4_catalog_document_has_constraints_for_nilpotent_stratum():
    from util import QUAD4_NILPOTENT
    doc = catalog_document(quad4_catalog(QUAD4_NILPOTENT))
    assert doc["kernel_dimension"] == 8
    assert doc["constraints"], "nilpotent stratum carries genuine constraints"
    assert doc["constraint_parameters"] == [f"c{i}" for i in range(1, 9)]


GOLDENS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "goldens").glob("*.json"))


def test_catalog_goldens_present():
    assert len(GOLDENS) == 10


@pytest.mark.parametrize("golden", GOLDENS, ids=lambda path: path.stem)
def test_catalog_document_matches_golden_bytes(golden):
    """The recorded catalog documents stay byte-identical; read-only."""
    text = golden.read_text()
    doc = json.loads(text)
    command = {3: "classify-cubic3", 4: "classify-quad4"}[doc["dim"]]
    matrix = ";".join(",".join(row) for row in doc["matrix"])
    out, err = io.StringIO(), io.StringIO()
    assert run([command, "--json", "--matrix", matrix], out, err) == 0, err.getvalue()
    assert out.getvalue() == text
