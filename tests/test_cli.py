import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from polyvec import (
    ParseError,
    PolyVectorField,
    PreconditionError,
    format_expr,
    linalg,
    parse_expr,
    parse_field,
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
from util import CASE_A12, CASE_B2, pv, random_nonzero


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
    assert "unrecognized arguments: --bogus" in fresh[2][4]
    assert fresh[3][3].startswith("usage: polyvec")
    assert cli._parser() is cli._parser()
    shared = [outcome(argv) for argv in argvs + argvs]
    assert shared == fresh + fresh


def test_run_selftest():
    code, text, _ = call(["selftest"])
    assert code == 0
    assert "all invariants hold" in text


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
