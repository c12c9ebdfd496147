"""The shared identity suite reports a broken identity by name, through
``polyvec selftest`` too, with no ``assert`` that ``python -O`` could strip."""

import ast
import re
from pathlib import Path

import pytest

from polyvec import invariants
from test_cli import call

SOURCE = Path(__file__).resolve().parent.parent / "src" / "polyvec"


def test_library_has_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _double_from_form(monkeypatch):
    original = invariants.from_form
    monkeypatch.setattr(invariants, "from_form", lambda form: original(form).scale(2))


def _double_schouten_on_odd_term_counts(monkeypatch):
    original = invariants.schouten

    def broken(u, v):
        result = original(u, v)
        return result.scale(2) if len(u.terms) % 2 else result

    monkeypatch.setattr(invariants, "schouten", broken)


@pytest.mark.parametrize("breaks, names", [
    (_double_from_form, ["D = Psi^-1 d Psi"]),
    (_double_schouten_on_odd_term_counts, None),
], ids=["duality-route", "schouten"])
def test_selftest_names_a_broken_identity(monkeypatch, breaks, names):
    breaks(monkeypatch)
    code, text, err = call(["selftest"])
    assert (code, text) == (1, "")
    reported = re.findall(r"^selftest: (.+) failed$", err, re.MULTILINE)
    assert reported and len(reported) == err.count("\n")
    if names is not None:
        assert reported == names
