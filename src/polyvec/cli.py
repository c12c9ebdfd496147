"""Expression parser, canonical printer and command-line front end.

Grammar for field expressions::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/\\') factor)*
    factor := INT ['/' INT]          rational literal
            | VAR ['^' INT]          variable power, VAR in x1..xn (+ aliases)
            | PARTIAL                d1..dn (+ aliases)

``/\\`` is the wedge between partial factors; ``*`` is the commutative
product.  Wedge order is canonicalized with its sign, so ``d2/\\d1`` parses
to minus ``d1/\\d2``.  Coordinate aliases follow the printed dictionaries:
(x, y, z) in dimension three and (t, x, y, z) in dimension four.
"""

import argparse
import functools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import __version__
from .errors import DimensionError, ParseError, PolyvecError, PreconditionError
from .fields import (
    LinearMatrix,
    PolyVectorField,
    _accumulate,
    _sort_with_sign,
    schouten,
    wedge,
)
from .duality import dim_irrep, exterior_derivative, from_form, to_form, trace_d
from .decomposition import bracket_parts, decompose
from .structures import (
    JacobiPair,
    RMatrix,
    _tracefree_is_poisson,
    generic_rank,
    is_jacobi,
    is_poisson,
    r_matrix_to_bivector,
)
from .classifier import cubic3_catalog, monomial_exponents, quad4_catalog

FORMAT_VERSION = 1

# Largest accepted --dim.  Parsing and most operators do work linear in the
# dimension for every term, so a huge --dim on a tiny expression must fail
# at the boundary instead of exhausting memory.  Every catalog (n <= 4) and
# benchmark input (n <= 8) sits far below it.
MAX_DIM = 10_000

_VAR_ALIASES = {3: ("x", "y", "z"), 4: ("t", "x", "y", "z")}


def _alias_names(dim):
    letters = _VAR_ALIASES.get(dim)
    if letters is None:
        return {}, {}
    variables = {name: i + 1 for i, name in enumerate(letters)}
    partials = {"d" + name: i + 1 for i, name in enumerate(letters)}
    return variables, partials


# -- tokenizer ---------------------------------------------------------------

_TOKEN_SYMBOLS = ("+", "-", "*", "^")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch == "/":
            if i + 1 < len(text) and text[i + 1] == "\\":
                tokens.append(("WEDGE", "/\\", i))
                i += 2
            else:
                tokens.append(("SLASH", "/", i))
                i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


@dataclass(frozen=True)
class ExpressionAST:
    """Canonicalized sum of terms (coefficient, exponents, ascending partials)."""

    dim: int
    terms: tuple

    def to_field(self):
        return PolyVectorField(self.dim, {(exp, idx): c for c, exp, idx in self.terms})


class _Parser:
    def __init__(self, text, dim):
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_aliases, self.partial_aliases = _alias_names(dim)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        terms = []
        sign = 1
        kind, value, at = self.peek()
        if kind in ("+", "-"):
            self.advance()
            sign = -1 if kind == "-" else 1
        terms.append(self.parse_term(sign))
        while True:
            kind, value, at = self.peek()
            if kind == "END":
                break
            if kind not in ("+", "-"):
                raise ParseError(f"expected '+' or '-', found {value!r}", at)
            self.advance()
            terms.append(self.parse_term(-1 if kind == "-" else 1))
        return _canonical_ast(self.dim, terms)

    def parse_term(self, sign):
        coeff = Fraction(sign)
        exponents = [0] * self.dim
        partials = []
        first = True
        while True:
            kind, value, at = self.peek()
            if not first:
                if kind in ("*", "WEDGE"):
                    self.advance()
                else:
                    break
            factor_kind, factor_value, factor_at = self.peek()
            if factor_kind == "INT":
                coeff *= self.parse_rational()
            elif factor_kind == "NAME":
                self.advance()
                e, p = self.parse_name(factor_value, factor_at)
                if e is not None:
                    var, power = e
                    exponents[var - 1] += power
                if p is not None:
                    partials.append(p)
            else:
                raise ParseError(f"expected a factor, found {factor_value!r}", factor_at)
            first = False
        return coeff, tuple(exponents), tuple(partials)

    def parse_rational(self):
        kind, value, at = self.advance()
        num = int(value)
        if self.peek()[0] == "SLASH":
            self.advance()
            dkind, dvalue, dat = self.peek()
            if dkind != "INT":
                raise ParseError("expected an integer denominator", dat)
            self.advance()
            den = int(dvalue)
            if den == 0:
                raise ParseError("zero denominator", dat)
            return Fraction(num, den)
        return Fraction(num)

    def parse_name(self, name, at):
        """Resolve a variable or partial token; returns ((var, power) or None,
        partial index or None)."""
        index = self._resolve(name, at)
        kind, is_partial = index
        if is_partial:
            return None, kind
        power = 1
        if self.peek()[0] == "^":
            self.advance()
            pkind, pvalue, pat = self.peek()
            if pkind != "INT":
                raise ParseError("expected an integer exponent after '^'", pat)
            self.advance()
            power = int(pvalue)
            if power < 0:
                raise ParseError("negative exponent", pat)
        return (kind, power), None

    def _resolve(self, name, at):
        if name in self.var_aliases:
            return self.var_aliases[name], False
        if name in self.partial_aliases:
            return self.partial_aliases[name], True
        if name[0] in ("x", "d") and name[1:].isdigit():
            index = int(name[1:])
            if not 1 <= index <= self.dim:
                raise ParseError(
                    f"index {index} out of range for dimension {self.dim}", at)
            return index, name[0] == "d"
        raise ParseError(f"unknown name {name!r}", at)


def _canonical_ast(dim, raw_terms):
    collected = {}
    for coeff, exponents, partials in raw_terms:
        sign, idx = _sort_with_sign(partials)
        if sign and coeff:
            _accumulate(collected, (exponents, idx), coeff if sign > 0 else -coeff)
    terms = tuple((c, exp, idx) for (exp, idx), c in sorted(collected.items()))
    return ExpressionAST(dim=dim, terms=terms)


def parse_expr(text, n):
    """Parse a field expression over x1..xn / d1..dn into a canonical AST."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, n).parse()


def parse_field(text, n):
    return parse_expr(text, n).to_field()


def format_expr(obj, alias="numeric"):
    """Deterministic canonical rendering; parse(format(x)) gives x back.

    Works for poly-vector fields (partials print as d-tokens) and for
    differential forms (covariant slots print with the same d-tokens, which
    is unambiguous inside catalog documents where the kind is recorded).

    Terms are ordered by index tuple, then exponents.  A coefficient renders
    from its numerator and denominator alone, with no Fraction arithmetic:
    its sign becomes the joining ``-``, and its magnitude prints as
    ``str(num)`` when the denominator is 1 and ``num/den`` otherwise, left
    out when it is 1 and the term has another factor.  Each monomial string
    is built once per exponent tuple and each wedge of partials once per
    index tuple.
    """
    dim = obj.dim
    if alias == "numeric":
        var_names = [f"x{i}" for i in range(1, dim + 1)]
        partial_names = [f"d{i}" for i in range(1, dim + 1)]
    elif alias in ("xyz", "txyz"):
        letters = _VAR_ALIASES.get(dim)
        if letters is None or len(letters) != (3 if alias == "xyz" else 4):
            raise PolyvecError(f"alias {alias!r} does not fit dimension {dim}")
        var_names = list(letters)
        partial_names = ["d" + name for name in letters]
    else:
        raise PolyvecError(f"unknown alias mode {alias!r}")

    if not obj.terms:
        return "0"
    pieces = []
    monomials = {}
    last_idx = partial = None
    for idx, exp, coeff in sorted([(idx, exp, c) for (exp, idx), c in obj.terms.items()]):
        monomial = monomials.get(exp)
        if monomial is None:
            monomial = monomials[exp] = "*".join([
                var_names[m] if e == 1 else f"{var_names[m]}^{e}"
                for m, e in enumerate(exp) if e])
        if idx != last_idx:
            last_idx = idx
            partial = "/\\".join([partial_names[j - 1] for j in idx])
        body = (f"{monomial}*{partial}" if monomial else partial) if partial else monomial
        num, den = coeff.numerator, coeff.denominator
        if num < 0:
            pieces.append(" - ")
            num = -num
        else:
            pieces.append(" + ")
        if den != 1:
            body = f"{num}/{den}*{body}" if body else f"{num}/{den}"
        elif num != 1 or not body:
            body = f"{num}*{body}" if body else str(num)
        pieces.append(body)
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def parse_matrix(text):
    """Matrix literal ``"r11,r12,..;r21,.."`` with rational entries."""
    rows = []
    for chunk in text.split(";"):
        row = []
        for entry in chunk.split(","):
            entry = entry.strip()
            try:
                row.append(Fraction(entry))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad matrix entry {entry!r}") from exc
        rows.append(row)
    return LinearMatrix(rows)


def parse_rmatrix_terms(text, n):
    """R-matrix literal ``"i,j,k,l:coeff;..."`` for E_ij /\\ E_kl terms."""
    coefficients = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            indices, _, coeff = chunk.partition(":")
            i, j, k, l = (int(s) for s in indices.split(","))
            value = Fraction(coeff.strip() or "1")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad r-matrix term {chunk!r}") from exc
        key = ((i, j), (k, l))
        coefficients[key] = coefficients.get(key, 0) + value
    return RMatrix(n, coefficients)


# -- documents ---------------------------------------------------------------


def _constraint_strings(constraints):
    out = []
    for constraint in constraints.constraints:
        if not constraint:
            continue
        bits = []
        for (i, j), c in sorted(constraint.items()):
            name = f"c{i + 1}*c{j + 1}"
            bits.append(f"{c}*{name}")
        out.append(" + ".join(bits))
    return out


def catalog_document(case, alias="numeric"):
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": "polyvec",
        "tool_version": __version__,
        "dim": case.matrix.dim,
        "matrix": [[str(x) for x in row] for row in case.matrix.entries],
        "kernel_dimension": case.kernel.dimension,
        "kernel_basis": [format_expr(b, alias) for b in case.kernel.basis],
        "tracefree_dimension": len(case.tracefree_basis),
        "tracefree_basis": [format_expr(b, alias) for b in case.tracefree_basis],
        "generators": [
            {
                "expression": format_expr(g, alias),
                "poisson": poisson,
                "simple": simple,
                "rank": rank,
            }
            for g, (poisson, simple, rank) in zip(case.generators, case.generator_flags)
        ],
    }
    if case.constraints is not None:
        doc["constraint_parameters"] = list(case.constraints.parameters)
        doc["constraints"] = _constraint_strings(case.constraints)
    return doc


def reverify_catalog_document(doc):
    """Recompute every generator flag recorded in a catalog document; each
    generator is bracketed with itself once."""
    dim = doc["dim"]
    for entry in doc["generators"]:
        g = parse_field(entry["expression"], dim)
        poisson = is_poisson(g)
        if poisson != entry["poisson"]:
            return False
        if not poisson:
            raise PreconditionError("the simple flag needs a Poisson structure")
        if _tracefree_is_poisson(g) != entry["simple"]:
            return False
        if generic_rank(g) != entry["rank"]:
            return False
    return True


# -- selftest ----------------------------------------------------------------


def _random_field(rng, n, k, ell, nterms=2):
    exps = monomial_exponents(n, k)
    idxs = list(combinations(range(1, n + 1), ell))
    terms = {}
    for _ in range(nterms):
        key = (rng.choice(exps), rng.choice(idxs))
        terms[key] = terms.get(key, 0) + Fraction(rng.choice([1, 2, -1, -2]), rng.choice([1, 2]))
    return PolyVectorField(n, terms)


def _sgn(e):
    return 1 if e % 2 == 0 else -1


def run_selftest(out):
    """Condensed randomized invariant suite; raises AssertionError on defect."""
    rng = random.Random(20240214)
    checked = 0
    while checked < 60:
        n = rng.choice([2, 3, 4])
        fields = [_random_field(rng, n, rng.randint(0, 3), rng.randint(0, n)) for _ in range(3)]
        if any(f.is_zero() for f in fields):
            continue
        checked += 1
        u_f, v_f, w_f = fields
        u, v, w = (next(iter(f.vector_degrees())) - 1 for f in fields)
        jac = (schouten(u_f, schouten(v_f, w_f)).scale(_sgn(u * w))
               + schouten(w_f, schouten(u_f, v_f)).scale(_sgn(v * w))
               + schouten(v_f, schouten(w_f, u_f)).scale(_sgn(u * v)))
        assert jac.is_zero(), "graded Jacobi identity failed"
        leib = schouten(u_f, wedge(v_f, w_f)) - wedge(schouten(u_f, v_f), w_f) \
            - wedge(v_f, schouten(u_f, w_f)).scale(_sgn(u * (v + 1)))
        assert leib.is_zero(), "graded Leibniz rule failed"
        lv = v + 1
        compat = trace_d(wedge(u_f, v_f)) - wedge(trace_d(u_f), v_f).scale(_sgn(lv)) \
            - wedge(u_f, trace_d(v_f)) - schouten(u_f, v_f).scale(_sgn(lv))
        assert compat.is_zero(), "trace compatibility identity failed"
        assert trace_d(u_f) == from_form(exterior_derivative(to_form(u_f))), \
            "contraction route disagrees with the duality route"
        assert trace_d(trace_d(u_f)).is_zero(), "trace differential does not square to zero"
    checked = 0
    while checked < 25:
        n = rng.choice([2, 3, 4])
        k1, l1 = rng.randint(0, 3), rng.randint(0, n)
        k2, l2 = rng.randint(0, 3), rng.randint(0, n)
        if n + k1 - l1 == 0 or n + k2 - l2 == 0:
            continue
        a = _random_field(rng, n, k1, l1)
        b = _random_field(rng, n, k2, l2)
        if a.is_zero() or b.is_zero():
            continue
        checked += 1
        tf, tr = bracket_parts(a, b)
        parts = decompose(schouten(a, b))
        assert tf == parts.tracefree and tr == parts.trace, \
            "bracket decomposition formulas disagree with the direct route"
    assert dim_irrep(3, 2, 1) == 15 and dim_irrep(3, 2, 2) == 10
    print("selftest: all invariants hold", file=out)
    return 0


# -- command line ------------------------------------------------------------


def _common_flags(sub):
    sub.add_argument("--dim", type=int, default=3, help="ambient dimension n")
    sub.add_argument("--json", action="store_true", help="emit a JSON document")
    sub.add_argument("--alias", choices=("numeric", "xyz", "txyz"), default="numeric",
                     help="coordinate naming used for output")


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every ``run``:
    ``parse_args`` keeps no state between calls and returns a fresh
    ``Namespace`` each time."""
    parser = argparse.ArgumentParser(
        prog="polyvec",
        description="Exact computations with polynomial poly-vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, nargs, doc in [
        ("wedge", 2, "wedge product of two fields"),
        ("bracket", 2, "Schouten bracket of two fields"),
        ("trace", 1, "trace differential of a field"),
        ("decompose", 1, "trace-free/trace decomposition of a homogeneous field"),
        ("check-poisson", 1, "is the even field a (generalized) Poisson structure?"),
        ("check-jacobi", 2, "do the two fields form a Jacobi pair?"),
        ("rank", 1, "generic rank of a bi-vector field"),
        ("associate", 1, "the two canonical Jacobi pairs of a Poisson structure"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("expr", nargs=nargs)
        _common_flags(p)

    p = sub.add_parser("dim-irrep", help="dimension of the trace-free block of P^(k,l)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    _common_flags(p)

    p = sub.add_parser("classify-cubic3", help="cubic catalog case in dimension 3")
    p.add_argument("--matrix", required=True, help='matrix literal "r11,r12,..;r21,.."')
    _common_flags(p)

    p = sub.add_parser("classify-quad4", help="quadratic catalog case in dimension 4")
    p.add_argument("--matrix", required=True, help='matrix literal "r11,r12,..;r21,.."')
    _common_flags(p)

    p = sub.add_parser("rmatrix", help="quadratic bi-vector image of an r-matrix")
    p.add_argument("--terms", required=True, help='terms "i,j,k,l:coeff;..."')
    _common_flags(p)

    p = sub.add_parser("selftest", help="run the condensed invariant suite")
    _common_flags(p)
    return parser


def _emit(args, text_value, json_value, out):
    if args.json:
        print(json.dumps(json_value, indent=2, sort_keys=True), file=out)
    else:
        print(text_value, file=out)


def run(argv, out=None, err=None):
    """Execute one CLI invocation; returns the exit status (0 ok / true,
    1 false predicate, 2 error)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        return _dispatch(args, out)
    except PolyvecError as exc:
        print(f"error: {exc}", file=err)
        return 2


def _dispatch(args, out):
    cmd = args.command
    if args.dim > MAX_DIM:
        raise DimensionError(f"ambient dimension must be <= {MAX_DIM}, got {args.dim}")
    if cmd == "selftest":
        return run_selftest(out)

    if cmd == "dim-irrep":
        value = dim_irrep(args.n, args.k, args.l)
        _emit(args, str(value), {"dim_irrep": value, "n": args.n, "k": args.k, "l": args.l}, out)
        return 0

    if cmd == "classify-cubic3":
        case = cubic3_catalog(parse_matrix(args.matrix))
        doc = catalog_document(case, args.alias)
        _emit(args, _render_catalog(doc), doc, out)
        return 0

    if cmd == "classify-quad4":
        case = quad4_catalog(parse_matrix(args.matrix))
        doc = catalog_document(case, args.alias)
        _emit(args, _render_catalog(doc), doc, out)
        return 0

    if cmd == "rmatrix":
        image = r_matrix_to_bivector(parse_rmatrix_terms(args.terms, args.dim))
        rendered = format_expr(image, args.alias)
        _emit(args, rendered,
              {"bivector": rendered, "poisson": bool(is_poisson(image))}, out)
        return 0

    if args.dim < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got {args.dim}")
    exprs = [parse_field(e, args.dim) for e in args.expr]

    if cmd == "wedge":
        result = wedge(*exprs)
        _emit(args, format_expr(result, args.alias), {"result": format_expr(result, args.alias)}, out)
        return 0

    if cmd == "bracket":
        result = schouten(*exprs)
        _emit(args, format_expr(result, args.alias), {"result": format_expr(result, args.alias)}, out)
        return 0

    if cmd == "trace":
        result = trace_d(exprs[0])
        _emit(args, format_expr(result, args.alias), {"result": format_expr(result, args.alias)}, out)
        return 0

    if cmd == "decompose":
        parts = decompose(exprs[0])
        rendered = {
            "tracefree": format_expr(parts.tracefree, args.alias),
            "trace_part": format_expr(parts.trace_part, args.alias),
            "trace": format_expr(parts.trace, args.alias),
            "bidegree": [parts.bidegree.k, parts.bidegree.ell],
        }
        text = "\n".join(f"{key}: {rendered[key]}" for key in ("tracefree", "trace_part", "trace"))
        _emit(args, text, rendered, out)
        return 0

    if cmd == "check-poisson":
        verdict = is_poisson(exprs[0])
        _emit(args, "true" if verdict else "false", {"poisson": verdict}, out)
        return 0 if verdict else 1

    if cmd == "check-jacobi":
        verdict = is_jacobi(JacobiPair(exprs[0], exprs[1]))
        _emit(args, "true" if verdict else "false", {"jacobi": verdict}, out)
        return 0 if verdict else 1

    if cmd == "rank":
        value = generic_rank(exprs[0])
        _emit(args, str(value), {"rank": value}, out)
        return 0

    if cmd == "associate":
        p = exprs[0]
        if not is_poisson(p):
            raise PolyvecError("associate needs a Poisson structure")
        parts = decompose(p)
        k, two_ell = parts.bidegree
        pairs = [("identity", JacobiPair(p, PolyVectorField.zero(p.dim)))]
        if k != two_ell and not parts.trace.is_zero():
            scale = Fraction(two_ell - k, p.dim + k - two_ell)
            pairs.append(("trace-free", JacobiPair(parts.tracefree, parts.trace.scale(scale))))
        payload = []
        lines = []
        for label, pair in pairs:
            flag = is_jacobi(pair)
            rendered = {
                "case": label,
                "lambda": format_expr(pair.lam, args.alias),
                "e": format_expr(pair.e_field, args.alias),
                "jacobi": flag,
            }
            payload.append(rendered)
            lines.append(f"{label}: lambda = {rendered['lambda']}; e = {rendered['e']}; "
                         f"jacobi = {'true' if flag else 'false'}")
        _emit(args, "\n".join(lines), {"pairs": payload}, out)
        return 0

    raise PolyvecError(f"unhandled command {cmd!r}")


def _render_catalog(doc):
    lines = [
        f"matrix: {doc['matrix']}",
        f"kernel dimension: {doc['kernel_dimension']}",
    ]
    for b in doc["kernel_basis"]:
        lines.append(f"  kernel: {b}")
    lines.append(f"trace-free dimension: {doc['tracefree_dimension']}")
    for b in doc["tracefree_basis"]:
        lines.append(f"  tracefree: {b}")
    if "constraints" in doc:
        if doc["constraints"]:
            lines.append("constraints:")
            for c in doc["constraints"]:
                lines.append(f"  {c} = 0")
        else:
            lines.append("constraints: none (identically satisfied)")
    for g in doc["generators"]:
        lines.append(
            f"generator: {g['expression']}  [poisson={g['poisson']}, "
            f"simple={g['simple']}, rank={g['rank']}]")
    return "\n".join(lines)


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
