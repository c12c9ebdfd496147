"""Expression parser, canonical printer and command-line front end.

Grammar for field expressions::

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/\\') factor)*
    factor := INT ['/' INT]          rational literal
            | VAR ['^' INT]          variable power, VAR in x1..xn (+ aliases)
            | PARTIAL                d1..dn (+ aliases)

``/\\`` is the wedge between partial factors; ``*`` is the commutative
product.  The parser sums the terms as written and ``PolyVectorField``
canonicalizes them once: wedge order is sorted with its sign, so ``d2/\\d1``
parses to minus ``d1/\\d2``, and a repeated partial or a zero sum drops
out.  Coordinate aliases follow the printed dictionaries: (x, y, z) in
dimension three and (t, x, y, z) in dimension four.
"""

import contextlib
import functools
import math
import os
import re
import sys
from fractions import Fraction

from . import __version__, classifier, invariants
from .errors import DimensionError, DomainError, ParseError, PolyvecError, PreconditionError
from .fields import LinearMatrix, PolyVectorField, _unpack, _Value, schouten, wedge
from .duality import dim_irrep, trace_d
from .decomposition import decompose
from .structures import (
    JacobiPair,
    RMatrix,
    _tracefree_is_poisson,
    generic_rank,
    is_jacobi,
    is_poisson,
    r_matrix_to_bivector,
)

FORMAT_VERSION = 1

# Largest accepted --dim.  Parsing and most operators do work linear in the
# dimension for every term, so a huge --dim on a tiny expression must fail
# at the boundary instead of exhausting memory.  Every catalog (n <= 4) and
# benchmark input (n <= 8) sits far below it.
MAX_DIM = 10_000

# Largest accepted degree of a parsed term (the sum of its exponents) and of
# dim-irrep's k: operators raise evaluation points to these powers, so
# x1^100000000 must fail at the boundary.  Catalog and benchmark inputs have
# degree <= 3.
MAX_DEGREE = 1_000

_VAR_ALIASES = {3: ("x", "y", "z"), 4: ("t", "x", "y", "z")}

# Largest accepted number of terms read times the dimension, for field
# expressions and for rmatrix --terms.  Each term gets an exponent tuple of
# length n, so this bounds the parsers' work and memory.  Catalog and
# benchmark inputs stay below 400.
MAX_TERM_CELLS = 1_000_000

# One match per token: an integer, a name, the wedge or any other non-space
# character, with the classes of the str methods the grammar is written in
# (\d is isdecimal, [^\W_] is isalnum).  A name match may start with a
# non-decimal numeral such as '²'; only a letter starts a name, which
# _parse_error checks.
_TOKEN = re.compile(r"\d+|[^\W\d_][^\W_]*|/\\|\S")
_SYMBOLS = frozenset(("+", "-", "*", "^", "/", "/\\"))


def _parse_error(text, k, message):
    """The ParseError for ``message`` at token ``k`` of ``text``, or at its
    end when ``k`` is the token count.  The grammar is defined on a complete
    scan, so the first scan error anywhere in ``text`` is reported instead:
    a character no token takes, or an integer or name past the
    interpreter's int/str digit limit (0 means none)."""
    max_digits = sys.get_int_max_str_digits()
    positions = []
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        if not (token.isdecimal() or token[0].isalpha() or token in _SYMBOLS):
            return ParseError(f"unexpected character {token[0]!r}", at)
        if max_digits and len(token) > max_digits:
            kind = "integer" if token.isdecimal() else "name"
            return ParseError(f"{kind} exceeds the limit of {max_digits} digits", at)
        positions.append(at)
    return ParseError(message, positions[k] if k < len(positions) else len(text))


class ExpressionAST(_Value):
    """A parsed field as its sorted terms (coefficient, exponents,
    ascending partials)."""

    __slots__ = _fields = ("dim", "terms")

    def to_field(self):
        return PolyVectorField(self.dim, {(exp, idx): c for c, exp, idx in self.terms})


def parse_expr(text, n):
    """Parse a field expression over x1..xn / d1..dn into its sorted terms."""
    terms = sorted(parse_field(text, n).terms.items())
    return ExpressionAST(n, tuple((c, exp, idx) for (exp, idx), c in terms))


def parse_field(text, n):
    """Parse a field expression over x1..xn / d1..dn (grammar above).

    One loop over the tokens sums each term's coefficient under its key as
    written, partials in the order read; ``PolyVectorField`` is the only
    canonicalizer: it orders the partials with their sign and drops a
    repeated partial and a zero sum.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    tokens = _TOKEN.findall(text)
    max_digits = sys.get_int_max_str_digits()
    if max_digits and max(map(len, tokens)) > max_digits:
        # an integer or name that int() would refuse is a scan error
        raise _parse_error(text, 0, "token exceeds the digit limit")
    tokens.append("")  # the end
    letters = _VAR_ALIASES.get(n, ())
    names = {name: (m, False) for m, name in enumerate(letters, 1)}
    names.update({"d" + name: (m, True) for m, name in enumerate(letters, 1)})
    raw = {}
    cells = 0
    i = 1 if tokens[0] in ("+", "-") else 0
    sign = -1 if tokens[0] == "-" else 1
    while True:
        cells += n
        if cells > MAX_TERM_CELLS:
            raise _parse_error(
                text, i, f"terms times dimension exceed the limit of {MAX_TERM_CELLS}")
        coeff, exponents, partials, degree = sign, [0] * n, [], 0
        while True:
            token = tokens[i]
            if token.isdecimal():
                i += 1
                if tokens[i] == "/":
                    if not tokens[i + 1].isdecimal():
                        raise _parse_error(text, i + 1, "expected an integer denominator")
                    den = int(tokens[i + 1])
                    if not den:
                        raise _parse_error(text, i + 1, "zero denominator")
                    coeff *= Fraction(int(token), den)
                    i += 2
                else:
                    coeff *= int(token)
            else:
                ref = names.get(token)
                if ref is None:
                    if not token[:1].isalnum():
                        raise _parse_error(text, i, f"expected a factor, found {token!r}")
                    if token[0] not in "xd" or not token[1:].isdecimal():
                        raise _parse_error(text, i, f"unknown name {token!r}")
                    m = int(token[1:])
                    if not 1 <= m <= n:
                        raise _parse_error(
                            text, i, f"index {m} out of range for dimension {n}")
                    ref = names[token] = (m, token[0] == "d")
                m, is_partial = ref
                at, i = i, i + 1
                if is_partial:
                    partials.append(m)
                else:
                    power = 1
                    if tokens[i] == "^":
                        if not tokens[i + 1].isdecimal():
                            raise _parse_error(
                                text, i + 1, "expected an integer exponent after '^'")
                        power = int(tokens[i + 1])
                        i += 2
                    exponents[m - 1] += power
                    degree += power
                    if degree > MAX_DEGREE:
                        raise _parse_error(
                            text, at, f"term degree exceeds the limit of {MAX_DEGREE}")
            if tokens[i] != "*" and tokens[i] != "/\\":
                break
            i += 1
        key = (tuple(exponents), tuple(partials))
        raw[key] = raw.get(key, 0) + coeff
        if not tokens[i]:
            break
        if tokens[i] not in ("+", "-"):
            raise _parse_error(text, i, f"expected '+' or '-', found {tokens[i]!r}")
        sign = -1 if tokens[i] == "-" else 1
        i += 1
    return PolyVectorField(n, raw)


def _digit_limit_error():
    return PolyvecError(
        "the result has an integer past the interpreter's limit of "
        f"{sys.get_int_max_str_digits()} digits for int/str conversion")


def format_expr(obj, alias="numeric"):
    """Deterministic canonical rendering; parse(format(x)) gives x back.

    Works for poly-vector fields (partials print as d-tokens) and for
    differential forms (covariant slots print with the same d-tokens, which
    is unambiguous inside catalog documents where the kind is recorded).

    Terms are ordered by index tuple, then exponents.  A coefficient renders
    from the stored integer numerator ``num`` and denominator ``den`` alone,
    with no Fraction: it is ``num // g`` over ``den // g`` with
    ``g = gcd(num, den)``, its sign becomes the joining ``-``, and its
    magnitude prints as ``str(num)`` when the reduced denominator is 1 and
    ``num/den`` otherwise, left out when it is 1 and the term has another
    factor.  Each monomial string
    is built once per packed key, which is unpacked there, and each wedge of
    partials once per index tuple.  A result with an integer past the
    interpreter's int/str digit limit raises ``PolyvecError``.
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

    if not obj.nums:
        return "0"
    denominator = obj.den
    pieces = []
    monomials = {}
    try:
        for idx, group in sorted(obj.nums.items()):
            partial = "/\\".join([partial_names[j - 1] for j in idx])
            for packed, num in sorted(group.items()):
                monomial = monomials.get(packed)
                if monomial is None:
                    monomial = monomials[packed] = "*".join([
                        var_names[m] if e == 1 else f"{var_names[m]}^{e}"
                        for m, e in enumerate(_unpack(dim, packed)) if e])
                body = (f"{monomial}*{partial}" if monomial else partial) if partial else monomial
                if num < 0:
                    pieces.append(" - ")
                    num = -num
                else:
                    pieces.append(" + ")
                den = denominator
                if den != 1:
                    g = math.gcd(num, den)
                    num, den = num // g, den // g
                if den != 1:
                    body = f"{num}/{den}*{body}" if body else f"{num}/{den}"
                elif num != 1 or not body:
                    body = f"{num}*{body}" if body else str(num)
                pieces.append(body)
    except ValueError:
        raise _digit_limit_error() from None
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _rational_literal(text):
    """``Fraction(text)`` for a matrix or r-matrix entry.  Fraction expands a
    decimal exponent into 10**exp, work that grows without bound with the
    exponent, so an exponent past the interpreter's int/str digit limit is
    refused first; its power of ten could not be printed anyway."""
    max_digits = sys.get_int_max_str_digits()
    _, marker, exponent = text.lower().partition("e")
    if (max_digits and marker and exponent.strip().lstrip("+-").replace("_", "").isdecimal()
            and abs(int(exponent)) > max_digits):
        raise ParseError(f"decimal exponent exceeds the limit of {max_digits} digits")
    return Fraction(text)


def parse_matrix(text):
    """Matrix literal ``"r11,r12,..;r21,.."`` with rational entries."""
    rows = []
    for chunk in text.split(";"):
        row = []
        for entry in chunk.split(","):
            entry = entry.strip()
            try:
                row.append(_rational_literal(entry))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad matrix entry {entry!r}") from exc
        rows.append(row)
    return LinearMatrix(rows)


def parse_rmatrix_terms(text, n):
    """R-matrix literal ``"i,j,k,l:coeff;..."`` for E_ij /\\ E_kl terms.

    Terms read times ``n`` is capped by ``MAX_TERM_CELLS``, as in
    ``parse_field``: each term becomes an exponent tuple of length n."""
    coefficients = {}
    cells = 0
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cells += n
        if cells > MAX_TERM_CELLS:
            raise ParseError(
                f"r-matrix terms times dimension exceed the limit of {MAX_TERM_CELLS}")
        try:
            indices, _, coeff = chunk.partition(":")
            i, j, k, l = (int(s) for s in indices.split(","))
            value = _rational_literal(coeff.strip() or "1")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad r-matrix term {chunk!r}") from exc
        key = ((i, j), (k, l))
        coefficients[key] = coefficients.get(key, 0) + value
    return RMatrix(n, coefficients)


# -- documents ---------------------------------------------------------------


def _constraint_strings(constraints):
    return [" + ".join(f"{c}*c{i + 1}*c{j + 1}" for (i, j), c in sorted(constraint.items()))
            for constraint in constraints.constraints if constraint]


def catalog_document(case, alias="numeric"):
    try:
        return _catalog_document(case, alias)
    except ValueError:
        raise _digit_limit_error() from None


def _catalog_document(case, alias):
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


def run_selftest(out, err):
    """Run the condensed invariant suite of ``polyvec.invariants``; exit
    status 0 when every identity holds, 1 naming each one that fails."""
    failed = invariants.selftest()
    for name in failed:
        print(f"selftest: {name} failed", file=err)
    if not failed:
        print("selftest: all invariants hold", file=out)
    return 1 if failed else 0


# -- command line ------------------------------------------------------------


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every ``run``:
    ``parse_args`` keeps no state between calls and returns a fresh
    ``Namespace`` each time.

    Each subcommand is declared once, here: its help string, its own
    arguments and the handler ``run`` calls, which returns ``(text, JSON
    value, exit status)``.  A handler looks up its operation (``wedge``,
    ``classifier.cubic3_catalog``, ...) when it runs, so that a wrapper bound
    there (a profiler, a test's monkeypatch) is the one that runs.  Every
    subcommand then takes ``--dim``, ``--json`` and ``--alias``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polyvec",
        description="Exact computations with polynomial poly-vector fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wedge", help="wedge product of two fields")
    p.add_argument("expr", nargs=2)
    p.set_defaults(handler=lambda args: _result(args, wedge(*_fields(args))))
    p = sub.add_parser("bracket", help="Schouten bracket of two fields")
    p.add_argument("expr", nargs=2)
    p.set_defaults(handler=lambda args: _result(args, schouten(*_fields(args))))
    p = sub.add_parser("trace", help="trace differential of a field")
    p.add_argument("expr", nargs=1)
    p.set_defaults(handler=lambda args: _result(args, trace_d(*_fields(args))))
    p = sub.add_parser("decompose", help="trace-free/trace decomposition of a homogeneous field")
    p.add_argument("expr", nargs=1)
    p.set_defaults(handler=_decompose)
    p = sub.add_parser("check-poisson",
                       help="is the even field a (generalized) Poisson structure?")
    p.add_argument("expr", nargs=1)
    p.set_defaults(handler=lambda args: _verdict("poisson", is_poisson(*_fields(args))))
    p = sub.add_parser("check-jacobi", help="do the two fields form a Jacobi pair?")
    p.add_argument("expr", nargs=2)
    p.set_defaults(
        handler=lambda args: _verdict("jacobi", is_jacobi(JacobiPair(*_fields(args)))))
    p = sub.add_parser("rank", help="generic rank of a bi-vector field")
    p.add_argument("expr", nargs=1)
    p.set_defaults(handler=_rank)
    p = sub.add_parser("associate", help="the two canonical Jacobi pairs of a Poisson structure")
    p.add_argument("expr", nargs=1)
    p.set_defaults(handler=_associate)
    p = sub.add_parser("dim-irrep", help="dimension of the trace-free block of P^(k,l)")
    for name in ("n", "k", "l"):
        p.add_argument(name, type=int)
    p.set_defaults(handler=_dim_irrep)
    matrix = 'matrix literal "r11,r12,..;r21,.."'
    p = sub.add_parser("classify-cubic3", help="cubic catalog case in dimension 3")
    p.add_argument("--matrix", required=True, help=matrix)
    p.set_defaults(handler=lambda args: _catalog(args, classifier.cubic3_catalog))
    p = sub.add_parser("classify-quad4", help="quadratic catalog case in dimension 4")
    p.add_argument("--matrix", required=True, help=matrix)
    p.set_defaults(handler=lambda args: _catalog(args, classifier.quad4_catalog))
    p = sub.add_parser("rmatrix", help="quadratic bi-vector image of an r-matrix")
    p.add_argument("--terms", required=True, help='terms "i,j,k,l:coeff;..."')
    p.set_defaults(handler=_rmatrix)
    p = sub.add_parser("selftest", help="run the condensed invariant suite")
    p.set_defaults(handler=None)

    for p in sub.choices.values():
        p.add_argument("--dim", type=int, default=3, help="ambient dimension n")
        p.add_argument("--json", action="store_true", help="emit a JSON document")
        p.add_argument("--alias", choices=("numeric", "xyz", "txyz"), default="numeric",
                       help="coordinate naming used for output")
    return parser


def run(argv, out=None, err=None):
    """Execute one CLI invocation; returns the exit status (0 ok / true,
    1 false predicate, 2 error).  This is the one place where a result is
    printed, as text or with ``--json`` as a JSON document, and where its
    exit status is picked."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage, errors and --help on sys.stdout / sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if args.dim > MAX_DIM:
            raise DimensionError(f"ambient dimension must be <= {MAX_DIM}, got {args.dim}")
        if args.handler is None:  # selftest prints its own report
            return run_selftest(out, err)
        text, value, status = args.handler(args)
    except PolyvecError as exc:
        print(f"error: {exc}", file=err)
        return 2
    if args.json:
        import json
        text = json.dumps(value, indent=2, sort_keys=True)
    print(text, file=out)
    return status


# -- handlers: each returns (text, JSON value, exit status) ------------------


def _fields(args):
    """The field arguments of a subcommand, parsed over ``--dim`` >= 1."""
    if args.dim < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got {args.dim}")
    return [parse_field(e, args.dim) for e in args.expr]


def _result(args, value):
    """wedge, bracket and trace: the resulting field, rendered once."""
    text = format_expr(value, args.alias)
    return text, {"result": text}, 0


def _verdict(key, verdict):
    """check-poisson and check-jacobi: ``true``, or ``false`` with exit 1."""
    return "true" if verdict else "false", {key: verdict}, 0 if verdict else 1


def _catalog(args, catalog):
    """classify-cubic3 and classify-quad4: the catalog document of the matrix."""
    doc = catalog_document(catalog(parse_matrix(args.matrix)), args.alias)
    return _render_catalog(doc), doc, 0


def _dim_irrep(args):
    if args.n > MAX_DIM or args.k > MAX_DEGREE:
        raise DomainError(f"dim-irrep needs n <= {MAX_DIM} and k <= {MAX_DEGREE}, "
                          f"got n={args.n}, k={args.k}")
    value = dim_irrep(args.n, args.k, args.l)
    try:
        text = str(value)
    except ValueError:
        raise _digit_limit_error() from None
    return text, {"dim_irrep": value, "n": args.n, "k": args.k, "l": args.l}, 0


def _rmatrix(args):
    image = r_matrix_to_bivector(parse_rmatrix_terms(args.terms, args.dim))
    text = format_expr(image, args.alias)
    return text, {"bivector": text, "poisson": bool(is_poisson(image))}, 0


def _rank(args):
    value = generic_rank(*_fields(args))
    return str(value), {"rank": value}, 0


def _decompose(args):
    parts = decompose(*_fields(args))
    rendered = {key: format_expr(getattr(parts, key), args.alias)
                for key in ("tracefree", "trace_part", "trace")}
    text = "\n".join(f"{key}: {value}" for key, value in rendered.items())
    return text, dict(rendered, bidegree=[parts.bidegree.k, parts.bidegree.ell]), 0


def _associate(args):
    [p] = _fields(args)
    if not is_poisson(p):
        raise PolyvecError("associate needs a Poisson structure")
    parts = decompose(p)
    k, two_ell = parts.bidegree
    pairs = [("identity", JacobiPair(p, PolyVectorField.zero(p.dim)))]
    if k != two_ell and not parts.trace.is_zero():
        scale = Fraction(two_ell - k, p.dim + k - two_ell)
        pairs.append(("trace-free", JacobiPair(parts.tracefree, parts.trace.scale(scale))))
    payload, lines = [], []
    for label, pair in pairs:
        flag = is_jacobi(pair)
        rendered = {"case": label, "lambda": format_expr(pair.lam, args.alias),
                    "e": format_expr(pair.e_field, args.alias), "jacobi": flag}
        payload.append(rendered)
        lines.append(f"{label}: lambda = {rendered['lambda']}; e = {rendered['e']}; "
                     f"jacobi = {'true' if flag else 'false'}")
    return "\n".join(lines), {"pairs": payload}, 0


def _render_catalog(doc):
    lines = [f"matrix: {doc['matrix']}", f"kernel dimension: {doc['kernel_dimension']}"]
    lines += [f"  kernel: {b}" for b in doc["kernel_basis"]]
    lines.append(f"trace-free dimension: {doc['tracefree_dimension']}")
    lines += [f"  tracefree: {b}" for b in doc["tracefree_basis"]]
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
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, where the flush at exit cannot fail again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
