"""Shared helpers for the test suite: the reference implementations kept
as oracles and the catalog fixtures typed in from the printed tables.  The
seeded random fields live in ``polyvec.invariants``."""

import sys
from fractions import Fraction
from itertools import combinations

from polyvec import (
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    parse_field,
)
from polyvec.classifier import QuadraticConstraintSet
from polyvec.cli import _VAR_ALIASES, MAX_DEGREE, ExpressionAST
from polyvec.duality import exterior_derivative
from polyvec.errors import ParseError, PolyvecError
from polyvec.fields import _accumulate, _sort_with_sign, merge_indices


def pv(text, n):
    return parse_field(text, n)


def random_invertible(rng, n, bound=3):
    while True:
        m = LinearMatrix([[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                          for _ in range(n)])
        if m.det() != 0:
            return m


def generic_rank_by_minors(p):
    """Reference generic rank: the largest even r with a nonzero principal
    r x r minor, each minor a Laplace expansion over 0-vector fields.

    Exponential in the dimension; kept only as an oracle for small n."""
    n = p.dim
    zero = PolyVectorField.zero(n)
    skew = [[zero] * n for _ in range(n)]
    for (exp, (i, j)), c in p.terms.items():
        entry = PolyVectorField(n, {(exp, ()): c})
        skew[i - 1][j - 1] = skew[i - 1][j - 1] + entry
        skew[j - 1][i - 1] = skew[j - 1][i - 1] - entry
    for r in range(n - n % 2, 0, -2):
        for rows in combinations(range(n), r):
            if not _poly_det([[skew[i][j] for j in rows] for i in rows], zero).is_zero():
                return r
    return 0


def _poly_det(m, zero):
    """Laplace expansion along the first row; the product of two 0-vector
    fields is their wedge."""
    if len(m) == 1:
        return m[0][0]
    det = zero
    for col, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        sub = [row[:col] + row[col + 1:] for row in m[1:]]
        term = entry.wedge(_poly_det(sub, zero))
        det = det - term if col % 2 else det + term
    return det


def _diff_monomial(exp, m):
    """d/dx_m of x^exp as (factor, new exponent) or None."""
    e = exp[m]
    if e == 0:
        return None
    return e, exp[:m] + (e - 1,) + exp[m + 1:]


def schouten_pairwise(u, v):
    """Reference Schouten bracket: every term pair, one Fraction product per
    pair, each partial slot probed against the other monomial.  Same
    contract as ``fields.schouten``; kept only as an oracle."""
    u._check_dim(v)
    terms = {}
    for (ea, ia), ca in u.terms.items():
        p = len(ia)
        for (eb, ib), cb in v.terms.items():
            q = len(ib)
            cab = ca * cb
            # derivatives of v's coefficient along u's partial slots
            for t in range(p):
                d = _diff_monomial(eb, ia[t] - 1)
                if d is None:
                    continue
                factor, new_eb = d
                merged = merge_indices(ia[:t] + ia[t + 1:], ib)
                if merged is None:
                    continue
                sign, idx = merged
                if (p - 1 - t) % 2:
                    sign = -sign
                exp = tuple(x + y for x, y in zip(ea, new_eb))
                _accumulate(terms, (exp, idx), sign * factor * cab)
            # derivatives of u's coefficient along v's partial slots
            outer = -1 if ((p - 1) * (q - 1)) % 2 == 0 else 1
            for s_pos in range(q):
                d = _diff_monomial(ea, ib[s_pos] - 1)
                if d is None:
                    continue
                factor, new_ea = d
                merged = merge_indices(ib[:s_pos] + ib[s_pos + 1:], ia)
                if merged is None:
                    continue
                sign, idx = merged
                if (q - 1 - s_pos) % 2:
                    sign = -sign
                exp = tuple(x + y for x, y in zip(new_ea, eb))
                _accumulate(terms, (exp, idx), outer * sign * factor * cab)
    return PolyVectorField._from_canonical(u.dim, terms)


def wedge_pairwise(u, v):
    """Reference wedge product: every term pair, one Fraction product per
    pair.  Same contract as ``fields._SparseTerms._wedge``; kept only as an
    oracle."""
    u._check_dim(v)
    terms = {}
    for (ea, ia), ca in u.terms.items():
        for (eb, ib), cb in v.terms.items():
            merged = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            c = ca * cb
            _accumulate(terms, (tuple(x + y for x, y in zip(ea, eb)), idx),
                        c if sign > 0 else -c)
    return u._from_canonical(u.dim, terms)


def format_expr_fraction(obj, alias="numeric"):
    """Reference rendering: ``abs(coeff)`` and ``coeff < 0`` through Fraction
    arithmetic per term.  Same contract as ``cli.format_expr``; kept only as
    an oracle."""
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
    rendered = []
    ordered = sorted(obj.terms.items(), key=lambda item: (item[0][1], item[0][0]))
    for (exp, idx), coeff in ordered:
        factors = []
        for m, e in enumerate(exp):
            if e == 1:
                factors.append(var_names[m])
            elif e > 1:
                factors.append(f"{var_names[m]}^{e}")
        partial = "/\\".join(partial_names[j - 1] for j in idx)
        magnitude = abs(coeff)
        body = "*".join(factors)
        if magnitude != 1 or not (body or partial):
            body = "*".join(s for s in (str(magnitude), body) if s)
        if partial:
            body = "*".join(s for s in (body, partial) if s)
        rendered.append((coeff < 0, body))
    first_negative, first_body = rendered[0]
    out = ("-" if first_negative else "") + first_body
    for negative, body in rendered[1:]:
        out += (" - " if negative else " + ") + body
    return out


# -- reference parser ----------------------------------------------------------
# The character scanner, token-cursor parser and term canonicalization that
# ``cli.parse_field`` replaced, kept verbatim as the oracle of the parser
# tests; ``parse_field_by_tokens`` is the old ``parse_field``.


def _alias_names(dim):
    letters = _VAR_ALIASES.get(dim)
    if letters is None:
        return {}, {}
    variables = {name: i + 1 for i, name in enumerate(letters)}
    partials = {"d" + name: i + 1 for i, name in enumerate(letters)}
    return variables, partials


_TOKEN_SYMBOLS = ("+", "-", "*", "^")


def _tokenize(text):
    # int() refuses a digit run past the interpreter's int/str limit (0 means none)
    max_digits = sys.get_int_max_str_digits()
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
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if max_digits and j - i > max_digits:
                raise ParseError(f"integer exceeds the limit of {max_digits} digits", i)
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum()):
                j += 1
            if max_digits and j - i > max_digits:
                raise ParseError(f"name exceeds the limit of {max_digits} digits", i)
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


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
        degree = 0
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
                    degree += power
                    if degree > MAX_DEGREE:
                        raise ParseError(
                            f"term degree exceeds the limit of {MAX_DEGREE}", factor_at)
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
        if name[0] in ("x", "d") and name[1:].isdecimal():
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


def parse_field_by_tokens(text, n):
    """Reference parser.  Same contract as ``cli.parse_field``; kept only as
    an oracle."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, n).parse().to_field()


def quartic_constraints_by_wedge(space):
    """Reference quartic constraints: one wedge product per parameter pair
    through ``wedge_pairwise``.  Same contract as
    ``classifier.quartic_constraints``; kept only as an oracle."""
    basis = list(space.basis)
    m = len(basis)
    differentials = [exterior_derivative(th) for th in basis]
    per_monomial = {}
    for i in range(m):
        for j in range(i, m):
            product = wedge_pairwise(differentials[i], differentials[j])
            factor = 1 if i == j else 2
            for (exp, idx), c in product.terms.items():
                per_monomial.setdefault((exp, idx), {})[(i, j)] = factor * c
    parameters = tuple(f"c{i + 1}" for i in range(m))
    constraints = tuple(per_monomial[key] for key in sorted(per_monomial))
    return QuadraticConstraintSet(parameters=parameters, constraints=constraints)


def rref_dense(rows):
    """Reference reduced row echelon form: dense Gauss-Jordan over Fraction,
    first nonzero row as pivot.  Same contract as ``linalg.rref`` on dense
    rows; kept only as an oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def random_rational_matrix(rng, nrows, ncols, density):
    """Seeded rational matrix whose entries are nonzero with probability
    ``density`` (small numerators and denominators, both signs)."""
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else
             Fraction(0) for _ in range(ncols)] for _ in range(nrows)]


def so3_bivector():
    return pv("x*d2/\\d3 - y*d1/\\d3 + z*d1/\\d2", 3)


def g_ab_bivector(alpha, beta):
    return PolyVectorField(3, {((0, 1, 0), (1, 2)): Fraction(alpha),
                               ((0, 0, 1), (1, 3)): Fraction(beta)})


# linear strata of the dimension-3 cubic catalog
CASE_A12 = LinearMatrix.diagonal([1, 2, -3])
CASE_A2 = LinearMatrix.diagonal([0, 1, -1])
CASE_A3 = LinearMatrix.diagonal([0, 0, 0])
CASE_B2 = LinearMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
CASE_C = LinearMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
CASE_D2 = LinearMatrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

# printed trace-free bases (B.2 verbatim; C and D.2 with the corrections
# derived in the regression tests: the catalog text's middle C element has a
# flipped sign and its third D.2 element is missing the -z^2 dz term)
PRINTED_BASIS_A12 = ["x^2*dy"]
PRINTED_BASIS_B2 = [
    "z^2*dz - x*z*dx - y*z*dy",
    "3*x*z*dz - x^2*dx - x*y*dy",
    "x^2*dy", "z^2*dy", "x*z*dy", "x^2*dz",
]
PRINTED_BASIS_C_VERBATIM = [
    "x^2*dz",
    "x*y*dz - x^2*dy",
    "x*y*dy + x^2*dx + 2*y^2*dz - 3*x*z*dz",
]
BASIS_C_CORRECTED = [
    "x^2*dz",
    "x*y*dz + x^2*dy",
    "x*y*dy + x^2*dx + 2*y^2*dz - 3*x*z*dz",
]
PRINTED_BASIS_D2_VERBATIM = [
    "y^2*dz + x^2*dz",
    "y*z*dx - x*z*dy",
    "x*z*dx + y*z*dy",
]
BASIS_D2_CORRECTED = [
    "y^2*dz + x^2*dz",
    "y*z*dx - x*z*dy",
    "x*z*dx + y*z*dy - z^2*dz",
]


def fields_from(texts, n=3):
    return [pv(t, n) for t in texts]


# dimension-4 strata
QUAD4_DIAGONAL = LinearMatrix.diagonal([1, 2, 4, -7])
QUAD4_NILPOTENT = LinearMatrix([[1, 1, 0, 0], [0, 1, 0, 0],
                                [0, 0, -1, 1], [0, 0, 0, -1]])
QUAD4_ROTATION = LinearMatrix([[1, 1, 0, 0], [-1, 1, 0, 0],
                               [0, 0, -1, 2], [0, 0, -2, -1]])


def poly_times_oneform(poly_terms, oneform_terms):
    """(sum_c x^e) * (sum_c x^e dx^k) as an exact 1-form in dimension 4."""
    terms = {}
    for pc, pe in poly_terms:
        for fc, fe, k in oneform_terms:
            key = (tuple(a + b for a, b in zip(pe, fe)), (k,))
            terms[key] = terms.get(key, Fraction(0)) + Fraction(pc) * Fraction(fc)
    return PolyDifferentialForm(4, terms)


_TY = [(1, (1, 0, 1, 0))]
_TZ_XY = [(1, (1, 0, 0, 1)), (-1, (0, 1, 1, 0))]
_Y_DT = [(1, (0, 0, 1, 0), 1)]
_T_DY = [(1, (1, 0, 0, 0), 3)]
_ZDT_YDX = [(1, (0, 0, 0, 1), 1), (-1, (0, 0, 1, 0), 2)]
_TDZ_XDY = [(1, (1, 0, 0, 0), 4), (-1, (0, 1, 0, 0), 3)]


def quad4_diagonal_family():
    """Kernel basis for the distinct-diagonal stratum: xyz dt, tyz dx, ..."""
    return [
        PolyDifferentialForm(4, {((0, 1, 1, 1), (1,)): 1}),
        PolyDifferentialForm(4, {((1, 0, 1, 1), (2,)): 1}),
        PolyDifferentialForm(4, {((1, 1, 0, 1), (3,)): 1}),
        PolyDifferentialForm(4, {((1, 1, 1, 0), (4,)): 1}),
    ]


def quad4_nilpotent_family():
    """The printed 8-parameter family (a1, a2, b1, b2, g1, g2, d1, d2)."""
    return [
        poly_times_oneform(_TY, _Y_DT),
        poly_times_oneform(_TY, _T_DY),
        poly_times_oneform(_TY, _ZDT_YDX),
        poly_times_oneform(_TY, _TDZ_XDY),
        poly_times_oneform(_TZ_XY, _Y_DT),
        poly_times_oneform(_TZ_XY, _T_DY),
        poly_times_oneform(_TZ_XY, _ZDT_YDX),
        poly_times_oneform(_TZ_XY, _TDZ_XDY),
    ]


def quad4_nilpotent_theta(a1, a2, b1, b2, g1, g2, d1, d2):
    basis = quad4_nilpotent_family()
    values = [a1, a2, b1, b2, g1, g2, d1, d2]
    out = PolyDifferentialForm.zero(4)
    for c, th in zip(values, basis):
        if c:
            out = out + th.scale(c)
    return out


def quad4_rotation_family():
    """The printed 4-parameter family (a1, a2, b1, b2)."""
    y2z2 = [(1, (0, 0, 2, 0)), (1, (0, 0, 0, 2))]
    t2x2 = [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0))]
    xdt_tdx = [(1, (0, 1, 0, 0), 1), (-1, (1, 0, 0, 0), 2)]
    tdt_xdx = [(1, (1, 0, 0, 0), 1), (1, (0, 1, 0, 0), 2)]
    zdy_ydz = [(1, (0, 0, 0, 1), 3), (-1, (0, 0, 1, 0), 4)]
    ydy_zdz = [(1, (0, 0, 1, 0), 3), (1, (0, 0, 0, 1), 4)]
    return [
        poly_times_oneform(y2z2, xdt_tdx),
        poly_times_oneform(y2z2, tdt_xdx),
        poly_times_oneform(t2x2, zdy_ydz),
        poly_times_oneform(t2x2, ydy_zdz),
    ]
