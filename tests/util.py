"""Shared helpers for the test suite: the reference implementations kept
as oracles and the catalog fixtures typed in from the printed tables.  The
seeded random fields live in ``polyvec.invariants``."""

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add, index

from polyvec import (
    LinearMatrix,
    PolyDifferentialForm,
    PolyVectorField,
    from_form,
    linalg,
    matrix_action_field,
    parse_field,
    schouten,
)
from polyvec.classifier import (
    CUBIC4_DISPLAY_ORDER,
    QuadraticConstraintSet,
    monomial_exponents,
)
from polyvec.cli import _VAR_ALIASES, MAX_DEGREE, ExpressionAST, _digit_limit_error
from polyvec.duality import exterior_derivative
from polyvec.errors import DimensionError, ParseError, PolyvecError
from polyvec.fields import _operands, _sort_with_sign, merge_indices


def _frac(x):
    """The library's converter as it was when integers still became
    Fractions; kept so that ``canonical_by_fractions`` stays the oracle."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _accumulate(terms, key, c):
    """Add the nonzero Fraction ``c`` into ``terms[key]``, dropping the key
    when the sum cancels: the Fraction accumulation of the oracles here,
    where the library sums integer numerators."""
    old = terms.get(key)
    if old is None:
        terms[key] = c
    else:
        c += old
        if c:
            terms[key] = c
        else:
            del terms[key]


def canonical_by_fractions(cls, dim, terms):
    """Reference constructor: checks each key as ``cls`` does, sums the
    canonical keys' coefficients as Fractions and stores them over the lcm
    of the sums' denominators.  Returns ``(terms, den, nums)``; same contract
    as ``cls(dim, terms)``, kept only as an oracle."""
    if dim < 1:
        raise DimensionError(f"ambient dimension must be >= 1, got {dim}")
    canonical = {}
    for (exp, idx), coeff in terms.items():
        exp = tuple(map(index, exp))
        if len(exp) != dim or any(e < 0 for e in exp):
            raise DimensionError(f"bad exponent tuple {exp} for dimension {dim}")
        idx = tuple(map(index, idx))
        if (any(j < 1 or j > dim for j in idx)
                or (cls._overlong_raises and len(idx) > dim)):
            raise DimensionError(f"{cls._index_kind} index out of range in {idx}")
        coeff = _frac(coeff)
        if not coeff:
            continue
        sign, idx = _sort_with_sign(idx)
        if sign:
            _accumulate(canonical, (exp, idx), coeff if sign > 0 else -coeff)
    den = math.lcm(*(c.denominator for c in canonical.values()))
    nums = {key: c.numerator * (den // c.denominator) for key, c in canonical.items()}
    return canonical, den, nums


def tuple_nums(value):
    """The integer numerators of ``value`` over ``value.den``, keyed like
    ``terms`` by ``(exponent tuple, indices)`` instead of the stored packed
    keys."""
    den = value.den
    return {key: c.numerator * (den // c.denominator) for key, c in value.terms.items()}


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


def pfaffian_by_wedges(n, rows, upper, memo):
    """Pfaffian of the principal block on the sorted index tuple ``rows``,
    given the entries above the diagonal as integer 0-vector fields (the
    product of two of them is their wedge).  Expands along the first row in
    integers, memoised in ``memo`` by index tuple; ``memo[()]`` holds the
    constant 1.

    The library's expansion when each product was a field built by
    ``_wedge``; kept only as an oracle of ``structures._pfaffian``."""
    found = memo.get(rows)
    if found is not None:
        return found
    first = rows[0]
    totals = {}
    for t in range(1, len(rows)):
        entry = upper.get((first, rows[t]))
        if entry is None:
            continue
        minor = pfaffian_by_wedges(n, rows[1:t] + rows[t + 1:], upper, memo)
        for idx, group in entry._wedge(minor).nums.items():
            sums = totals.setdefault(idx, {})
            for packed, c in group.items():
                sums[packed] = sums.get(packed, 0) + (c if t % 2 else -c)
    found = memo[rows] = PolyVectorField._reduced(n, totals, 1)
    return found


def wedge_entries(p):
    """The upper entries of the bi-vector ``p`` as integer 0-vector fields
    of its numerators, and the memo holding the constant 1: the inputs of
    ``pfaffian_by_wedges`` as the library built them."""
    n = p.dim
    upper = {ij: PolyVectorField._wrap(n, {(): dict(group)}, 1) for ij, group in p.nums.items()}
    return upper, {(): PolyVectorField._wrap(n, {(): {0: 1}}, 1)}


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
    _operands("the Schouten bracket", (u, PolyVectorField), (v, PolyVectorField))
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
    return PolyVectorField(u.dim, terms)


def wedge_pairwise(u, v):
    """Reference wedge product: every term pair, one Fraction product per
    pair.  Same contract as ``fields._SparseTerms._wedge``; kept only as an
    oracle."""
    _operands("wedge", (u, type(u)), (v, type(u)))
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
    return type(u)(u.dim, terms)


def pushforward_by_wedges(l_matrix, u):
    """Reference pushforward: each term's image is a chain of wedges, one per
    unit of exponent and one per partial, starting from the constant
    ``c * det(L)^(l-1)``.  Same contract as ``fields.pushforward``; kept only
    as an oracle."""
    n = u.dim
    det = l_matrix.det()
    inv = l_matrix.inverse().entries
    origin = (0,) * n
    coordinates = [
        PolyVectorField(
            n, {(tuple(int(s == t) for s in range(n)), ()): v
                for t, v in enumerate(row) if v})
        for row in l_matrix.entries]
    partials = [
        PolyVectorField(
            n, {(origin, (i + 1,)): inv[i][j] for i in range(n) if inv[i][j]})
        for j in range(n)]
    out_terms = {}
    for (exp, idx), c in u.terms.items():
        image = PolyVectorField(
            n, {(origin, ()): c * det ** (len(idx) - 1)})
        for m, e in enumerate(exp):
            for _ in range(e):
                image = image._wedge(coordinates[m])
        for j in idx:
            image = image._wedge(partials[j - 1])
        for key, value in image.terms.items():
            _accumulate(out_terms, key, value)
    return PolyVectorField(n, out_terms)


def trace_d_fraction(u):
    """Reference trace operator: one Fraction product per contracted slot.
    Same contract as ``duality.trace_d``; kept only as an oracle."""
    terms = {}
    for (exp, idx), c in u.terms.items():
        ell = len(idx)
        for t, j in enumerate(idx):
            e = exp[j - 1]
            if not e:
                continue
            sign = -1 if (ell - 1 - t) % 2 else 1
            new_exp = exp[:j - 1] + (e - 1,) + exp[j:]
            _accumulate(terms, (new_exp, idx[:t] + idx[t + 1:]), sign * e * c)
    return PolyVectorField(u.dim, terms)


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


# -- tuple-key kernels ---------------------------------------------------------
# The sparse kernels as they were when a stored key held its exponent tuple,
# kept verbatim as the oracles of the packed-key kernels.  Each reads the
# integer numerators of ``tuple_nums`` (over the operand's ``den``) where the
# library reads ``nums``, and builds its result through the public
# constructor where the library normalises the totals.


def _from_tuple_totals(cls, dim, totals, den):
    """The value of integer ``totals`` keyed by exponent tuples over
    ``den``, through the constructor."""
    return cls(dim, {key: Fraction(t, den) for key, t in totals.items() if t})


def wedge_by_tuples(u, v):
    """``_SparseTerms._wedge`` on exponent tuples."""
    _operands("wedge", (u, type(u)), (v, type(u)))
    totals, merges = {}, {}
    vs = tuple_nums(v).items()
    for (ea, ia), ca in tuple_nums(u).items():
        row = merges.get(ia)
        if row is None:
            row = merges[ia] = {}
        for (eb, ib), cb in vs:
            merged = row.get(ib, False)
            if merged is False:
                merged = row[ib] = merge_indices(ia, ib)
            if merged is None:
                continue
            sign, idx = merged
            key = (tuple(map(add, ea, eb)), idx)
            value = ca * cb
            totals[key] = totals.get(key, 0) + (value if sign > 0 else -value)
    return _from_tuple_totals(type(u), u.dim, totals, u.den * v.den)


def _derivative_buckets_by_tuples(dim, terms):
    buckets = [[] for _ in range(dim)]
    for (exp, idx), c in terms:
        for m, e in enumerate(exp):
            if e:
                buckets[m].append((exp[:m] + (e - 1,) + exp[m + 1:], idx, e * c))
    return buckets


def _slot_derivatives_by_tuples(totals, merges, terms, buckets, twist):
    for (ea, ia), ca in terms:
        p = len(ia)
        for t, j in enumerate(ia):
            bucket = buckets[j - 1]
            if not bucket:
                continue
            rest = ia[:t] + ia[t + 1:]
            row = merges.get(rest)
            if row is None:
                row = merges[rest] = {}
            c = ca if (p - 1 - t) % 2 == 0 else -ca
            # the coefficient for an other-operand index tuple of even / odd length
            by_parity = ((c, -c) if p % 2 == 0 else (-c, -c)) if twist else (c, c)
            for eb, ib, cb in bucket:
                merged = row.get(ib, False)
                if merged is False:
                    merged = row[ib] = merge_indices(rest, ib)
                if merged is None:
                    continue
                sign, idx = merged
                key = (tuple(map(add, ea, eb)), idx)
                value = by_parity[len(ib) % 2] * cb
                totals[key] = totals.get(key, 0) + (value if sign > 0 else -value)


def schouten_by_tuples(u, v):
    """``fields.schouten`` on exponent tuples."""
    _operands("the Schouten bracket", (u, PolyVectorField), (v, PolyVectorField))
    us, vs = tuple_nums(u).items(), tuple_nums(v).items()
    totals, merges = {}, {}
    _slot_derivatives_by_tuples(totals, merges, us, _derivative_buckets_by_tuples(u.dim, vs),
                                False)
    _slot_derivatives_by_tuples(totals, merges, vs, _derivative_buckets_by_tuples(u.dim, us),
                                True)
    return _from_tuple_totals(PolyVectorField, u.dim, totals, u.den * v.den)


def trace_d_by_tuples(u):
    """``duality.trace_d`` on exponent tuples."""
    totals = {}
    for (exp, idx), c in tuple_nums(u).items():
        ell = len(idx)
        for t, j in enumerate(idx):
            e = exp[j - 1]
            if not e:
                continue
            key = (exp[:j - 1] + (e - 1,) + exp[j:], idx[:t] + idx[t + 1:])
            value = e * c
            totals[key] = totals.get(key, 0) + (-value if (ell - 1 - t) % 2 else value)
    return _from_tuple_totals(PolyVectorField, u.dim, totals, u.den)


def exterior_derivative_by_tuples(omega):
    """``duality.exterior_derivative`` on exponent tuples."""
    totals = {}
    for (exp, idx), c in tuple_nums(omega).items():
        for m in range(omega.dim):
            e = exp[m]
            if not e:
                continue
            merged = merge_indices((m + 1,), idx)
            if merged is None:
                continue
            sign, new_idx = merged
            key = (exp[:m] + (e - 1,) + exp[m + 1:], new_idx)
            totals[key] = totals.get(key, 0) + sign * e * c
    return _from_tuple_totals(PolyDifferentialForm, omega.dim, totals, omega.den)


def interior_product_by_tuples(x, omega):
    """``duality.interior_product`` on exponent tuples."""
    if x.dim != omega.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {omega.dim}")
    components = {}
    for (exp, idx), c in tuple_nums(x).items():
        if len(idx) != 1:
            raise DimensionError("interior product needs a vector field")
        components.setdefault(idx[0], {})[exp] = c
    grouped = {}
    for (exp, idx), c in tuple_nums(omega).items():
        for t, j in enumerate(idx):
            comp = components.get(j)
            if not comp:
                continue
            signed = -c if t % 2 else c
            sums = grouped.setdefault(idx[:t] + idx[t + 1:], {})
            for xexp, xc in comp.items():
                key = tuple(map(add, exp, xexp))
                sums[key] = sums.get(key, 0) + signed * xc
    totals = {(exp, idx): t for idx, sums in grouped.items() for exp, t in sums.items()}
    return _from_tuple_totals(PolyDifferentialForm, omega.dim, totals, x.den * omega.den)


def format_expr_by_tuples(obj, alias="numeric"):
    """``cli.format_expr`` on exponent tuples."""
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
    last_idx = partial = None
    try:
        for idx, exp, num in sorted([(idx, exp, c)
                                     for (exp, idx), c in tuple_nums(obj).items()]):
            monomial = monomials.get(exp)
            if monomial is None:
                monomial = monomials[exp] = "*".join([
                    var_names[m] if e == 1 else f"{var_names[m]}^{e}"
                    for m, e in enumerate(exp) if e])
            if idx != last_idx:
                last_idx = idx
                partial = "/\\".join([partial_names[j - 1] for j in idx])
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


def rref_by_fractions(rows):
    """Reference sparse reduced row echelon form: each row becomes
    ``{column: Fraction}`` and goes through ``eliminate_fractions``.  Same
    contract as ``linalg.rref`` on dense and sparse rows; kept only as an
    oracle."""
    rows = list(rows)
    sparse = []
    for row in rows:
        items = row.items() if isinstance(row, Mapping) else enumerate(row)
        sparse.append({c: Fraction(x) for c, x in items if Fraction(x)})
    reduced, pivots = eliminate_fractions(sparse)
    if rows and not isinstance(rows[0], Mapping):
        ncols = len(rows[0])
        return [[row.get(c, Fraction(0)) for c in range(ncols)] for row in reduced], pivots
    return reduced, pivots


def eliminate_fractions(rows):
    """Reference sparse Gauss-Jordan over Fraction on rows ``{column:
    Fraction}``, which it consumes: the sparsest row with an entry in a
    column is its pivot and is scaled to a leading 1.  Same contract as
    ``linalg._eliminate``; kept only as an oracle."""
    pending = [row for row in rows if row]
    reduced, pivots = [], []
    for c in sorted({c for row in pending for c in row}):
        if not pending:
            break
        candidates = [i for i, row in enumerate(pending) if c in row]
        if not candidates:
            continue
        pivot = pending.pop(min(candidates, key=lambda i: len(pending[i])))
        lead = pivot.pop(c)
        if lead != 1:
            inv = 1 / lead
            pivot = {k: v * inv for k, v in pivot.items()}
        update = list(pivot.items())
        for group in (pending, reduced):
            for row in group:
                f = row.pop(c, None)
                if f is None:
                    continue
                for k, v in update:
                    w = row.get(k)
                    if w is None:
                        row[k] = -f * v
                    else:
                        w -= f * v
                        if w:
                            row[k] = w
                        else:
                            del row[k]
        pending = [row for row in pending if row]
        pivot[c] = Fraction(1)
        reduced.append(pivot)
        pivots.append(c)
    return reduced, pivots


def determinant_by_fractions(rows):
    """Reference determinant: dense Gaussian elimination over Fraction, first
    nonzero entry as pivot.  Same contract as ``linalg.determinant`` on
    square dense rows; kept only as an oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def point_values_by_fractions(p):
    """Reference evaluation of ``generic_rank``: the upper entries
    ``{(i, j): Fraction}`` of the integer numerators of the bi-vector ``p``
    at x_m = m + 1/(m + 1), in Fraction arithmetic.  Kept only as an
    oracle of ``structures._scaled_point_values``."""
    values = {}
    for (exp, ij), c in tuple_nums(p).items():
        for m, e in enumerate(exp, 1):
            if e:
                c *= (m + Fraction(1, m + 1)) ** e
        values[ij] = values.get(ij, 0) + c
    return values


def _combine(basis, vector):
    out = basis[0].scale(vector[0])
    for b, c in zip(basis[1:], vector[1:]):
        if c:
            out = out + b.scale(c)
    return out


def operator_kernel_by_basis(basis, operator):
    """Exact nullspace of a linear operator given by its action on a basis.

    The matrix has one sparse row per term key of the images: row ``key``
    maps the index of each basis element to the coefficient of ``key`` in its
    image, so it goes to ``linalg.nullspace`` without a dense transpose.
    Each row is passed as integers, its numerators over the lcm of the
    images' denominators in that row: scaling a row changes no nullspace.
    """
    rows = {}
    for j, b in enumerate(basis):
        image = operator(b)
        den = image.den
        for idx, group in image.nums.items():
            for packed, c in group.items():
                rows.setdefault((packed, idx), []).append((j, c, den))
    matrix = []
    for entries in rows.values():
        common = lcm(*(den for _, _, den in entries))
        matrix.append({j: c * (common // den) for j, c, den in entries})
    vectors = linalg.nullspace(matrix, len(basis))
    return [_combine(basis, v) for v in vectors]


def cubic_oneform_basis():
    """The 80 basis 1-forms theta = x^(mno) dx^k in display order, k major."""
    basis = []
    for k in range(1, 5):
        for exp in CUBIC4_DISPLAY_ORDER:
            basis.append(PolyDifferentialForm(4, {(exp, (k,)): Fraction(1)}))
    return basis


def centralizer_kernel_by_basis(c_matrix, k):
    """Reference basis of {A in P^(k,1) : [C, A] = 0}: the operator solved on
    validated basis fields, each kernel element a sum of scaled basis
    fields.  Same list as ``centralizer_kernel(c_matrix, k).basis``; kept
    only as an oracle."""
    n = c_matrix.dim
    c_field = matrix_action_field(c_matrix)
    basis = [
        PolyVectorField.single(n, 1, exp, (j,))
        for exp in monomial_exponents(n, k)
        for j in range(1, n + 1)
    ]
    return operator_kernel_by_basis(basis, lambda a: schouten(c_field, a))


def compatible_cubic_oneforms_by_basis(a_matrix):
    """Reference kernel of theta -> [A, Psi^-1 theta] on the 80 basis 1-forms
    of ``cubic_oneform_basis``.  Same list as
    ``compatible_cubic_oneforms(a_matrix).basis``; kept only as an oracle."""
    a_field = matrix_action_field(a_matrix)
    return operator_kernel_by_basis(
        cubic_oneform_basis(), lambda th: schouten(a_field, from_form(th)))


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
