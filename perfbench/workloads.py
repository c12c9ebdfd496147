"""Seeded inputs for the three workloads and the benchmark's own oracles.

Nothing here imports polyvec.  Inputs are plain strings (CLI arguments and
field expressions), built and certified with this module's own Fraction
arithmetic, so a defect in the library cannot leak into an expected answer.
The same seed always gives the same inputs.

Run-to-run steadiness matters more than variety here: the benchmark is run
once per seed and its medians are compared across seeds.  So each workload
keeps the *shape* of its expensive inputs fixed and lets the seed choose
what does not change the amount of work (coefficients, signs, orientations).
"""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# The ten canonical strata of the catalogs, in the matrix literal syntax of
# the CLI (row convention x -> x C).
STRATA = [
    ("quad4-diagonal", "classify-quad4", "1,0,0,0;0,2,0,0;0,0,4,0;0,0,0,-7"),
    ("quad4-nilpotent", "classify-quad4", "1,1,0,0;0,1,0,0;0,0,-1,1;0,0,0,-1"),
    ("quad4-rotation", "classify-quad4", "1,1,0,0;-1,1,0,0;0,0,-1,2;0,0,-2,-1"),
    ("quad4-zero", "classify-quad4", "0,0,0,0;0,0,0,0;0,0,0,0;0,0,0,0"),
    ("cubic3-A12", "classify-cubic3", "1,0,0;0,2,0;0,0,-3"),
    ("cubic3-A2", "classify-cubic3", "0,0,0;0,1,0;0,0,-1"),
    ("cubic3-A3", "classify-cubic3", "0,0,0;0,0,0;0,0,0"),
    ("cubic3-B2", "classify-cubic3", "0,1,0;0,0,0;0,0,0"),
    ("cubic3-C", "classify-cubic3", "0,1,0;0,0,1;0,0,0"),
    ("cubic3-D2", "classify-cubic3", "0,1,0;-1,0,0;0,0,0"),
]

# The conjugated stratum and the coordinate pairs its two elementary factors
# couple.  Measured on this stratum, the 16 conjugators that couple the
# eigenvalue pairs (1, 4) and (2, -7) cost within about 10 % of each other
# whatever their orientation and signs, while other choices of the two
# factors range over more than 2x; fixing the pattern keeps the job latency
# independent of the seed.
CONJUGATED = "quad4-diagonal"
CONJUGATOR_PAIRS = ((0, 2), (1, 3))

# brackets: size classes (n, k, l, terms) and pairs per class in one job
BRACKET_CLASSES = [(4, 3, 2, 18), (6, 2, 2, 13), (8, 2, 2, 24)]
BRACKET_PAIRS_PER_CLASS = 2
BRACKET_DENOMINATORS = (1, 2, 3, 7)

# rank: (n, construction, terms per linear vector field)
RANK_CLASSES = [
    (5, "wedge2", 7), (5, "wedge4", 6), (5, "symplectic", 7),
    (6, "wedge2", 7), (6, "wedge4", 5), (6, "symplectic", 7),
    (7, "wedge2", 7), (7, "wedge4", 5), (7, "symplectic", 7),
]


# -- exact helpers --------------------------------------------------------------


def parse_matrix(text):
    return [[Fraction(x) for x in row.split(",")] for row in text.split(";")]


def format_matrix(rows):
    return ";".join(",".join(str(x) for x in row) for row in rows)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def elementary(n, i, j, s):
    m = identity(n)
    m[i][j] = Fraction(s)
    return m


def matrix_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def determinant(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def format_terms(n, terms):
    """Render {(exponents, indices): coefficient} in the CLI expression syntax."""
    parts = []
    for (exp, idx), c in sorted(terms.items()):
        if not c:
            continue
        factors = [str(abs(c))] if abs(c) != 1 or not (any(exp) or idx) else []
        factors += [f"x{m + 1}" if e == 1 else f"x{m + 1}^{e}"
                    for m, e in enumerate(exp) if e]
        body = "*".join(factors)
        if idx:
            body = "*".join(s for s in (body, "/\\".join(f"d{j}" for j in idx)) if s)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    first_sign, first = parts[0]
    return ("-" if first_sign == "-" else "") + first + "".join(
        f" {sign} {body}" for sign, body in parts[1:])


def _add(terms, key, c):
    s = terms.get(key, Fraction(0)) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


# -- catalog --------------------------------------------------------------------


def catalog_inputs(seed):
    """The ten canonical strata plus one seeded conjugate L C L^-1."""
    rng = random.Random(f"catalog-{seed}")
    items = [{"label": name, "tag": "normal", "argv": [cmd, "--json", "--matrix", mat],
              "golden": name} for name, cmd, mat in STRATA]
    normal = dict((name, (cmd, mat)) for name, cmd, mat in STRATA)[CONJUGATED]
    c = parse_matrix(normal[1])
    n = len(c)
    factors = []
    for a, b in CONJUGATOR_PAIRS:
        i, j = (a, b) if rng.random() < 0.5 else (b, a)
        factors.append((i, j, rng.choice((1, -1))))
    left, left_inv = identity(n), identity(n)
    for i, j, s in factors:
        left = mat_mul(left, elementary(n, i, j, s))
        left_inv = mat_mul(elementary(n, i, j, -s), left_inv)
    conj = mat_mul(mat_mul(left, c), left_inv)
    items.append({"label": f"{CONJUGATED}-conjugate", "tag": "conjugate",
                  "argv": [normal[0], "--json", "--matrix", format_matrix(conj)],
                  "normal_form": CONJUGATED})
    return {"items": items}


def read_golden(name):
    return (GOLDEN_DIR / f"{name}.json").read_text()


# -- brackets -------------------------------------------------------------------


def _monomials(n, k):
    if n == 1:
        return [(k,)]
    return [(first,) + rest for first in range(k, -1, -1) for rest in _monomials(n - 1, k - first)]


def random_homogeneous(rng, shape_rng, n, k, ell, nterms):
    """A (k, l)-homogeneous field with nterms distinct terms: the terms come
    from shape_rng, the rational coefficients (denominators in
    BRACKET_DENOMINATORS) from rng."""
    keys = shape_rng.sample([(e, idx) for e in _monomials(n, k)
                             for idx in combinations(range(1, n + 1), ell)], nterms)
    terms = {}
    for key in keys:
        p = rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 9)) * rng.choice((1, -1))
        terms[key] = Fraction(p, rng.choice(BRACKET_DENOMINATORS))
    return format_terms(n, terms)


def random_unimodular(rng, shape_rng, n):
    """A product of n elementary matrices with +-1 off the diagonal, and a
    sign flip of one coordinate with probability 1/2, so det is +-1.  The
    positions come from shape_rng, the signs and the flip from rng."""
    m = identity(n)
    for _ in range(n):
        i, j = shape_rng.sample(range(n), 2)
        m = mat_mul(m, elementary(n, i, j, rng.choice((1, -1))))
    flip = identity(n)
    r = shape_rng.randrange(n)
    flip[r][r] = Fraction(rng.choice((1, -1)))
    return mat_mul(m, flip)


def brackets_inputs(seed):
    rng = random.Random(f"brackets-{seed}")
    items = []
    for n, k, ell, nterms in BRACKET_CLASSES:
        for pair in range(BRACKET_PAIRS_PER_CLASS):
            shape_rng = random.Random(f"brackets-shape-{n}-{k}-{ell}-{nterms}-{pair}")
            lmat = random_unimodular(rng, shape_rng, n)
            items.append({
                "label": f"n{n}-k{k}-l{ell}-t{nterms}",
                "n": n,
                "a": random_homogeneous(rng, shape_rng, n, k, ell, nterms),
                "b": random_homogeneous(rng, shape_rng, n, k, ell, nterms),
                "matrix": format_matrix(lmat),
                "det": str(determinant(lmat)),
            })
    return {"items": items}


# -- rank -----------------------------------------------------------------------


def _linear_shape(rng, n, nterms):
    """Distinct (variable, partial) slots of a sparse linear vector field."""
    return rng.sample([(m, i) for m in range(n) for i in range(n)], nterms)


def _linear_field(rng, shape):
    """Coefficients of prime magnitude make accidental cancellations, in the
    expanded terms and in the minors, rare, so the cost of a class hardly
    depends on the seed (within about 2 %; with magnitudes 1..5, 8 %)."""
    return {slot: Fraction(rng.choice((2, 3, 5, 7, 11, 13, 17, 19)) * rng.choice((1, -1)))
            for slot in shape}


def _evaluate(field, point, n):
    """Components X_i(p) of a linear vector field at a point."""
    out = [Fraction(0)] * n
    for (m, i), c in field.items():
        out[i] += c * point[m]
    return out


def _wedge_terms(x, y, n, terms):
    """Add the expanded terms of X /\\ Y to terms."""
    for (m, i), a in x.items():
        for (m2, j), b in y.items():
            if i == j:
                continue
            exp = [0] * n
            exp[m] += 1
            exp[m2] += 1
            sign = 1 if i < j else -1
            _add(terms, (tuple(exp), (min(i, j) + 1, max(i, j) + 1)), sign * a * b)


def _point_skew(fields, symplectic, point, n):
    """The skew coefficient matrix of the construction at a point, evaluated
    from its factors rather than from its expanded terms."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for x, y in fields:
        xs, ys = _evaluate(x, point, n), _evaluate(y, point, n)
        for i in range(n):
            for j in range(n):
                skew[i][j] += xs[i] * ys[j] - xs[j] * ys[i]
    if symplectic:
        for i in range(0, n - 1, 2):
            skew[i][i + 1] += 1
            skew[i + 1][i] -= 1
    return skew


def _rank_bound(n, kind):
    return {"wedge2": 2, "wedge4": 4, "symplectic": n - n % 2}[kind]


def certified_bivector(n, kind, nterms, rng, shape_rng):
    """A bi-vector with its generic rank certified by two independent bounds.

    The construction bounds the rank from above; the exact rank of the skew
    matrix at a seeded rational point bounds it from below.  Coefficient
    draws repeat until the bounds meet; a shape on which they never meet
    (a structurally degenerate one) is replaced from the fixed shape stream.
    """
    upper = _rank_bound(n, kind)
    npairs = 2 if kind == "wedge4" else 1
    while True:
        shapes = [(_linear_shape(shape_rng, n, nterms), _linear_shape(shape_rng, n, nterms))
                  for _ in range(npairs)]
        for _ in range(20):
            fields = [(_linear_field(rng, sx), _linear_field(rng, sy)) for sx, sy in shapes]
            point = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(n)]
            lower = matrix_rank(_point_skew(fields, kind == "symplectic", point, n))
            if lower != upper:
                continue
            terms = {}
            for x, y in fields:
                _wedge_terms(x, y, n, terms)
            if kind == "symplectic":
                for i in range(0, n - 1, 2):
                    _add(terms, ((0,) * n, (i + 1, i + 2)), Fraction(1))
            return format_terms(n, terms), upper


def rank_inputs(seed):
    rng = random.Random(f"rank-{seed}")
    items = []
    for n, kind, nterms in RANK_CLASSES:
        shape_rng = random.Random(f"rank-shape-{n}-{kind}-{nterms}")
        expr, rank = certified_bivector(n, kind, nterms, rng, shape_rng)
        items.append({"label": f"n{n}-{kind}", "n": n, "tag": f"n{n}",
                      "argv": ["rank", "--dim", str(n), expr], "expected": rank})
    return {"items": items}


INPUTS = {"catalog": catalog_inputs, "brackets": brackets_inputs, "rank": rank_inputs}
