"""The benchmark's own exact arithmetic, independent of the code under test.

Polynomials in three variables are dicts ``{(e0, e1, e2): coefficient}``;
univariate polynomials are ascending coefficient lists.  Inputs are built and
expected answers are checked with these helpers only, so a bug in the
library's kernel cannot make its own output look right.
"""

from fractions import Fraction


def add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def power(p, n):
    out = {(0, 0, 0): 1}
    for _ in range(n):
        out = mul(out, p)
    return out


def linear(coeffs):
    """The linear form c0*v0 + c1*v1 + c2*v2."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return {e: c for e, c in zip(units, coeffs) if c}


def substitute_linear(p, matrix):
    """p(M v): each variable v_i becomes the row form sum_j M[i][j] v_j."""
    rows = [linear(row) for row in matrix]
    out = {}
    for e, c in p.items():
        term = {(0, 0, 0): c}
        for row, k in zip(rows, e):
            term = mul(term, power(row, k))
        out = add(out, term)
    return out


def evaluate(p, point):
    total = Fraction(0)
    for (a, b, c), coeff in p.items():
        total += coeff * point[0] ** a * point[1] ** b * point[2] ** c
    return total


def partial(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def gradient_at(p, point):
    return tuple(evaluate(partial(p, i), point) for i in range(3))


def normalize_point(point):
    """Scale a nonzero projective point so its first nonzero entry is 1."""
    point = tuple(Fraction(c) for c in point)
    lead = next(c for c in point if c)
    return tuple(c / lead for c in point)


def is_proportional(p, q):
    """Is p a nonzero rational multiple of q?"""
    if not p or not q or p.keys() != q.keys():
        return False
    e = next(iter(q))
    ratio = Fraction(p[e]) / q[e]
    return all(Fraction(p[k]) == ratio * q[k] for k in q)


def to_text(p, names):
    """Render in the grammar of the ``tck`` command line."""
    pieces = []
    for e, c in sorted(p.items(), reverse=True):
        mono = "*".join(
            n if k == 1 else "%s^%d" % (n, k) for n, k in zip(names, e) if k
        )
        mag = abs(c)
        body = mono if mag == 1 and mono else (
            "%d*%s" % (mag, mono) if mono else "%d" % mag)
        sign = "-" if c < 0 else ("+" if pieces else "")
        pieces.append(sign + body)
    return "".join(pieces) or "0"


# ---------------------------------------------------------------------------
# Univariate polynomials over Q


def on_line(p, base, direction):
    """Coefficients in s of p(base + s * direction)."""
    powers = [[[1]] for _ in range(3)]  # powers[i][k]: (b_i + s d_i)^k
    out = [0]
    for e, c in p.items():
        term = [c]
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(_umul(powers[i][-1], [base[i], direction[i]]))
            term = _umul(term, powers[i][k])
        out = [x + y for x, y in _pad(out, term)]
    return _trim(out)


def is_squarefree_of_degree(coeffs, degree):
    """Is the univariate polynomial of exact degree ``degree`` and squarefree?"""
    coeffs = _trim([Fraction(c) for c in coeffs])
    if len(coeffs) != degree + 1:
        return False
    deriv = [c * k for k, c in enumerate(coeffs)][1:]
    return len(_ugcd(coeffs, deriv)) == 1


def _pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _trim(a):
    while len(a) > 1 and not a[-1]:
        a.pop()
    return a


def _umul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _urem(a, b):
    a = list(a)
    while len(a) >= len(b) and any(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, y in enumerate(b):
            a[shift + i] -= q * y
        a.pop()
    return _trim(a) if a else [Fraction(0)]


def _ugcd(a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while any(b):
        a, b = b, _urem(a, b)
    return a
