"""Differential tests of the exact kernel against sympy as an oracle."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

from triplecover import univar  # noqa: E402
from triplecover.classify import CoverSpec, _singular_points, classify  # noqa: E402
from triplecover.cover import (  # noqa: E402
    LineRestriction,
    derived_invariants,
    is_line_cover_connected,
)
from triplecover.errors import TripleCoverError  # noqa: E402
from triplecover.etamap import TernaryCubic, eta  # noqa: E402
from triplecover.polyring import (  # noqa: E402
    MPoly,
    T_VARS,
    U_VARS,
    V_VARS,
    X4_VARS,
    X_VARS,
    _integer_terms,
    _on_line,
    gcd,
    homogenize,
    linear_change,
    resultant,
    squarefree_decomposition,
    squarefree_line,
)
from triplecover.univar import rational_roots  # noqa: E402

GENS = {name: sympy.Symbol(name)
        for name in T_VARS + U_VARS + V_VARS + X4_VARS + ("x", "y")}


def to_sympy(p: MPoly):
    gens = [GENS[v] for v in p.vars]
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def proportional(p: MPoly, q):
    """Is the MPoly p a nonzero rational multiple of the sympy Poly q?"""
    mine = to_sympy(p)
    return mine.monic() == sympy.Poly(q, *mine.gens, domain="QQ").monic()


def random_form(rng, vars, deg, span=3):
    return MPoly(vars, {
        e: rng.randint(-span, span)
        for e in itertools.product(range(deg + 1), repeat=len(vars))
        if sum(e) == deg
    })


def random_poly(rng, vars=U_VARS, deg=3, span=4):
    return MPoly(vars, {
        e: rng.randint(-span, span)
        for e in itertools.product(range(deg + 1), repeat=len(vars))
        if sum(e) <= deg and rng.random() < 0.6
    })


def times_root(coeffs, r):
    """Ascending coefficients of (x - r) times the given polynomial."""
    return [(coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
            for i in range(len(coeffs) + 1)]


def sylvester_resultant(p: MPoly, q: MPoly, var):
    """The Sylvester determinant with the p-rows above the q-rows.

    ``sympy.resultant`` is no oracle for the sign: it drops the factor
    (-1)^(dp*dq) when deg p < deg q (sympy 1.14 gives 8 for both
    ``resultant(x + 2, x**3)`` and ``resultant(x**3, x + 2)``).
    """
    matrix = DomainMatrix.from_Matrix(
        sylvester(to_sympy(p).as_expr(), to_sympy(q).as_expr(), GENS[var], 1))
    return matrix.domain.to_sympy(matrix.det())


def nonzero(make):
    while True:
        p = make()
        if not p.is_zero():
            return p


def test_gcd_matches_sympy():
    rng = random.Random(101)
    cases = []
    for vars, count in ((U_VARS, 25), (V_VARS, 4)):
        for _ in range(count):
            common = nonzero(lambda: random_poly(rng, vars, deg=2))
            p = common * nonzero(lambda: random_poly(rng, vars))
            q = common * nonzero(lambda: random_poly(rng, vars))
            cases.append((p, q))
    # Ternary forms of degree 5, the shape of the gradient gcd of a sextic.
    for _ in range(15):
        common = nonzero(lambda: random_form(rng, V_VARS, 2))
        cases.append((common * nonzero(lambda: random_form(rng, V_VARS, 3)),
                      common * nonzero(lambda: random_form(rng, V_VARS, 3))))
    v0, v1, v2 = (MPoly.variable(V_VARS, v) for v in V_VARS)
    common = v0 - v1 + 2 * v2
    cases += [
        # Degrees 7, 4, 2, 1 in v0: gaps of 3, then 2.
        (common * (v0 ** 6 + v1 * v0 + 1), common * (v0 ** 3 + v1)),
        # The last subresultant is (v2 - v1) * (v0 + v1): its content in
        # v1, v2 is not part of the gcd.
        ((v0 + v1) * (v1 * v0 + 1), (v0 + v1) * (v2 * v0 + 1)),
    ]
    # Contents in the first variable that are a non-unit integer, a
    # Fraction, or a polynomial in the other variables.
    for vars in (U_VARS, V_VARS):
        rest = MPoly.variable(vars, vars[-1])
        for scale_p, scale_q in ((6, -4), (Fraction(2, 3), Fraction(-5, 7)),
                                 ((rest - 2) * (rest + 1), 3 * (rest - 2) * rest)):
            common = nonzero(lambda: random_poly(rng, vars, deg=1))
            cases.append((scale_p * common * nonzero(lambda: random_poly(rng, vars, deg=2)),
                          scale_q * common * nonzero(lambda: random_poly(rng, vars, deg=2))))
    for p, q in cases:
        assert proportional(gcd(p, q), sympy.gcd(to_sympy(p), to_sympy(q)))


def test_resultant_matches_sympy():
    rng = random.Random(102)
    cases = []
    for vars, var in ((U_VARS, "u2"), (V_VARS, "v2")):
        for _ in range(10):
            p = nonzero(lambda: random_poly(rng, vars, deg=3))
            q = nonzero(lambda: random_poly(rng, vars, deg=2))
            if p.degree_in(var) < 1 or q.degree_in(var) < 1:
                continue
            cases.append((p, q, var))
    u1, u2 = (MPoly.variable(U_VARS, v) for v in U_VARS)
    x0, x1, x2, x3 = (MPoly.variable(X4_VARS, v) for v in X4_VARS)
    g2 = x0 * x1 - x2 ** 2 + 2 * x1 * x2
    g3 = x2 ** 3 - x0 ** 3 + x0 * x1 * x2
    surface = x3 ** 3 + 3 * g2 * x3 + 2 * g3
    cases += [
        # q of higher degree than p, both odd: Res(q, p) = -Res(p, q).
        (u1 * u2 + 2, u2 ** 3 - u1 * u2 + 3, "u2"),
        # Degree gaps of 3, then 2 (u2^6 = u1^2 mod u2^3 + u1).
        (u2 ** 6 + u1 * u2 + 1, u2 ** 3 + u1, "u2"),
        # A remainder step that cancels two degrees at once.
        (u2 ** 4, u1 * u2 ** 2 + 1, "u2"),
        (u1 * u2 ** 2 + 1, u2 ** 4, "u2"),
        # The x3-discriminant of a cubic surface x3^3 + 3 G2 x3 + 2 G3.
        (surface, surface.partial_derivative("x3"), "x3"),
        # A common factor: the resultant is zero.
        ((u1 - u2) * (u2 ** 2 + u1), (u1 - u2) * (u2 + 3), "u2"),
        # One argument constant in var: Res = p^dq or q^dp.
        (u1 + 2, u2 ** 3 + u1 * u2 + 1, "u2"),
        (MPoly.constant(U_VARS, Fraction(-2, 3)), u1 * u2 ** 2 + 3, "u2"),
        (u2 ** 2 + u1, u1 ** 2 - 3, "u2"),
        (u2 ** 3 - u1 * u2, MPoly.constant(U_VARS, Fraction(5, 2)), "u2"),
    ]
    for p, q, var in cases:
        want = sylvester_resultant(p, q, var)
        got = resultant(p, q, var)
        assert sympy.expand(to_sympy(got).as_expr() - want) == 0
    with pytest.raises(TripleCoverError):
        resultant(u1 + 1, MPoly.constant(U_VARS, Fraction(1, 2)), "u2")


def test_squarefree_decomposition_matches_sympy():
    rng = random.Random(103)
    for _ in range(15):
        p = MPoly.constant(V_VARS, rng.randint(1, 5))
        for mult, deg in ((1, 2), (2, 2), (3, 2)):
            if rng.random() < 0.7:
                p = p * nonzero(lambda: random_form(rng, V_VARS, rng.randint(1, deg))) ** mult
        if p.is_constant():
            continue
        dec = squarefree_decomposition(p)
        assert dec.reassemble(V_VARS) == p
        _, oracle = sympy.sqf_list(to_sympy(p))
        by_mult = {m: f for f, m in oracle}
        assert sorted(m for _, m in dec.parts) == sorted(by_mult)
        for factor, mult in dec.parts:
            assert proportional(factor, by_mult[mult])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    shape=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                   min_size=1, max_size=4),
    span=st.sampled_from([3, 10 ** 40]),
)
def test_squarefree_line_agrees_with_sympy(seed, shape, span):
    """A form of degree d up to 6, with coefficients up to 10^40, that a
    line certifies is squarefree for sympy, and so is its restriction
    B(1, t) to that line, of degree at least d - 1."""
    rng = random.Random(seed)
    p = MPoly.constant(V_VARS, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    for deg, mult in shape:
        if p.total_degree() + deg * mult <= 6:
            p = p * nonzero(lambda: random_form(rng, V_VARS, deg, span)) ** mult
    _, factors = sympy.sqf_list(to_sympy(p))
    squarefree = all(m == 1 for _, m in factors)
    line = squarefree_line(p)
    if line is not None:
        assert squarefree
        a, b = line
        t = GENS["t"]
        at = dict(zip((GENS[v] for v in V_VARS), (1, t, a + b * t)))
        restricted = sympy.Poly(to_sympy(p).as_expr().subs(at, simultaneous=True), t)
        assert restricted.degree() >= p.total_degree() - 1
        assert restricted.is_sqf


def univariate_roots_oracle(coeffs):
    x = GENS["x"]
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], x, domain="QQ")
    _, factors = poly.factor_list()
    roots = set()
    for f, _ in factors:
        if f.degree() == 1:
            a, b = f.all_coeffs()
            r = -b / a
            roots.add(Fraction(int(r.p), int(r.q)))
    return sorted(roots)


def test_rational_roots_match_sympy():
    rng = random.Random(104)
    for _ in range(40):
        deg = rng.randint(1, 8)
        coeffs = [Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(deg)]
        coeffs.append(Fraction(rng.randint(1, 12)))
        if rng.random() < 0.5:
            # Plant a rational root so that most cases have some.
            coeffs = times_root(coeffs, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        assert rational_roots(coeffs) == univariate_roots_oracle(coeffs)


def singular_points_oracle(p: MPoly):
    """The rational solutions of grad p = 0 in P^2 that sympy finds, chart by
    chart: (1, y, z), then (0, 1, z), then (0, 0, 1)."""
    gens = [GENS[v] for v in p.vars]
    expr = to_sympy(p).as_expr()
    gradient = [sympy.diff(expr, g) for g in gens]
    points = set()
    for k in range(3):
        fixed = dict(zip(gens, [0] * k + [1]))
        free = gens[k + 1:]
        equations = [e for e in (d.subs(fixed) for d in gradient) if e != 0]
        if not free:
            solutions = [()] if not equations else []
        else:
            solutions = sympy.solve_poly_system(equations, *free) or []
        for solution in solutions:
            if all(c.is_Rational for c in solution):
                points.add((Fraction(0),) * k + (Fraction(1),) + tuple(
                    Fraction(int(c.p), int(c.q)) for c in solution))
    return points


def _witness_key(point):
    """The first nonzero coordinate's position, then the coordinates in
    descending order."""
    return next(i for i, c in enumerate(point) if c), [-c for c in point]


def _random_singular_cubic(rng, kind):
    """A reduced cubic: a line times a conic, three lines, or a nodal or
    cuspidal cubic singular at a random rational point p, built as
    q(l1, l2) * l3 + c(l1, l2) for lines l1, l2 through p."""
    if kind == 0:
        return random_form(rng, V_VARS, 1) * random_form(rng, V_VARS, 2)
    if kind == 1:
        return random_form(rng, V_VARS, 1) * random_form(rng, V_VARS, 1) \
            * random_form(rng, V_VARS, 1)
    p = [rng.randint(-3, 3) for _ in range(3)]
    v = [MPoly.variable(V_VARS, x) for x in V_VARS]

    def through_p():
        r = [rng.randint(-3, 3) for _ in range(3)]
        c = (p[1] * r[2] - p[2] * r[1], p[2] * r[0] - p[0] * r[2],
             p[0] * r[1] - p[1] * r[0])
        return sum((ci * vi for ci, vi in zip(c, v)), MPoly.zero(V_VARS))

    l1, l2, l3 = through_p(), through_p(), random_form(rng, V_VARS, 1)
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    quadric = (a * l1 + b * l2) ** 2 if kind == 3 else (a * l1 + b * l2) * l1 - l2 ** 2
    cubic = sum((rng.randint(-3, 3) * l1 ** i * l2 ** (3 - i) for i in range(4)),
                MPoly.zero(V_VARS))
    return quadric * l3 + cubic


def test_singular_points_match_sympy():
    """The rational singular points that the projection keeps are exactly
    sympy's, and the witness is the least of them, or None.  Each cubic is
    checked again in a random rational frame, where its coefficients are
    not all integers."""
    rng, frames = random.Random(105), random.Random(108)
    checked = 0
    while checked < 40:
        p = _random_singular_cubic(rng, checked % 4)
        if p.is_zero() or p.total_degree() != 3 \
                or any(m > 1 for _, m in sympy.sqf_list(to_sympy(p))[1]):
            continue
        # Lower triangular with a nonzero diagonal, so invertible.
        frame = [[Fraction(frames.randint(1, 3), frames.randint(2, 5)) if j == i
                  else Fraction(frames.randint(-2, 2), frames.randint(1, 3)) if j < i else 0
                  for j in range(3)] for i in range(3)]
        rational = linear_change(p, frame)
        assert any(c.denominator > 1 for c in TernaryCubic.from_poly(rational).t)
        for form in (p, rational):
            expected = singular_points_oracle(form)
            got = _singular_points(TernaryCubic.from_poly(form), _sextic(form))
            assert set(got) == expected and len(got) == len(expected)
            assert got == sorted(expected, key=_witness_key)
            report = classify(CoverSpec.flag(TernaryCubic.from_poly(form)))
            assert report.certificates.get("singular_point") == \
                min(expected, key=_witness_key, default=None)
        checked += 1


def _sextic(p: MPoly):
    """The branch sextic homogenize(D_f, 6) that ``classify`` reads the
    witness off, or None when D_f = 0."""
    D = derived_invariants(eta(TernaryCubic.from_poly(p))).D
    return None if D.is_zero() else homogenize(D, 6, X_VARS)


def _random_frame(rng):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        if sympy.Matrix(m).det():
            return m


def test_double_line_witness_matches_sympy():
    """For f = l^2 m (D_f = 0), l^3 included, the one point is where
    sympy's repeated factor l = a*v0 + b*v1 + c*v2 meets v2 = 0, that is
    (-b : a : 0), or (1 : 0 : 0) when l = v2, and the report's witness."""
    rng = random.Random(106)
    v = [MPoly.variable(V_VARS, x) for x in V_VARS]
    checked = 0
    while checked < 24:
        l, m = (random_form(rng, V_VARS, 1) for _ in range(2))
        if checked % 4 == 1:
            m = l  # a triple line
        if checked % 4 == 2:
            l = v[2]
        if checked % 4 == 3:
            l = rng.randint(1, 3) * v[0] + rng.randint(-3, 3) * v[1]  # through (0 : 0 : 1)
        p = l ** 2 * m
        if p.total_degree() != 3:
            continue
        assert _sextic(p) is None
        (repeated,) = [q for q, k in sympy.sqf_list(to_sympy(p))[1] if k > 1]
        a, b = (Fraction(str(repeated.coeff_monomial(GENS[x]))) for x in ("v0", "v1"))
        expected = (-b, a, 0) if a or b else (1, 0, 0)
        pivot = next(c for c in expected if c)
        expected = tuple(Fraction(c) / pivot for c in expected)
        got = _singular_points(TernaryCubic.from_poly(p), None)
        assert got == [expected]
        report = classify(CoverSpec.flag(TernaryCubic.from_poly(p)))
        assert report.certificates["singular_point"] == expected
        checked += 1


def test_conjugate_singular_points_have_no_rational_witness():
    """A smooth conic times a line that meets it in two conjugate points,
    and three lines conjugate over Q(2^(1/3)), in random integer frames:
    sympy finds no rational singular point, nor does the search, and the
    report says that no witness is rational."""
    rng = random.Random(107)
    v0, v1, v2 = (MPoly.variable(V_VARS, x) for x in V_VARS)
    shapes = [(v0 ** 2 + n * v1 ** 2 - v2 ** 2) * v2 for n in (1, 2, 3, 5)]
    shapes.append(v0 ** 3 + 2 * v1 ** 3 + 4 * v2 ** 3 - 6 * v0 * v1 * v2)
    for shape in shapes:
        for _ in range(3):
            p = linear_change(shape, _random_frame(rng))
            assert singular_points_oracle(p) == set()
            assert _singular_points(TernaryCubic.from_poly(p), _sextic(p)) == []
            report = classify(CoverSpec.flag(TernaryCubic.from_poly(p)))
            assert report.case == "NotNormal"
            assert "singular_point" not in report.certificates
            assert report.notes == ["dual cubic is singular (no rational witness)"]


def polynomial_roots_oracle(quad: MPoly, const: MPoly):
    """The roots in Q[t] of y^3 + quad*y + const, read off the factors of
    degree 1 in y that sympy finds over Q[t, y]; a monic cubic has only
    monic factors up to a constant, so each gives a polynomial root."""
    t, y = GENS["t"], GENS["y"]
    cubic = y ** 3 + to_sympy(quad).as_expr() * y + to_sympy(const).as_expr()
    roots = []
    for factor, _ in sympy.factor_list(cubic, t, y, domain="QQ")[1]:
        linear = sympy.Poly(factor, y)
        if linear.degree() == 1:
            roots.append(sympy.expand(-linear.nth(0) / linear.nth(1)))
    return roots


def _random_resolvent(rng, kind, deg):
    """(quad, const) of a resolvent of the given kind, roots of degree up to
    deg: split (y - a)(y - b)(y + a + b), one root (y - r)(y^2 + r*y + s),
    a zero discriminant (y - a)^2 (y + 2a), or random of degree up to 6."""
    def poly(d):
        return random_poly(rng, T_VARS, d, span=3)

    if kind == "split":
        a, b = poly(deg), poly(deg)
        return a * b - (a + b) ** 2, a * b * (a + b)
    if kind == "one":
        r, s = poly(deg), poly(2 * deg)
        return s - r * r, -r * s
    if kind == "zero":
        a = poly(deg)
        return -3 * a * a, 2 * a ** 3
    return poly(6), poly(6)


def test_polynomial_root_search_matches_sympy():
    """The connectivity witness is sympy's least root in Q[t] by its values
    at 0, 1, -1, 2, ..., or None when sympy finds no root.  The last case
    splits with roots of degree 8."""
    rng = random.Random(106)
    samples = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5]
    t, zero, one = (MPoly.variable(T_VARS, "t"), MPoly.zero(T_VARS),
                    MPoly.constant(T_VARS, 1))
    a = 2 * t ** 8 - t ** 5 + 3 * t - 1
    b = -(t ** 8) + t ** 7 + 2
    cases = [_random_resolvent(rng, kind, 2)
             for kind in ("split", "one", "zero", "random") * 10]
    cases.append((a * b - (a + b) ** 2, a * b * (a + b)))
    for quad, const in cases:
        if quad.is_zero() and const.is_zero():
            continue
        roots = polynomial_roots_oracle(quad, const)
        verdict = is_line_cover_connected(
            LineRestriction(zero, one, -const, quad / 3))
        if not roots:
            assert (verdict.status, verdict.witness_root) == ("connected", None)
            continue
        least = min(roots, key=lambda r: [r.subs(GENS["t"], x) for x in samples])
        assert verdict.status == "disconnected"
        assert to_sympy(verdict.witness_root).as_expr() == least


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                max_denominator=10 ** 4), min_size=1, max_size=5),
    repeats=st.lists(st.integers(0, 3), min_size=5, max_size=5),
    scale=st.fractions(min_value=Fraction(1, 100), max_value=100).filter(bool),
    free=st.integers(1, 50),
)
def test_rational_roots_finds_planted(roots, repeats, scale, free):
    # scale * (x^2 + free) * prod (x - r)^(1 + repeat): the planted roots
    # and nothing else, since x^2 + free has no real roots.
    coeffs = [scale * free, Fraction(0), scale]
    for r, extra in zip(roots, repeats):
        for _ in range(1 + extra):
            coeffs = times_root(coeffs, r)
    assert rational_roots(coeffs) == sorted(set(roots))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), repeated=st.booleans())
def test_squarefree_mod_p_agrees_with_sympy(seed, repeated):
    """A random integer polynomial of degree up to 12, with a planted
    repeated factor in half the cases: its rational roots are sympy's."""
    rng = random.Random(seed)

    def factor(deg):
        coeffs = [Fraction(rng.randint(-20, 20)) for _ in range(deg)]
        return coeffs + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))]

    coeffs = factor(rng.randint(0, 6))
    if repeated:
        root = factor(rng.randint(1, 3))
        coeffs = times(coeffs, times(root, root))
    else:
        coeffs = times(coeffs, factor(rng.randint(1, 6)))
    assert rational_roots(coeffs) == univariate_roots_oracle(coeffs)


def times(a, b):
    """The product of two ascending coefficient lists."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def to_sympy_univariate(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(coeffs)], GENS["x"], domain="QQ")


def monic_coeffs(poly):
    """The ascending coefficients of a nonzero sympy Poly made monic."""
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.monic().all_coeffs())]


def test_list_gcd_and_squarefree_part_match_sympy():
    """``univar._gcd`` is sympy's gcd, and the squarefree part that
    ``rational_roots`` lifts from is sympy's ``sqf_part``, both up to a
    scalar, on products with planted common and repeated factors and
    coefficients up to 10^40."""
    rng = random.Random(116)

    def factor(deg, height):
        return [Fraction(rng.randint(-height, height), rng.randint(1, height))
                for _ in range(deg)] + [Fraction(rng.randint(1, height))]

    def monic(coeffs):
        return [Fraction(c) / coeffs[-1] for c in coeffs]

    for _ in range(30):
        common = factor(rng.randint(0, 3), 10 ** 40)
        a = times(common, factor(rng.randint(0, 4), 50))
        b = times(common, factor(rng.randint(0, 4), 50))
        assert monic(univar._gcd(a, b)) == monic_coeffs(
            sympy.gcd(to_sympy_univariate(a), to_sympy_univariate(b)))
        p = factor(rng.randint(0, 3), 10 ** 40)
        for _ in range(rng.randint(1, 3)):
            repeated = factor(rng.randint(1, 2), 10 ** 40)
            for _ in range(rng.randint(1, 3)):
                p = times(p, repeated)
        if len(p) == 1:
            continue
        with mock.patch.object(univar, "_simple_roots_mod_p",
                               wraps=univar._simple_roots_mod_p) as lifted:
            rational_roots(p)
        (sqfree,), _ = lifted.call_args
        assert monic(sqfree) == monic_coeffs(sympy.sqf_part(to_sympy_univariate(p)))


@pytest.mark.parametrize("kind", ["transversal", "tangent", "two points", "conjugate"])
def test_lift_direction_matches_sympy(kind):
    """On the line through (0 : 0 : 1) and (w0 : w1 : 0) the forms
    g = m A + l B and h = m A' + l B' meet where m does, l being the line's
    equation: once transversally or tangentially, or at two points.  The
    lift returns x2 exactly when sympy's squarefree gcd of g and h on the
    line is linear, and that is its root."""
    rng = random.Random(kind)
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    for _ in range(10):
        w0, w1 = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
        r1 = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        m1, m2 = w0 * x2 - r1 * x0, w0 * x2 - (r1 + rng.randint(1, 9)) * x0
        m = {"transversal": m1, "tangent": m1 ** 2, "two points": m1 * m2,
             "conjugate": x2 ** 2 + rng.randint(1, 5) ** 2 * 2 * x0 ** 2}[kind]
        line = w1 * x0 - w0 * x1
        forms = [m * random_form(rng, X_VARS, 1) + line * random_form(rng, X_VARS, m.total_degree())
                 for _ in range(2)]
        at = {"x0": w0, "x1": w1, "x2": GENS["x2"]}
        on_line = [sympy.Poly(to_sympy(f).as_expr().subs(at), GENS["x2"]) for f in forms]
        if any(p.degree() < f.total_degree() for p, f in zip(on_line, forms)):
            continue  # (0 : 0 : 1) lies on a form
        common = sympy.sqf_part(sympy.gcd(*on_line))
        want = -common.all_coeffs()[1] / common.LC() if common.degree() == 1 else None
        got = univar._lift_direction(*(_on_line(_integer_terms(f), (w0, w1, 0), (0, 0, 1))
                                       for f in forms))
        assert got == want
        if kind in ("transversal", "tangent"):
            assert got == r1
        else:
            assert got is None
