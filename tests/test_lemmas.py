"""A ledger of the algebraic identities the library computes by, each proved
once as a polynomial identity in generic entries, with an outside oracle
where one exists."""

from fractions import Fraction

import pytest

from triplecover.cover import AffineCoverData, derived_invariants
from triplecover.etamap import (_MONOMIALS, BinaryCubic, TernaryCubic, binary_cubic_discriminant,
                                eta, fiber_binary_cubic, hessian_covariant)
from triplecover.polyring import V_VARS, MPoly

PQRS = ("p", "q", "r", "s")
GENERIC = BinaryCubic(*(MPoly.variable(PQRS, v) for v in PQRS))

# 18pqrs - 4q^3 s + q^2 r^2 - 4p r^3 - 27 p^2 s^2, term by term.
EXPANDED = MPoly(PQRS, {(1, 1, 1, 1): 18, (0, 3, 0, 1): -4, (0, 2, 2, 0): 1,
                        (1, 0, 3, 0): -4, (2, 0, 0, 2): -27})


def test_cubic_discriminant_is_read_off_the_hessian():
    """disc(p x^3 + q x^2 y + r x y^2 + s y^3) = (4 h0 h2 - h1^2) / 3 with
    (h0, h1, h2) = (3pr - q^2, 9ps - qr, 3qs - r^2), in Z[p, q, r, s]."""
    disc = binary_cubic_discriminant(GENERIC)
    assert disc == EXPANDED
    assert all(c.denominator == 1 for c in disc.terms.values())


def test_cubic_discriminant_of_integers_is_exact():
    p, q, r, s = 3, 5, -7, 10 ** 12 + 1
    expanded = (18 * p * q * r * s - 4 * q ** 3 * s + q ** 2 * r ** 2
                - 4 * p * r ** 3 - 27 * p ** 2 * s ** 2)
    assert binary_cubic_discriminant(BinaryCubic(p, q, r, s)) == expanded


def test_cubic_discriminant_against_sympy():
    sympy = pytest.importorskip("sympy")
    p, q, r, s, x = sympy.symbols("p q r s x")
    oracle = sympy.Poly(sympy.discriminant(p * x ** 3 + q * x ** 2 + r * x + s, x),
                        p, q, r, s)
    mine = binary_cubic_discriminant(GENERIC).terms
    assert {e: Fraction(int(c)) for e, c in oracle.terms()} == mine


# The cover data as one binary cubic, phi = (b, -3a, 3d, -c).
ABCD = ("a", "b", "c", "d")


def _phi(cov):
    return BinaryCubic(cov.b, -3 * cov.a, 3 * cov.d, -cov.c)


@pytest.mark.parametrize("index", range(10))
def test_eta_as_a_binary_cubic_is_minus_the_fiber(index):
    """phi(eta(f)) = -fiber_binary_cubic(f): both sides are linear in the ten
    coefficients of f, so the ten monomial cubics prove it.  The fiber is f
    substituted on the dual line of (1 : u1 : u2), a route that does not go
    through ``eta``'s term table."""
    f = TernaryCubic(tuple(int(i == index) for i in range(10)))
    fiber = fiber_binary_cubic(f)
    assert _phi(eta(f)).entries() == tuple(-e for e in fiber.entries())


def test_discriminant_of_phi_is_minus_27_D():
    """disc(b x^3 - 3a x^2 + 3d x - c) = -27 (B^2 - 4AC) in Z[a, b, c, d],
    with A = a^2 - bd, B = ad - bc, C = d^2 - ac as ``derived_invariants``
    builds them: with the fact above, delta_f = -27 D_f for every f."""
    cov = AffineCoverData(*(MPoly.variable(ABCD, v) for v in ABCD))
    disc = binary_cubic_discriminant(_phi(cov))
    assert disc == -27 * derived_invariants(cov).D
    assert all(c.denominator == 1 for c in disc.terms.values())
    sympy = pytest.importorskip("sympy")
    a, b, c, d, x = sympy.symbols("a b c d x")
    oracle = sympy.Poly(sympy.discriminant(b * x ** 3 - 3 * a * x ** 2 + 3 * d * x - c, x),
                        a, b, c, d)
    assert {e: Fraction(int(k)) for e, k in oracle.terms()} == disc.terms
    A, B, C = a * a - b * d, a * d - b * c, d * d - a * c
    assert sympy.expand(oracle.as_expr() + 27 * (B ** 2 - 4 * A * C)) == 0


def test_hessian_of_phi_is_the_derived_invariants():
    """Hess(phi) = (-9A, 9B, -9C) in Z[a, b, c, d]: phi is a nonzero perfect
    cube exactly when A = B = C = 0 with a, b, c, d not all zero, the rule
    ``is_total_branch_point`` reads at a point.  The oracle is the Hessian
    determinant of phi, -36 (A x^2 - B x y + C y^2)."""
    cov = AffineCoverData(*(MPoly.variable(ABCD, v) for v in ABCD))
    inv = derived_invariants(cov)
    assert hessian_covariant(_phi(cov)) == (-9 * inv.A, 9 * inv.B, -9 * inv.C)
    sympy = pytest.importorskip("sympy")
    a, b, c, d, x, y = sympy.symbols("a b c d x y")
    phi = b * x ** 3 - 3 * a * x ** 2 * y + 3 * d * x * y ** 2 - c * y ** 3
    A, B, C = a * a - b * d, a * d - b * c, d * d - a * c
    hess = sympy.hessian(phi, (x, y)).det()
    assert sympy.expand(hess + 36 * (A * x ** 2 - B * x * y + C * y ** 2)) == 0


def test_derivative_along_a_line_is_the_polar():
    """d/ds f(P + s Q) = sum Q_i (df/dv_i)(P + s Q) for a generic cubic f and
    generic P, Q: on the line P + s q, the derivative F' of F = f(P + s q)
    is the polar of f at q, the pair the singular-point witness lifts with."""
    coeffs = tuple("t%d" % n for n in range(1, 11))
    points = ("p0", "p1", "p2", "q0", "q1", "q2", "s")
    ring = coeffs + points
    var = {v: MPoly.variable(ring, v) for v in ring}
    # f = sum t_n m_n over the ten cubic monomials m_n of (v0, v1, v2).
    f = MPoly(coeffs + V_VARS, {tuple(int(k == n) for k in range(10)) + exps: 1
                                for n, (exps, _) in enumerate(_MONOMIALS)})
    line = {c: var[c] for c in coeffs}
    line.update({v: var["p%d" % i] + var["s"] * var["q%d" % i] for i, v in enumerate(V_VARS)})
    polar = sum((var["q%d" % i] * f.partial_derivative(v).substitute(line, ring)
                 for i, v in enumerate(V_VARS)), MPoly.zero(ring))
    assert f.substitute(line, ring).partial_derivative("s") == polar
    assert not polar.is_zero()
