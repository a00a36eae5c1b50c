"""A ledger of the algebraic identities the library computes by, each proved
once as a polynomial identity in generic entries, with an outside oracle
where one exists."""

from fractions import Fraction

import pytest

from triplecover.etamap import BinaryCubic, binary_cubic_discriminant
from triplecover.polyring import MPoly

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
