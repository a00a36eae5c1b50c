"""Tests for univariate conversion, interpolation and rational roots."""

import ast
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from triplecover import polyring, univar
from triplecover.errors import CommonComponent, IndeterminateCount, TripleCoverError
from triplecover.polyring import MPoly, T_VARS, U_VARS, X_VARS
from triplecover.univar import (
    _simple_roots_mod_p,
    common_points,
    eval_coeffs,
    interpolate,
    rational_roots,
    to_univariate,
)

t = MPoly.variable(T_VARS, "t")


def planted(roots, scale=1, extra=(1,)):
    """Ascending coefficients of scale * extra * prod (x - r)."""
    coeffs = [Fraction(c) * scale for c in extra]
    for r in roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return coeffs


def test_to_univariate_round_trip():
    p = 3 * t ** 2 - t + Fraction(1, 2)
    coeffs = to_univariate(p, "t")
    assert coeffs == [Fraction(1, 2), Fraction(-1), Fraction(3)]
    assert sum(c * t ** k for k, c in enumerate(coeffs)) == p


def test_to_univariate_rejects_other_variables():
    u1 = MPoly.variable(U_VARS, "u1")
    u2 = MPoly.variable(U_VARS, "u2")
    with pytest.raises(TripleCoverError):
        to_univariate(u1 * u2, "u1")


def test_eval_coeffs():
    coeffs = [Fraction(1), Fraction(0), Fraction(2)]  # 1 + 2 t^2
    assert eval_coeffs(coeffs, Fraction(3)) == 19


def test_interpolate_line():
    xs = [Fraction(0), Fraction(1)]
    ys = [Fraction(5), Fraction(7)]
    coeffs = interpolate(xs, ys)
    assert coeffs == [Fraction(5), Fraction(2)]


def test_interpolate_random_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        deg = rng.randint(0, 4)
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(deg + 1)]
        xs = [Fraction(i) for i in range(deg + 1)]
        ys = [eval_coeffs(coeffs, x) for x in xs]
        got = interpolate(xs, ys)
        while got and not got[-1]:
            got.pop()
        want = list(coeffs)
        while want and not want[-1]:
            want.pop()
        assert got == want


def test_rational_roots_integer():
    # (x - 2)(x + 3) = x^2 + x - 6
    roots = rational_roots([Fraction(-6), Fraction(1), Fraction(1)])
    assert roots == [Fraction(-3), Fraction(2)]
    # Roots that collide mod 3, and a leading coefficient divisible by 3 and 5.
    roots = [Fraction(1), Fraction(4), Fraction(7)]
    assert rational_roots(planted(roots)) == roots
    assert rational_roots(planted(roots, scale=15)) == roots


def test_rational_roots_fractional():
    # (2x - 1)(3x + 5)
    roots = rational_roots([Fraction(-5), Fraction(7), Fraction(6)])
    assert set(roots) == {Fraction(1, 2), Fraction(-5, 3)}
    # 40-digit numerators and denominators.
    big = [Fraction(10 ** 39 + 7, 10 ** 40 - 3), Fraction(-(3 ** 84), 2 ** 130 + 1)]
    assert rational_roots(planted(big, extra=(1, 0, 1))) == sorted(big)
    # Nearly coincident roots 10^-30 + k 10^-45 next to x^2 + 1.
    near = [Fraction(1, 10 ** 30) + k * Fraction(1, 10 ** 45) for k in range(3)]
    assert rational_roots(planted(near, extra=(1, 0, 1))) == near
    # Leading coefficient 15 = 3 * 5.
    roots = [Fraction(1, 3), Fraction(2, 5), Fraction(7)]
    assert rational_roots(planted(roots, scale=15)) == roots


def test_rational_roots_with_zero_root():
    # x^2 (x - 4)
    roots = rational_roots([Fraction(0), Fraction(0), Fraction(-4), Fraction(1)])
    assert roots == [Fraction(0), Fraction(4)]


def test_rational_roots_irrational_only():
    # x^2 - 2 has no rational roots
    assert rational_roots([Fraction(-2), Fraction(0), Fraction(1)]) == []


def test_rational_roots_repeated():
    # (x - 1)^3
    roots = rational_roots([Fraction(-1), Fraction(3), Fraction(-3), Fraction(1)])
    assert roots == [Fraction(1)]
    # A double root next to a simple one: (x - 2)^2 (x - 2 - 1/10^6).
    near = Fraction(2) + Fraction(1, 10 ** 6)
    assert rational_roots(planted([2, 2, near])) == [Fraction(2), near]


def test_rational_roots_zero_polynomial_rejected():
    with pytest.raises(TripleCoverError):
        rational_roots([Fraction(0)])


def test_rational_roots_random_products():
    rng = random.Random(21)
    for _ in range(50):
        roots = sorted(
            {Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)}
        )
        assert rational_roots(planted(roots)) == roots


def test_rational_roots_skip_bad_primes():
    # The roots 1, 4, 7 collide mod 3, so the lifting prime is 5.
    assert _simple_roots_mod_p([-28, 39, -12, 1])[0] == 5
    # Leading coefficient 15 = 3 * 5: the prime is 7.
    coeffs = planted([Fraction(1, 3), Fraction(2, 5), Fraction(7)], scale=15)
    assert _simple_roots_mod_p([int(c) for c in coeffs])[0] == 7


P = 2 ** 31 - 1


@pytest.mark.parametrize("roots, scale", [
    # Squarefree over Q with a double root mod P: P^2 divides the
    # discriminant.
    ([1, 1 + P], 1),
    # (P t - 1)(t - 2): P divides the leading coefficient.
    ([Fraction(1, P), 2], P),
    # A planted triple root next to a simple one.
    ([3, 3, 3, -5], 1),
    # Coefficients above 10^40, squarefree.
    ([10 ** 41 + 7, -(10 ** 40) - 3, Fraction(10 ** 42 + 1, 3 ** 30)], 1),
    # Coefficients above 10^40, with a double root.
    ([10 ** 41 + 7, 10 ** 41 + 7, -(10 ** 40) - 3], 1),
])
def test_rational_roots_modular_certificate(monkeypatch, roots, scale):
    """Each planted root comes back once, even where a prime reduction
    would collapse two roots, and ``rational_roots`` takes its squarefree
    part on coefficient lists: no ``MPoly`` gcd runs.  Nor does the
    repeated part of a constant take a gradient gcd."""
    coeffs = planted(roots, scale=scale)
    assert not {"gcd", "squarefree_part", "repeated_part"} & set(vars(univar))
    seen = []
    for name in ("gcd", "squarefree_part", "_gradient_gcd"):
        inner = getattr(polyring, name)
        monkeypatch.setattr(polyring, name,
                            lambda *args, inner=inner: seen.append(args) or inner(*args))
    assert rational_roots(coeffs) == sorted(set(Fraction(r) for r in roots))
    assert polyring.repeated_part(MPoly.constant(T_VARS, 5)) == 1
    assert seen == []


def test_lift_direction():
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    g = x2 ** 2 - x0 * x1

    def lift(h):
        return univar._lift_direction(*(polyring._on_line(polyring._integer_terms(form),
                                                          (1, 4, 0), (0, 0, 1))
                                        for form in (g, h)))

    # On the line (1 : 4 : w2) the conic g meets x2 - x1/2 only at w2 = 2.
    assert lift(2 * x2 - x1) == 2
    # x2 = +-2 both lie on g and on x2^2 - 4 x0^2: two points, no lift.
    assert lift(x2 ** 2 - 4 * x0 ** 2) is None
    # No common point on the line.
    assert lift(x2 - x0) is None


def test_classify_without_mpmath():
    # The package needs no third-party module: block mpmath and classify.
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from triplecover import CoverSpec, TernaryCubic, classify\n"
        "f = TernaryCubic((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))\n"
        "print(classify(CoverSpec.flag(f)).case)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "FlagBundle"


def test_common_points_skips_a_center_on_a_line_through_two_points(monkeypatch):
    """The common points (1 : 0 : 1) and (1 : 0 : -1) share the direction
    (1 : 0) from (0 : 0 : 1), so that center is refused; alone it leaves no
    usable center."""
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    g = x0 ** 2 - x2 ** 2 + x1 * x2
    h = x2 ** 3 - x0 ** 2 * x2 + x1 ** 3
    center, _, elim, points = common_points(g, h)
    assert center != (0, 0, 1)
    assert elim.total_degree() <= 6
    assert sum(mult for _, mult in points) <= 6
    found = {p for p, _ in points}
    assert {(1, 0, 1), (1, 0, -1)} <= found
    for p in found:
        at = dict(zip(X_VARS, p))
        assert not g.evaluate(at) and not h.evaluate(at)
    monkeypatch.setattr(univar, "PROJECTION_CENTERS", ((0, 0, 1),))
    with pytest.raises(IndeterminateCount):
        common_points(g, h)


def test_common_points_rejects_a_shared_component():
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    with pytest.raises(CommonComponent):
        common_points(x0 * x1 + x2 ** 2, (x0 * x1 + x2 ** 2) * (x0 - x2))


def test_only_univar_projects():
    """``common_points`` is the one projection path: no other module of the
    package calls ``project``, ``projected_points``, ``linear_change`` or
    ``_lift_direction``."""
    for path in Path(univar.__file__).parent.glob("*.py"):
        if path.name == "univar.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                assert name not in {"project", "projected_points",
                                    "linear_change", "_lift_direction"}, \
                    (path.name, node.lineno)
