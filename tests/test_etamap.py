"""Tests for ternary cubics, the eta map and the cusp locus machinery."""

import random
from fractions import Fraction

import pytest

from triplecover import univar
from triplecover.cover import derived_invariants
from triplecover.errors import (
    DegenerateCover,
    DegenerateCubic,
    NotSmooth,
)
from triplecover.etamap import (
    BinaryCubic,
    TernaryCubic,
    binary_cubic_discriminant,
    delta_f,
    eta,
    fiber_binary_cubic,
    hessian_covariant,
    is_perfect_cube,
    is_smooth_cubic,
    total_branch_locus,
    verify_discrim_lemma,
)
from triplecover.polyring import MPoly, U_VARS, V_VARS

FERMAT = TernaryCubic((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))

u1 = MPoly.variable(U_VARS, "u1")
u2 = MPoly.variable(U_VARS, "u2")
one = MPoly.constant(U_VARS, 1)

v0 = MPoly.variable(V_VARS, "v0")
v1 = MPoly.variable(V_VARS, "v1")
v2 = MPoly.variable(V_VARS, "v2")


def random_cubic(rng, span=10):
    return TernaryCubic(tuple(Fraction(rng.randint(-span, span)) for _ in range(10)))


def test_ternary_cubic_poly_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        f = random_cubic(rng)
        assert TernaryCubic.from_poly(f.as_poly()).t == f.t


def test_fermat_as_poly():
    assert FERMAT.as_poly() == v0 ** 3 + v1 ** 3 + v2 ** 3


def test_eta_fermat():
    cov = eta(FERMAT)
    assert cov.a == -u1 ** 2 * u2
    assert cov.b == u1 ** 3 - one
    assert cov.c == one - u2 ** 3
    assert cov.d == u1 * u2 ** 2


def test_eta_rejects_zero_cubic():
    with pytest.raises(DegenerateCubic):
        eta(TernaryCubic((0,) * 10))


def test_fiber_binary_cubic_fermat():
    bc = fiber_binary_cubic(FERMAT)
    assert bc.p == one - u1 ** 3
    assert bc.q == -3 * u1 ** 2 * u2
    assert bc.r == -3 * u1 * u2 ** 2
    assert bc.s == one - u2 ** 3


def _fiber_at(f, a, b):
    """The symbolic fiber cubic evaluated at the chart point (u1, u2) = (a, b)."""
    return BinaryCubic(*(e.evaluate({"u1": a, "u2": b})
                         for e in fiber_binary_cubic(f).entries()))


def test_fiber_binary_cubic_at_point():
    # At (1, 0) the Fermat fiber cubic is v2^3.
    assert _fiber_at(FERMAT, 1, 0).entries() == (0, 0, 0, 1)


def test_binary_cubic_discriminant_formula():
    # Discriminant of (v1 - v2)(v1 - 2 v2)(v1 - 3 v2): product of squared
    # root differences is (1)^2 (2)^2 (1)^2 = 4.
    bc = BinaryCubic(one, -6 * one, 11 * one, -6 * one)
    assert binary_cubic_discriminant(bc) == MPoly.constant(U_VARS, 4)


def test_discrim_lemma_fermat():
    cert = verify_discrim_lemma(FERMAT)
    assert cert.lam == Fraction(-27)
    assert cert.delta_f == -27 * cert.D_f


def test_discrim_lemma_three_point_ratio_oracle():
    """delta_f / D_f sampled at three points agrees with lambda = -27."""
    rng = random.Random(23)
    checked = 0
    while checked < 5:
        f = random_cubic(rng)
        if f.is_zero():
            continue
        try:
            D = derived_invariants(eta(f)).D
        except DegenerateCubic:
            continue
        if D.is_zero():
            continue
        delta = delta_f(f)
        hits = 0
        for pt in ((0, 0), (1, 2), (-1, 3), (2, 5), (3, -1)):
            at = {"u1": Fraction(pt[0]), "u2": Fraction(pt[1])}
            dv = D.evaluate(at)
            if dv:
                assert delta.evaluate(at) / dv == -27
                hits += 1
        if hits:
            checked += 1


def test_discrim_lemma_random_lambda_constant():
    rng = random.Random(31)
    checked = 0
    while checked < 10:
        f = random_cubic(rng)
        if f.is_zero():
            continue
        try:
            cert = verify_discrim_lemma(f)
        except (DegenerateCover, DegenerateCubic):
            continue
        assert cert.lam == -27
        checked += 1


def test_hessian_covariant_perfect_cube():
    # (u1 v1 + v2)^3 has vanishing Hessian covariant.
    bc = BinaryCubic(u1 ** 3, 3 * u1 ** 2, 3 * u1, one)
    assert is_perfect_cube(bc)
    h = hessian_covariant(bc)
    assert all(x.is_zero() for x in h)


def test_hessian_covariant_non_cube():
    bc = BinaryCubic(one, MPoly.zero(U_VARS), MPoly.zero(U_VARS), one)
    assert not is_perfect_cube(bc)


def test_zero_cubic_is_not_perfect_cube():
    z = MPoly.zero(U_VARS)
    assert not is_perfect_cube(BinaryCubic(z, z, z, z))


def test_perfect_cube_of_numbers():
    # The entries may be numbers: (s - 2t)^3, (s/2 - t)^3 and -2/3 t^3 are
    # cubes, s^3 + t^3 and a perturbed (s/2 - t)^3 are not.
    assert is_perfect_cube(BinaryCubic(1, -6, 12, -8))
    assert is_perfect_cube(BinaryCubic(Fraction(1, 8), Fraction(-3, 4), Fraction(3, 2), -1))
    assert is_perfect_cube(BinaryCubic(0, 0, 0, Fraction(-2, 3)))
    assert not is_perfect_cube(BinaryCubic(1, 0, 0, 1))
    assert not is_perfect_cube(BinaryCubic(Fraction(1, 8), Fraction(-3, 4), 1, -1))
    assert not is_perfect_cube(BinaryCubic(0, 0, 0, 0))


def test_smoothness_fermat():
    assert is_smooth_cubic(FERMAT)


def test_smoothness_triangle():
    # v0*v1*v2 is singular at the three coordinate points.
    triangle = TernaryCubic.from_poly(v0 * v1 * v2)
    assert not is_smooth_cubic(triangle)


def test_smoothness_cuspidal():
    # v0^3 - v1^2 v2 has a cusp at (0 : 0 : 1).
    cusp = TernaryCubic.from_poly(v0 ** 3 - v1 ** 2 * v2)
    assert not is_smooth_cubic(cusp)


def test_smoothness_nodal():
    # v1^3 + v2^3 + v0 v1 v2 is nodal at (1 : 0 : 0).
    nodal = TernaryCubic.from_poly(v1 ** 3 + v2 ** 3 + v0 * v1 * v2)
    assert not is_smooth_cubic(nodal)


@pytest.mark.parametrize("form", [
    (v0 * v2 - v1 ** 2) * (v0 - v2),
    (v0 * v2 - v1 ** 2) * v2,
    v0 * v1 * (v0 + v1),
    v0 ** 2 * v1,
    v0 ** 3,
], ids=["conic_line", "conic_tangent", "concurrent_lines", "double_line",
        "triple_line"])
def test_smoothness_classical_singular(form):
    assert not is_smooth_cubic(TernaryCubic.from_poly(form))


def test_total_branch_locus_fermat():
    locus = total_branch_locus(FERMAT)
    assert locus.count == 9
    pts = set(locus.rational_points)
    assert pts == {
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
    }


CLASSICAL_SINGULAR = (
    v1 ** 3 + v2 ** 3 + v0 * v1 * v2,  # nodal
    v0 ** 3 - v1 ** 2 * v2,  # cuspidal
    (v0 * v2 - v1 ** 2) * (v0 - v2),  # conic and line
    (v0 * v2 - v1 ** 2) * v2,  # conic and tangent
    v0 * v1 * v2,  # triangle
    v0 * v1 * (v0 + v1),  # concurrent lines
    v0 ** 2 * v1 + v0 ** 2 * v2,  # double line
    (v0 + 2 * v1 - v2) ** 3,  # triple line
)


def test_total_branch_locus_rejects_singular(monkeypatch):
    """Every classical singular cubic, cones (Hess(f) = 0) included, raises
    NotSmooth with one message; they and the zero cubic are rejected before
    any projection."""
    projections = []
    inner = univar.project
    monkeypatch.setattr(univar, "project",
                        lambda g, h, c: projections.append(c) or inner(g, h, c))
    for form in CLASSICAL_SINGULAR:
        with pytest.raises(NotSmooth, match="^the cubic is singular$"):
            total_branch_locus(TernaryCubic.from_poly(form))
    with pytest.raises(DegenerateCubic):
        total_branch_locus(TernaryCubic((0,) * 10))
    assert projections == []
    total_branch_locus(FERMAT)
    assert projections


def test_total_branch_locus_perturbed_fermat():
    """A second smooth cubic still has exactly nine perfect-cube fibers."""
    f = TernaryCubic.from_poly(v0 ** 3 + v1 ** 3 + v2 ** 3 + 3 * v0 * v1 * v2)
    assert is_smooth_cubic(f)
    locus = total_branch_locus(f)
    assert locus.count == 9


def test_locus_points_have_cube_fibers():
    locus = total_branch_locus(FERMAT)
    for x0, x1, x2 in locus.rational_points:
        if x0:
            assert is_perfect_cube(_fiber_at(FERMAT, x1 / x0, x2 / x0))


def test_reducibility_witness_divides_resolvent():
    """t7..t10 = 0 forces the planted linear root of the z-resolvent."""
    from triplecover.cover import resolvent_cubic
    from triplecover.polyring import UZW_VARS, divides

    rng = random.Random(53)
    checked = 0
    while checked < 10:
        t = [Fraction(rng.randint(-10, 10)) for _ in range(6)] + [Fraction(0)] * 4
        f = TernaryCubic(tuple(t))
        if f.is_zero():
            continue
        cov = eta(f)
        if cov.b.is_zero():
            continue
        cubic = resolvent_cubic(cov, "z").as_poly()
        w1 = MPoly.variable(UZW_VARS, "u1")
        w2 = MPoly.variable(UZW_VARS, "u2")
        z = MPoly.variable(UZW_VARS, "z")
        witness = z - t[1] * w1 * w2 + t[2] * w1 ** 2 + 2 * t[3] * w2 - t[4] * w1
        ok, _ = divides(witness, cubic)
        assert ok
        checked += 1


def test_has_linear_factor_triangle():
    """v0*v1*v2 has the three coordinate lines as factors, and its singular
    points are exactly where two of them meet."""
    from triplecover.classify import _singular_points
    from triplecover.polyring import X_VARS, divides, homogenize

    triangle = TernaryCubic.from_poly(v0 * v1 * v2)
    for line in (v0, v1, v2):
        ok, _ = divides(line, triangle.as_poly())
        assert ok
    D = derived_invariants(eta(triangle)).D
    points = _singular_points(triangle, homogenize(D, 6, X_VARS))
    assert points == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
