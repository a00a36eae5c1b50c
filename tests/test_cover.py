"""Tests for the chart cover calculus: invariants, resolvents, lines."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from triplecover import polyring
from triplecover.cover import (
    AffineCoverData,
    BranchDecomposition,
    branch_decomposition,
    derived_invariants,
    fiber_equations,
    is_line_cover_connected,
    is_total_branch_point,
    multiplication_table,
    resolvent_cubic,
    restrict_to_line,
    split_branch,
)
from triplecover.errors import DegenerateCover, MultiplicityTooHigh, TripleCoverError
from triplecover.etamap import TernaryCubic, eta
from triplecover.polyring import (
    MPoly,
    T_VARS,
    U_VARS,
    UZW_VARS,
    X_VARS,
    dehomogenize,
)

u1 = MPoly.variable(U_VARS, "u1")
u2 = MPoly.variable(U_VARS, "u2")
one = MPoly.constant(U_VARS, 1)
zero = MPoly.zero(U_VARS)
t = MPoly.variable(T_VARS, "t")

# The cover data of the Fermat cubic, computed by hand from the eta map.
FERMAT = AffineCoverData(-u1 ** 2 * u2, u1 ** 3 - one, one - u2 ** 3, u1 * u2 ** 2)


def random_cover(rng, span=4):
    def poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            c = rng.randint(-span, span)
            if c:
                terms[e] = Fraction(c)
        return MPoly(U_VARS, terms)

    return AffineCoverData(poly(), poly(), poly(), poly())


def test_fermat_invariants():
    inv = derived_invariants(FERMAT)
    assert inv.A == u1 * u2 ** 2
    assert inv.B == one - u1 ** 3 - u2 ** 3
    assert inv.C == u1 ** 2 * u2
    assert inv.D == (one - u1 ** 3 - u2 ** 3) ** 2 - 4 * u1 ** 3 * u2 ** 3


def test_swap_symmetry():
    inv = derived_invariants(FERMAT)
    swapped = derived_invariants(FERMAT.swapped())
    assert swapped.A == inv.C
    assert swapped.C == inv.A
    assert swapped.B == inv.B
    assert swapped.D == inv.D


def test_resolvent_reduces_via_multiplication_table():
    """z^3 - 3Az + (bB - 2aA) must reduce to zero under the table."""
    rng = random.Random(5)
    for _ in range(10):
        cov = random_cover(rng)
        phi_zz, phi_zw, phi_ww = multiplication_table(cov)
        z = MPoly.variable(UZW_VARS, "z")
        w = MPoly.variable(UZW_VARS, "w")
        # z^3 = z * z^2 -> z * phi(z^2); expand phi(z^2) = 2A + a z + b w
        # and reduce the remaining z^2, z*w terms once more.
        ident = {v: MPoly.variable(UZW_VARS, v) for v in U_VARS}

        def lift(p):
            return p.substitute(ident, UZW_VARS)

        inv = derived_invariants(cov)
        z3 = 2 * lift(inv.A) * z + lift(cov.a) * phi_zz + lift(cov.b) * phi_zw
        res = resolvent_cubic(cov, "z")
        reduced = z3 + lift(res.quad) * z + lift(res.const)
        assert reduced.is_zero()


def test_resolvent_w_by_symmetry():
    rng = random.Random(6)
    for _ in range(5):
        cov = random_cover(rng)
        res_w = resolvent_cubic(cov, "w")
        res_z_of_swap = resolvent_cubic(cov.swapped(), "z")
        assert res_w.quad == res_z_of_swap.quad
        assert res_w.const == res_z_of_swap.const


def test_resolvent_as_poly():
    res = resolvent_cubic(FERMAT, "z")
    p = res.as_poly()
    z = MPoly.variable(UZW_VARS, "z")
    assert p.degree_in("z") == 3
    assert p.coefficients_in("z")[3].is_constant()
    assert (p - z ** 3).degree_in("z") <= 1
    ident = {v: MPoly.variable(UZW_VARS, v) for v in U_VARS}
    assert p.vars == UZW_VARS
    assert p == z ** 3 + res.quad.substitute(ident, UZW_VARS) * z \
        + res.const.substitute(ident, UZW_VARS)


def test_resolvent_as_poly_over_a_line():
    """A resolvent over (t), from a line restriction, adjoins z and w to t;
    it is the chart resolvent restricted to the line."""
    zero, one_ = MPoly.zero(U_VARS), MPoly.constant(U_VARS, 1)
    tzw = T_VARS + ("z", "w")
    z = MPoly.variable(tzw, "z")
    ident = {"t": MPoly.variable(tzw, "t")}
    for cov, line in [(AffineCoverData(zero, one_, zero, one_), (t, t)),
                      (FERMAT, (t, 2 * t + 1))]:
        lr = restrict_to_line(cov, line)
        p = resolvent_cubic(AffineCoverData(lr.aL, lr.bL, lr.cL, lr.dL), "z").as_poly()
        chart = resolvent_cubic(cov, "z")
        on_line = [q.substitute(dict(zip(U_VARS, line)), T_VARS).substitute(ident, tzw)
                   for q in (chart.quad, chart.const)]
        assert p.vars == tzw
        assert p == z ** 3 + on_line[0] * z + on_line[1]


def test_fiber_equations_shape():
    eq_zz, eq_zw, eq_ww = fiber_equations(FERMAT)
    assert eq_zz.degree_in("z") == 2
    assert eq_ww.degree_in("w") == 2
    assert eq_zw.degree_in("z") == 1 and eq_zw.degree_in("w") == 1


def test_branch_decomposition_reduced():
    D = derived_invariants(FERMAT).D
    dec = branch_decomposition(D)
    assert dec.T.is_constant()
    assert dec.S.total_degree() == 6
    assert dec.unit * dec.S * dec.T ** 2 == dec.degree6_form
    assert dehomogenize(dec.degree6_form, U_VARS) == D


def test_branch_decomposition_with_double_part():
    # Chart degree 4, so homogenization contributes x0^2 to the double part.
    D = (u1 + u2) ** 2 * (u1 ** 2 - u2 + 1)
    dec = branch_decomposition(D)
    assert dec.T.total_degree() == 2
    assert dec.S.total_degree() == 2
    x0 = MPoly.variable(X_VARS, "x0")
    x1 = MPoly.variable(X_VARS, "x1")
    x2 = MPoly.variable(X_VARS, "x2")
    assert dec.T == (x0 * (x1 + x2)).monic()
    assert dec.unit * dec.S * dec.T ** 2 == dec.degree6_form


@pytest.mark.parametrize("cov", [
    FERMAT,
    eta(TernaryCubic((1, 2, 0, -1, 3, 0, 2, 1, 0, 1))),
], ids=["fermat", "dense"])
def test_branch_decomposition_certifies_on_a_line(monkeypatch, cov):
    """A squarefree sextic that a line certifies is split with T = 1 and no
    exact gradient gcd; with no lines listed, Yun's decomposition after one
    gradient gcd gives the same split."""
    D = derived_invariants(cov).D
    exact = []
    inner = polyring._gradient_gcd

    def counting(p):
        exact.append(p)
        return inner(p)

    monkeypatch.setattr(polyring, "_gradient_gcd", counting)
    dec = branch_decomposition(D)
    assert exact == []
    assert dec.T == MPoly.constant(X_VARS, 1)
    monkeypatch.setattr(polyring, "SQUAREFREE_LINES", ())
    yun = branch_decomposition(D)
    assert len(exact) == 1
    assert (dec.S, dec.T, dec.unit, dec.degree6_form) == \
        (yun.S, yun.T, yun.unit, yun.degree6_form)


def test_branch_decomposition_degree_balance():
    rng = random.Random(12)
    for _ in range(10):
        cov = random_cover(rng, span=3)
        D = derived_invariants(cov).D
        if D.is_zero() or D.total_degree() > 6:
            continue
        try:
            dec = branch_decomposition(D)
        except MultiplicityTooHigh:
            continue
        deg_s = max(dec.S.total_degree(), 0)
        deg_t = max(dec.T.total_degree(), 0)
        assert deg_s + 2 * deg_t == 6


def test_branch_decomposition_rejects_zero():
    with pytest.raises(DegenerateCover):
        branch_decomposition(zero)


def test_branch_decomposition_rejects_high_multiplicity():
    with pytest.raises(MultiplicityTooHigh):
        branch_decomposition((u1 + u2) ** 3 * (u1 - 1))


def test_split_branch():
    x0 = MPoly.variable(X_VARS, "x0")
    x1 = MPoly.variable(X_VARS, "x1")
    x2 = MPoly.variable(X_VARS, "x2")
    T = x1 + x2
    form = -3 * T ** 2 * (x0 ** 4 - x1 * x2 ** 3)
    dec = split_branch(form, T)
    assert (dec.S, dec.T, dec.unit) == (x0 ** 4 - x1 * x2 ** 3, T, -3)
    assert dec.degree6_form == form
    assert split_branch(form, 1).S == form.monic()
    with pytest.raises(TripleCoverError):
        split_branch(form, x0)


def test_split_branch_by_one_divides_nothing(monkeypatch):
    """A squarefree form (T = 1) is its own S: no ``polyring.divides`` runs,
    and the decomposition is the one the division by T^2 = 1 gives."""
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    form = -3 * (x0 ** 6 + x1 ** 6 + x2 ** 6 - 10 * x0 ** 3 * x1 ** 3)
    S = polyring.exact_divide(MPoly.constant(X_VARS, 1), form)
    calls = []
    inner = polyring.divides
    monkeypatch.setattr(polyring, "divides",
                        lambda *args: calls.append(args) or inner(*args))
    dec = split_branch(form, 1)
    assert calls == []
    assert dec == BranchDecomposition(S.monic(), MPoly.constant(X_VARS, 1),
                                      S.leading_coefficient(), form)


def test_restrict_to_line():
    lr = restrict_to_line(FERMAT, (t, 2 * t + 1))
    assert lr.bL == t ** 3 - 1
    assert lr.cL == MPoly.constant(T_VARS, 1) - (2 * t + 1) ** 3


def test_restrict_to_line_rejects_constant():
    c0 = MPoly.constant(T_VARS, 1)
    with pytest.raises(TripleCoverError):
        restrict_to_line(FERMAT, (c0, c0))


def test_restrict_to_line_rejects_high_degree():
    with pytest.raises(TripleCoverError):
        restrict_to_line(FERMAT, (t ** 2, t))


def test_fermat_lines_connected():
    """Generic lines avoiding the three split lines of the Fermat cover.

    The dual lines of the cubic's rational points (u1 = 1, u2 = 1 and
    u1 = u2) carry a constant section, so the generic-splitting criterion
    reports them as disconnected; every other rational line is connected.
    """
    rng = random.Random(9)
    checked = 0
    while checked < 10:
        s1, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if not s1 or not s2:
            continue
        o1, o2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if (s1, o1) == (s2, o2):
            continue
        line = (s1 * t + o1, s2 * t + o2)
        verdict = is_line_cover_connected(restrict_to_line(FERMAT, line))
        assert verdict.status == "connected"
        checked += 1


def test_disconnected_datum_detected():
    """(a,b,c,d) = (0,1,0,1): the resolvent factors with root 0."""
    cov = AffineCoverData(zero, one, zero, one)
    lr = restrict_to_line(cov, (t, t))
    verdict = is_line_cover_connected(lr)
    assert verdict.status == "disconnected"
    assert verdict.witness_root == MPoly.zero(T_VARS)


def test_disconnected_polynomial_root():
    # The z-resolvent is z^3 - 3 u1^2 z - 2 u1^3 = (z+u1)^2 (z-2u1), whose
    # discriminant vanishes identically; on (t, 0) its roots are -t and 2t,
    # and -t comes first by the values at the samples 0, 1.
    cov = AffineCoverData(zero, one, 2 * u1 ** 3, -(u1 ** 2))
    lr = restrict_to_line(cov, (t, MPoly.zero(T_VARS)))
    verdict = is_line_cover_connected(lr)
    assert verdict.status == "disconnected"
    assert verdict.witness_root == -t


def test_total_branch_point_probe():
    # Torus datum (0, 1, -2*G3', G2') for G2 = x0*x1, G3 = x2^3 - x0^3:
    # chart forms G2' = u1, G3' = u2^3 - 1; the point (0, 1) is total.
    cov = AffineCoverData(zero, one, -2 * (u2 ** 3 - one), u1)
    assert is_total_branch_point(cov, (0, 1)).status == "total"
    assert is_total_branch_point(cov, (1, 1)).status == "not_total"


def test_total_branch_point_degenerate():
    cov = AffineCoverData(u1, u1 * u2, u1 ** 2, u1 + u2)
    verdict = is_total_branch_point(cov, (0, 0))
    assert verdict.status == "degenerate"


def _resolvent_rule(cov, at):
    """The rule read off the resolvent cubics: degenerate when a, b, c, d
    vanish at the point, total when both cubics specialize to y^3 there."""
    if not any(p.evaluate(at) for p in (cov.a, cov.b, cov.c, cov.d)):
        return "degenerate"
    specs = [p.evaluate(at) for res in (resolvent_cubic(cov, "z"), resolvent_cubic(cov, "w"))
             for p in (res.quad, res.const)]
    return "not_total" if any(specs) else "total"


def test_total_branch_point_matches_the_resolvent_rule():
    """The probe reads A = B = C = 0 off a, b, c, d at the point and agrees
    with the resolvent rule on random data and points, on planted total
    points of torus data (0, 1, -2 G3', G2') and on planted degenerate
    points, where all four forms pass through the point."""
    rng = random.Random(26)

    def through(poly, at):
        return poly - poly.evaluate(at)

    statuses = set()
    for kind in ("random", "torus", "degenerate") * 100:
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in "uv")
        at = {"u1": point[0], "u2": point[1]}
        cov = random_cover(rng)
        if kind == "torus":
            cov = AffineCoverData(zero, one, -2 * through(cov.c, at), through(cov.d, at))
        elif kind == "degenerate":
            cov = AffineCoverData(*(through(p, at) for p in (cov.a, cov.b, cov.c, cov.d)))
        status = is_total_branch_point(cov, point).status
        assert status == _resolvent_rule(cov, at), (kind, cov, point)
        statuses.add(status)
    assert statuses == {"total", "not_total", "degenerate"}


def _callers(name):
    """(module, innermost enclosing function) of each call of ``name`` in the
    package, with None for a call at module level."""
    found = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", getattr(node.func, "attr", None)) == name:
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in Path(polyring.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_only_the_connectivity_probe_builds_resolvents():
    """The resolvent cubics serve the connectivity probe alone; the point
    probe reads the data at the point."""
    assert _callers("resolvent_cubic") == {("cover", "is_line_cover_connected")}
