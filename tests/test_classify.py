"""Tests for the cover classifier and the jet-based cusp criterion."""

import importlib
import random
from fractions import Fraction

import pytest

from triplecover.classify import (
    CASE_CUBIC_SURFACE,
    CASE_FLAG_BUNDLE,
    CASE_INDETERMINATE,
    CASE_NOT_NORMAL,
    CoverSpec,
    a2_cusp_check,
    classify,
    cross_validate,
)
from triplecover import cover, etamap, polyring, torus, univar
from triplecover.cover import AffineCoverData, branch_decomposition, derived_invariants
from triplecover.errors import DegenerateCover, DegenerateCubic
from triplecover.etamap import TernaryCubic, eta
from triplecover.polyring import MPoly, T_VARS, U_VARS, V_VARS, X_VARS, gcd, linear_change
from triplecover.torus import TorusPair, build_cover

FERMAT = TernaryCubic((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))

x0 = MPoly.variable(X_VARS, "x0")
x1 = MPoly.variable(X_VARS, "x1")
x2 = MPoly.variable(X_VARS, "x2")
v0 = MPoly.variable(V_VARS, "v0")
v1 = MPoly.variable(V_VARS, "v1")
v2 = MPoly.variable(V_VARS, "v2")
u1 = MPoly.variable(U_VARS, "u1")
u2 = MPoly.variable(U_VARS, "u2")
one = MPoly.constant(U_VARS, 1)

FERMAT_BRANCH = ((x0 ** 3 - x1 ** 3 - x2 ** 3) ** 2 - 4 * x1 ** 3 * x2 ** 3).monic()

_MOVE = ((1, 2, 0), (0, 1, -1), (1, 0, 1))

# Singular cubics and their witness: the least rational singular point by
# (position of the first coordinate 1, then the coordinates in descending
# order), or None when no singular point is rational.
SINGULAR_WITNESSES = {
    "nodal": (v1 ** 3 + v2 ** 3 + v0 * v1 * v2, (1, 0, 0)),
    "cuspidal": (v0 ** 3 - v1 ** 2 * v2, (0, 0, 1)),
    "conic_line": ((v0 * v2 - v1 ** 2) * (v0 - v2), (1, 1, 1)),
    "conic_tangent": ((v0 * v2 - v1 ** 2) * v2, (1, 0, 0)),
    "triangle": (v0 * v1 * v2, (1, 0, 0)),
    "concurrent_lines": (v0 * v1 * (v0 + v1), (0, 0, 1)),
    "double_line": (v0 ** 2 * v1 + v0 ** 2 * v2, (0, 1, 0)),
    "triple_line": ((v0 + 2 * v1 - v2) ** 3, (1, Fraction(-1, 2), 0)),
    # Singular at (1 : -1/2 : -1/2), (1 : -1/2 : -1) and (1 : -1 : -1).
    "triangle_transformed": (linear_change(v0 * v1 * v2, _MOVE),
                             (1, Fraction(-1, 2), Fraction(-1, 2))),
    # Singular at (1 : -1/3 : -2/3) and (1 : -1 : -2).
    "conic_line_transformed": (
        linear_change((v0 * v2 - v1 ** 2) * (v0 - v2), _MOVE),
        (1, Fraction(-1, 3), Fraction(-2, 3))),
    # A line times a conic, meeting in conjugate points or, for the last,
    # in (1 : 1 : 0) and (1 : -1 : 0).
    "generic_line": ((v0 - 2 * v1 + 3 * v2) * (v0 ** 2 + v1 * v2), None),
    "v1_line": ((v1 - 5 * v2) * (v0 ** 2 + v1 ** 2 + v2 ** 2), None),
    "v2_line": (v2 * (v0 ** 2 - v1 ** 2), (1, 1, 0)),
}

# The classical singular cubics with D_f != 0 (no repeated line).
REDUCED_KINDS = ("nodal", "cuspidal", "conic_line", "conic_tangent", "triangle",
                 "concurrent_lines")


def test_classify_fermat_flag_bundle():
    report = classify(CoverSpec.flag(FERMAT))
    assert report.case == CASE_FLAG_BUNDLE
    assert report.branch_form == FERMAT_BRANCH
    assert report.total_branch["count"] == 9
    assert cross_validate(report) == []


def test_classify_fermat_rational_cusps():
    report = classify(CoverSpec.flag(FERMAT))
    pts = {tuple(p) for p in report.total_branch["rational_points"]}
    assert pts == {
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
    }
    for cusp in report.certificates["cusps"]:
        assert cusp["a2_cusp"]
        assert cusp["perfect_cube_fiber"]


def test_classify_singular_cubic_not_normal():
    report = classify(CoverSpec.flag(TernaryCubic.from_poly(v0 * v1 * v2)))
    assert report.case == CASE_NOT_NORMAL
    assert report.certificates["smooth"] is False
    assert "singular_point" in report.certificates


def test_classify_nodal_cubic_witness():
    nodal = TernaryCubic.from_poly(v1 ** 3 + v2 ** 3 + v0 * v1 * v2)
    report = classify(CoverSpec.flag(nodal))
    assert report.case == CASE_NOT_NORMAL
    assert report.certificates["singular_point"] == (
        Fraction(1), Fraction(0), Fraction(0),
    )


@pytest.mark.parametrize("kind", SINGULAR_WITNESSES)
def test_classify_singular_witness_zeroes_gradient(kind):
    form, witness = SINGULAR_WITNESSES[kind]
    report = classify(CoverSpec.flag(TernaryCubic.from_poly(form)))
    assert report.case == CASE_NOT_NORMAL
    if witness is None:
        assert "singular_point" not in report.certificates
        assert report.notes == ["dual cubic is singular (no rational witness)"]
        return
    point = report.certificates["singular_point"]
    assert point == tuple(Fraction(c) for c in witness)
    at = dict(zip(V_VARS, point))
    assert all(not form.partial_derivative(v).evaluate(at) for v in V_VARS)


def test_classify_line_times_conic_witnesses():
    """Random line-times-conic cubics: one has the rational singular point
    (1 : 0 : 1), the others only conjugate ones."""
    rng = random.Random(47)
    notes = []
    while len(notes) < 15:
        a, b, c = (rng.randint(-4, 4) for _ in range(3))
        line = a * v0 + b * v1 + c * v2
        if line.is_zero():
            continue
        conic = (
            rng.randint(-3, 3) * v0 ** 2 + rng.randint(-3, 3) * v0 * v1
            + rng.randint(-3, 3) * v1 ** 2 + rng.randint(-3, 3) * v1 * v2
            + rng.randint(-3, 3) * v2 ** 2 + rng.randint(-3, 3) * v0 * v2
        )
        if conic.is_zero():
            continue
        report = classify(CoverSpec.flag(TernaryCubic.from_poly(line * conic)))
        assert report.case == CASE_NOT_NORMAL
        notes += report.notes
    assert notes == ["dual cubic is singular (no rational witness)"] * 14 \
        + ["dual cubic is singular at (1 : 0 : 1)"]


def test_classify_flag_cusps_sharing_a_projection():
    """A smooth cubic whose nine cusps a random chart projection merged."""
    f = TernaryCubic.from_poly(
        2 * v0 ** 3 + 3 * v0 ** 2 * v1 + 9 * v0 ** 2 * v2 + 3 * v0 * v1 ** 2
        + 9 * v0 * v1 * v2 + v1 ** 3 + v2 ** 3
    )
    report = classify(CoverSpec.flag(f))
    assert report.case == CASE_FLAG_BUNDLE
    assert report.total_branch["count"] == 9
    assert set(report.total_branch["rational_points"]) == {
        (Fraction(1), Fraction(-1, 2), Fraction(-1, 2)),
        (Fraction(1), Fraction(1, 2), Fraction(-3, 2)),
        (Fraction(1), Fraction(3, 2), Fraction(-1, 2)),
    }
    assert cross_validate(report) == []


def test_classify_zero_cubic_rejected():
    with pytest.raises(DegenerateCubic):
        classify(CoverSpec.flag(TernaryCubic((0,) * 10)))


def test_classify_torus_pair():
    pair = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)
    report = classify(CoverSpec.torus(pair))
    assert report.case == CASE_CUBIC_SURFACE
    assert report.branch_form == pair.delta().monic()
    assert report.total_branch["count"] == 6
    assert report.certificates["conditions"].all_hold()
    assert cross_validate(report) == []


def _sextics_factored(monkeypatch, spec):
    """The degree-6 forms in (x0, x1, x2) whose gradient gcd ``classify``
    takes: each is one pass of repeated-factor work on a branch sextic."""
    seen = []
    inner = polyring._gradient_gcd

    def recording(p):
        seen.append(p)
        return inner(p)

    monkeypatch.setattr(polyring, "_gradient_gcd", recording)
    classify(spec)
    return [p for p in seen
            if p.vars == X_VARS and p.is_homogeneous() and p.total_degree() == 6]


def test_classify_factors_branch_sextic_only_for_witness(monkeypatch):
    """Positive verdicts certify the sextic on a line, and a rational
    singular point is found by projection.  Only a singular f with no
    rational singular point takes the sextic's gradient gcd: here a conic
    and a line meeting in (1 : i : -1) and (1 : -i : -1)."""
    torus_spec = CoverSpec.torus(TorusPair(x0 * x1, x2 ** 3 - x0 ** 3))
    assert len(_sextics_factored(monkeypatch, torus_spec)) == 0
    assert len(_sextics_factored(monkeypatch, CoverSpec.flag(FERMAT))) == 0
    for kind in REDUCED_KINDS:
        spec = CoverSpec.flag(TernaryCubic.from_poly(SINGULAR_WITNESSES[kind][0]))
        assert len(_sextics_factored(monkeypatch, spec)) == 0, kind
    conjugate = CoverSpec.flag(TernaryCubic.from_poly((v0 * v2 - v1 ** 2) * (v0 + v2)))
    assert len(_sextics_factored(monkeypatch, conjugate)) == 1
    report = classify(conjugate)
    assert report.case == CASE_NOT_NORMAL
    assert report.notes == ["dual cubic is singular (no rational witness)"]


def _through_listed_dual_points():
    """A smooth cubic through the dual point (a : b : -1) of every line
    x2 = a*x0 + b*x1 of SQUAREFREE_LINES: v0*C1 + v1*C2 for two conics C1,
    C2 through the four points, each a product of two joining lines."""
    def joining(p, q):
        c = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
             p[0] * q[1] - p[1] * q[0])
        return c[0] * v0 + c[1] * v1 + c[2] * v2

    p1, p2, p3, p4 = ((a, b, -1) for a, b in polyring.SQUAREFREE_LINES)
    form = v0 * joining(p1, p2) * joining(p3, p4) \
        + v1 * joining(p1, p3) * joining(p2, p4)
    for p in (p1, p2, p3, p4):
        assert not form.evaluate(dict(zip(V_VARS, p)))
    return TernaryCubic.from_poly(form)


def test_classify_flag_falls_back_when_every_line_is_tangent(monkeypatch):
    """Every listed line is tangent to the dual sextic, so no line
    certifies it; one gradient gcd shows it squarefree, and the report is
    the one that gcd alone gives."""
    spec = CoverSpec.flag(_through_listed_dual_points())
    assert len(_sextics_factored(monkeypatch, spec)) == 1
    report = classify(spec)
    assert report.case == CASE_FLAG_BUNDLE
    assert "squarefree_line" not in report.certificates
    assert cross_validate(report) == []
    monkeypatch.setattr(polyring, "SQUAREFREE_LINES", ())
    alone = classify(spec)
    assert (report.case, report.branch_form, report.total_branch) == \
        (alone.case, alone.branch_form, alone.total_branch)
    assert report.certificates["cusps"] == alone.certificates["cusps"]


@pytest.mark.parametrize("E, l, q", [
    (x0, x1, x2 ** 2 + x0 * x1),
    (x0 + x2, x1 - x2, x1 ** 2 + x0 * x2),
    (x0 - x1, x2, x0 ** 2 + x1 * x2 - x2 ** 2),
    (x0, x0, x1 * x2),
    (x0 * x1 + x2 ** 2, 1, x0 + x2),
])
def test_classify_torus_total_part_is_common_factor(monkeypatch, E, l, q):
    """With (2) and (3), T = gcd(G2, G3) and S = delta / T^2; a line
    certifies (3) on S, so the sextic is never factored."""
    pair = TorusPair(E * l, E * q)
    report = classify(CoverSpec.torus(pair))
    assert report.case == CASE_CUBIC_SURFACE
    assert report.certificates["squarefree_line"] in polyring.SQUAREFREE_LINES
    assert _sextics_factored(monkeypatch, CoverSpec.torus(pair)) == []
    split = report.decomposition
    assert split.T == gcd(pair.G2, pair.G3)
    assert not split.T.is_constant()
    yun = branch_decomposition(derived_invariants(build_cover(pair)).D)
    assert (split.S, split.T, split.unit, split.degree6_form) == \
        (yun.S, yun.T, yun.unit, yun.degree6_form)
    assert cross_validate(report) == []


@pytest.mark.parametrize("pair, c2, c3, note, factored", [
    # (2) holds; delta = x0^2 x2^2 (2 x0^2 + x2^2) and x2 misses G2.
    (TorusPair(-(x0 ** 2), x0 ** 3 + x0 * x2 ** 2), (True, None), (False, x2),
     "condition (3) fails with witness x2", 0),
    # E | G2 and E^2 | G3 for E = x0 + x1: (2) fails, and a line certifies
    # (3) on delta / E^2.
    (TorusPair((x0 + x1) * (x1 - 2 * x2), (x0 + x1) ** 2 * (x0 + 3 * x2)),
     (False, x0 + x1), (True, None), "condition (2) fails with witness x0 + x1", 0),
    # G2 = 0: x0^2 | G3 fails (2), and every prime divides G2, so (3) holds.
    (TorusPair(MPoly.zero(X_VARS), x0 ** 2 * x1), (False, x0), (True, None),
     "condition (2) fails with witness x0", 0),
], ids=["condition3_fails", "factored", "g2_zero"])
def test_classify_torus_failure_witnesses(monkeypatch, pair, c2, c3, note, factored):
    """The witnesses; condition (3) takes its gradient gcd on the quartic
    delta / T^2, so no sextic is factored."""
    report = classify(CoverSpec.torus(pair))
    assert report.case == CASE_NOT_NORMAL
    conditions = report.certificates["conditions"]
    assert (conditions.condition2.holds, conditions.condition2.witness) == c2
    assert (conditions.condition3.holds, conditions.condition3.witness) == c3
    assert report.notes == [note]
    assert len(_sextics_factored(monkeypatch, CoverSpec.torus(pair))) == factored


@pytest.mark.parametrize("g3", [x0 ** 3 + x1 ** 3 + x2 ** 3, x0 * x1 * x2],
                         ids=["fermat", "triangle"])
def test_classify_torus_g2_zero_is_cyclic(g3):
    """G2 = 0 gives the cyclic cover x3^3 + 2*G3 branched along 2T with
    T = G3: every prime divides G2 = 0, so (3) holds, and (2) holds for a
    squarefree G3."""
    report = classify(CoverSpec.torus(TorusPair(MPoly.zero(X_VARS), g3)))
    assert report.case == CASE_CUBIC_SURFACE
    assert report.certificates["conditions"].all_hold()
    assert (report.decomposition.S, report.decomposition.T) == (1, g3.monic())
    assert report.notes == ["G2 = 0: totally branched along the whole curve T = G3 = 0"]
    assert cross_validate(report) == []


def test_classify_torus_condition_failure():
    report = classify(CoverSpec.torus(TorusPair(x0 * x1, x0 ** 2 * x2)))
    assert report.case == CASE_NOT_NORMAL
    assert not report.certificates["conditions"].condition2.holds


def test_classify_torus_degenerate_delta():
    report = classify(CoverSpec.torus(TorusPair(-(x0 ** 2), x0 ** 3)))
    assert report.case == CASE_NOT_NORMAL


def test_classify_raw_torus_normal_form():
    pair = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)
    report = classify(CoverSpec.raw_data(build_cover(pair)))
    assert report.case == CASE_CUBIC_SURFACE
    assert any("normal form" in n for n in report.notes)


def test_classify_raw_eta_form():
    report = classify(CoverSpec.raw_data(eta(FERMAT)))
    assert report.case == CASE_FLAG_BUNDLE
    assert report.branch_form == FERMAT_BRANCH


def test_classify_raw_unrecognized():
    cov = AffineCoverData(u1, u2, one, u1 * u2)
    report = classify(CoverSpec.raw_data(cov))
    assert report.case == CASE_INDETERMINATE
    assert "point_probes" in report.certificates


def test_classify_raw_zero_rejected():
    z = MPoly.zero(U_VARS)
    with pytest.raises(DegenerateCover):
        classify(CoverSpec.raw_data(AffineCoverData(z, z, z, z)))


def test_classify_raw_eta_random_round_trip():
    rng = random.Random(91)
    checked = 0
    while checked < 5:
        f = TernaryCubic(tuple(Fraction(rng.randint(-5, 5)) for _ in range(10)))
        if f.is_zero():
            continue
        try:
            direct = classify(CoverSpec.flag(f))
            raw = classify(CoverSpec.raw_data(eta(f)))
        except (DegenerateCover, DegenerateCubic):
            continue
        assert raw.case == direct.case
        checked += 1


def _seed91_cubics():
    """The five random flag cubics of the raw round trip above; each is
    smooth, and none raises a degeneracy."""
    rng = random.Random(91)
    cubics = []
    while len(cubics) < 5:
        f = TernaryCubic(tuple(Fraction(rng.randint(-5, 5)) for _ in range(10)))
        if not f.is_zero():
            cubics.append(f)
    return cubics


def _verdict(report):
    return (report.case, report.branch_form, report.decomposition,
            report.total_branch, report.certificates.get("singular_point"),
            report.notes)


def test_classify_same_verdict_when_the_prime_certifies_nothing(monkeypatch):
    """Modulo 3 most modular certificates fail, ``squarefree_line``'s
    included, so every exact fallback runs; the verdicts and witnesses are
    the same."""
    specs = [CoverSpec.flag(f) for f in _seed91_cubics()]
    specs += [CoverSpec.flag(FERMAT),
              CoverSpec.torus(TorusPair(x0 * x1, x2 ** 3 - x0 ** 3))]
    specs += [CoverSpec.flag(TernaryCubic.from_poly(form))
              for form, _ in SINGULAR_WITNESSES.values()]
    certified = [_verdict(classify(spec)) for spec in specs]
    monkeypatch.setattr(polyring, "SQUAREFREE_MODULUS", 3)
    assert [_verdict(classify(spec)) for spec in specs] == certified


def _counting(monkeypatch, module, name, seen):
    """Replace ``module.name`` with a wrapper that appends each argument
    tuple to ``seen``."""
    inner = getattr(module, name)

    def counting(*args):
        seen.append(args)
        return inner(*args)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("index", range(6))
def test_classify_flag_work_count(monkeypatch, index):
    """A flag classification builds D_f once and takes no exact gradient
    gcd on an eliminant in (u1, u2); its only one is the squarefree part,
    inside ``rational_roots``, of an eliminant in (t) with a part of
    multiplicity 3 (a center on a line through three flexes, as the first
    center is for the Fermat cubic)."""
    f = (_seed91_cubics() + [FERMAT])[index]
    invariants, exact = [], []
    for module in (cover, etamap):
        _counting(monkeypatch, module, "derived_invariants", invariants)
    _counting(monkeypatch, polyring, "_gradient_gcd", exact)
    assert classify(CoverSpec.flag(f)).case == CASE_FLAG_BUNDLE
    monkeypatch.undo()
    assert len(invariants) == 1
    assert [p.vars for (p,) in exact] == ([T_VARS] if f == FERMAT else [])
    for (elim,) in exact:
        parts = polyring.squarefree_decomposition(elim).parts
        assert 3 in {mult for _, mult in parts}


def test_classify_flag_accepts_center_on_an_irrational_flex_line(monkeypatch):
    """The line through (0 : 0 : 1) and three flexes of this smooth cubic
    has an irrational direction, so every rational direction lifts and the
    first center is accepted.  Its eliminant has a part of multiplicity 3,
    which is never decomposed in (u1, u2): the one exact gcd is the
    squarefree part, in (t), that ``rational_roots`` takes."""
    f = TernaryCubic.from_poly(
        -2 * v0 ** 3 + 57 * v0 ** 2 * v1 - 45 * v0 ** 2 * v2 - 48 * v0 * v1 ** 2
        + 108 * v0 * v1 * v2 - 108 * v0 * v2 ** 2 + 26 * v1 ** 3 - 198 * v1 ** 2 * v2
        + 270 * v1 * v2 ** 2 - 162 * v2 ** 3)
    centers, exact = [], []
    inner = univar.project
    monkeypatch.setattr(univar, "project",
                        lambda g, h, c: centers.append(c) or inner(g, h, c))
    _counting(monkeypatch, polyring, "_gradient_gcd", exact)
    assert classify(CoverSpec.flag(f)).case == CASE_FLAG_BUNDLE
    monkeypatch.undo()
    assert centers == [(0, 0, 1)]
    assert [p.vars for (p,) in exact] == [T_VARS]
    assert {mult for _, mult in polyring.squarefree_decomposition(exact[0][0]).parts} \
        == {1, 3}


def _moved(point, perm):
    """The point with coordinate i moved to position perm[i], scaled so that
    its first nonzero coordinate is 1."""
    moved = [None] * 3
    for i, c in enumerate(point):
        moved[perm[i]] = c
    pivot = next(c for c in moved if c)
    return tuple(c / pivot for c in moved)


def test_verdict_independent_of_chart():
    """Swapping x0 with x1 or x2 moves the reported points and nothing else."""
    inputs = (
        CoverSpec.flag(TernaryCubic.from_poly(v0 ** 3 + 2 * v1 ** 3 + 3 * v2 ** 3
                                              + v0 * v1 * v2)),
        CoverSpec.flag(TernaryCubic.from_poly(v1 ** 3 + v2 ** 3 + v0 * v1 * v2)),
        CoverSpec.torus(TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)),
        # Three rational cusps that no swap permutes among themselves.
        CoverSpec.flag(TernaryCubic.from_poly(
            2 * v0 ** 3 + 3 * v0 ** 2 * v1 + 9 * v0 ** 2 * v2 + 3 * v0 * v1 ** 2
            + 9 * v0 * v1 * v2 + v1 ** 3 + v2 ** 3
        )),
    )
    for spec in inputs:
        base = classify(spec)
        for perm in polyring.CHART_PERMS:
            if spec.kind == "flag":
                swapped = classify(CoverSpec.flag(spec.flag_cubic.permuted(perm)))
            else:
                swapped = classify(CoverSpec.torus(spec.torus_pair.permuted(perm)))
            assert swapped.case == base.case, perm
            assert swapped.total_branch.get("count") == base.total_branch.get("count")
            assert set(swapped.total_branch.get("rational_points", ())) == {
                _moved(p, perm) for p in base.total_branch.get("rational_points", ())
            }
            assert swapped.total_branch.get("multiplicities", {}) == {
                _moved(p, perm): m
                for p, m in base.total_branch.get("multiplicities", {}).items()
            }
            if "singular_point" in base.certificates:
                assert swapped.certificates["singular_point"] == \
                    _moved(base.certificates["singular_point"], perm)


def test_classify_deterministic():
    a = classify(CoverSpec.flag(FERMAT))
    b = classify(CoverSpec.flag(FERMAT))
    assert a.case == b.case
    assert a.branch_form == b.branch_form
    assert a.total_branch == b.total_branch
    assert a.certificates["cusps"] == b.certificates["cusps"]


# ---------------------------------------------------------------------------
# A2 jet criterion


def test_a2_cusp_at_chart_point():
    verdict = a2_cusp_check(FERMAT_BRANCH, (1, 1, 0))
    assert verdict["on_curve"]
    assert verdict["singular"]
    assert verdict["is_cusp"]


def test_a2_cusp_jets_at_fermat_point():
    # At (u1, u2) = (1, 0): quadratic jet 9 s^2, cubic jet 18 s^3 - 4 t^3
    # in the translated chart coordinates (s, t).
    verdict = a2_cusp_check(FERMAT_BRANCH, (1, 1, 0))
    assert verdict["quadratic_jet"] == 9 * u1 ** 2
    assert verdict["cubic_jet"] == 18 * u1 ** 3 - 4 * u2 ** 3


def test_a2_cusp_rotated_points():
    for point in ((1, 0, 1), (0, 1, 1)):
        verdict = a2_cusp_check(FERMAT_BRANCH, point)
        assert verdict["is_cusp"], point


def test_a2_smooth_point_not_cusp():
    verdict = a2_cusp_check(FERMAT_BRANCH, (1, 0, 0))
    assert verdict["on_curve"] is False or verdict["is_cusp"] is False


def test_a2_node_not_cusp():
    # x1 x2 (x0 + x1 + x2)... use a sextic with an ordinary node at (1:0:0).
    form = (x1 ** 2 - x2 ** 2) * x0 ** 4 + x1 ** 5 * x2
    verdict = a2_cusp_check(form, (1, 0, 0))
    assert verdict["on_curve"]
    assert verdict["singular"]
    assert not verdict["is_cusp"]


def test_a2_tacnode_not_cusp():
    # Quadratic jet is a square but the square root divides the cubic jet.
    form = x1 ** 2 * x0 ** 4 + x1 ** 3 * x0 ** 3 + x2 ** 6
    verdict = a2_cusp_check(form, (1, 0, 0))
    assert verdict["singular"]
    assert not verdict["is_cusp"]


def test_a2_scaled_point_coordinates():
    verdict = a2_cusp_check(FERMAT_BRANCH, (2, 2, 0))
    assert verdict["is_cusp"]


def test_cross_validate_flags_bad_decomposition():
    report = classify(CoverSpec.flag(FERMAT))
    report.total_branch["count"] = 8
    assert cross_validate(report) != []


def test_cross_validate_rechecks_squarefree_line():
    report = classify(CoverSpec.flag(FERMAT))
    assert report.certificates["squarefree_line"] in polyring.SQUAREFREE_LINES
    # x2 = x0 - x1 passes through the cusp (1 : 1 : 0) of the branch sextic.
    report.certificates["squarefree_line"] = (1, -1)
    assert cross_validate(report) == [
        "S is not squarefree on its certificate line (a, b) = (1, -1) "
        "of x2 = a*x0 + b*x1"
    ]


def test_classify_generic_torus_pair_takes_no_gradient_gcd(monkeypatch):
    """Every repeated-factor question of a generic torus classification,
    the repeated part of G3 in condition (2) included, is certified modulo
    a prime, so no exact gradient gcd runs."""
    exact = []
    _counting(monkeypatch, polyring, "_gradient_gcd", exact)
    pair = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)
    assert classify(CoverSpec.torus(pair)).case == CASE_CUBIC_SURFACE
    assert exact == []


def test_classify_torus_gcd_of_the_pair_work_count(monkeypatch):
    """``total_branch_points`` reads a shared component off a zero
    eliminant and takes no gcd(G2, G3); a torus classification takes two,
    in ``condition3`` and for the split S + 2T."""
    pair = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)
    calls = []
    for module in (torus, importlib.import_module("triplecover.classify")):
        _counting(monkeypatch, module, "gcd", calls)
    torus.total_branch_points(pair)
    assert calls == []
    assert classify(CoverSpec.torus(pair)).case == CASE_CUBIC_SURFACE
    assert calls.count((pair.G2, pair.G3)) == 2
