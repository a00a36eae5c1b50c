"""Tests for the cover classifier and the jet-based cusp criterion."""

import importlib
import itertools
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

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
from triplecover.errors import DegenerateCover, DegenerateCubic, LemmaViolation, TripleCoverError
from triplecover.etamap import TernaryCubic, eta
from triplecover.polyring import MPoly, U_VARS, V_VARS, X_VARS, gcd, linear_change
from triplecover.torus import TorusPair, build_cover

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

classify_mod = importlib.import_module("triplecover.classify")

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
    assert report.notes == [
        "raw data matches neither constructed normal form",
        "branch decomposition failed: branch polynomial has chart degree 7 > 6",
    ]
    assert report.certificates == {}


def test_match_flag_inverts_eta_exactly():
    """``_match_flag`` recovers f from eta(f).  On eta(f) plus one or two
    random monomials, and on random data, it returns None or a cubic whose
    eta is the datum."""
    rng = random.Random(19)
    monomials = [(i, j) for i in range(4) for j in range(4 - i)]

    def random_poly(count):
        return MPoly(U_VARS, {rng.choice(monomials): rng.randint(-3, 3)
                              for _ in range(count)})

    outcomes = set()
    for index in range(300):
        f = TernaryCubic(tuple(rng.randint(-3, 3) for _ in range(10)))
        if f.is_zero():
            continue
        cov = eta(f)
        data = [cov.a, cov.b, cov.c, cov.d]
        if index % 3 == 0:
            assert classify_mod._match_flag(cov) == f
            continue
        if index % 3 == 1:
            for _ in range(rng.randint(1, 2)):
                data[rng.randrange(4)] += random_poly(1)
        else:
            data = [random_poly(rng.randint(1, 6)) for _ in range(4)]
        match = classify_mod._match_flag(AffineCoverData(*data))
        if match is not None:
            matched = eta(match)
            assert [matched.a, matched.b, matched.c, matched.d] == data
        outcomes.add(match is None)
    assert outcomes == {True, False}


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


def test_classify_same_verdict_when_no_line_certifies(monkeypatch):
    """With no line to try, ``squarefree_line`` certifies nothing, so every
    exact fallback runs; the verdicts and witnesses are the same."""
    specs = [CoverSpec.flag(f) for f in _seed91_cubics()]
    specs += [CoverSpec.flag(FERMAT),
              CoverSpec.torus(TorusPair(x0 * x1, x2 ** 3 - x0 ** 3))]
    specs += [CoverSpec.flag(TernaryCubic.from_poly(form))
              for form, _ in SINGULAR_WITNESSES.values()]
    certified = [_verdict(classify(spec)) for spec in specs]
    monkeypatch.setattr(polyring, "SQUAREFREE_LINES", ())
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
    gcd, not even for an eliminant with a part of multiplicity 3 (a center
    on a line through three flexes, as the first center is for the Fermat
    cubic): ``rational_roots`` takes its squarefree part on coefficient
    lists."""
    f = (_seed91_cubics() + [FERMAT])[index]
    invariants, exact = [], []
    for module in (cover, etamap):
        _counting(monkeypatch, module, "derived_invariants", invariants)
    _counting(monkeypatch, polyring, "_gradient_gcd", exact)
    assert classify(CoverSpec.flag(f)).case == CASE_FLAG_BUNDLE
    monkeypatch.undo()
    assert len(invariants) == 1
    assert exact == []


# The witnesses of the classical singular cubics of the benchmark, moved to
# f(_MOVE v).
WORKLOAD_WITNESSES = {
    "nodal": (1, Fraction(-1, 2), Fraction(-1, 2)),
    "cuspidal": (1, Fraction(-1, 2), Fraction(-1, 2)),
    "conic_line": (1, Fraction(-1, 3), Fraction(-2, 3)),
    "conic_tangent": (1, -1, -1),
    "triangle": (1, Fraction(-1, 2), Fraction(-1, 2)),
    "concurrent_lines": (1, Fraction(-1, 2), Fraction(-1, 2)),
    "double_line": (1, Fraction(-1, 2), 0),
}


def test_classify_singular_workload_cubics_work_count(monkeypatch):
    """Each classical singular cubic of the benchmark gets its witness off
    the branch sextic on one line: D_f is built once, and no resultant,
    subresultant, gcd, gradient gcd or ``common_points`` runs."""
    invariants, work = [], []
    for module in (cover, etamap):
        _counting(monkeypatch, module, "derived_invariants", invariants)
    for owner, name in ((polyring, "resultant"), (polyring, "_subresultants"),
                        (polyring, "_gradient_gcd"), (polyring, "gcd"),
                        (univar, "common_points")):
        inner = getattr(owner, name)
        for module in (polyring, univar, cover, etamap, torus, classify_mod):
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, lambda *args, name=name, inner=inner:
                                    work.append(name) or inner(*args))
    assert set(workloads.SINGULAR_CUBICS) == set(WORKLOAD_WITNESSES)
    for kind, terms in workloads.SINGULAR_CUBICS.items():
        f = linear_change(MPoly(V_VARS, terms), _MOVE)
        report = classify(CoverSpec.flag(TernaryCubic.from_poly(f)))
        assert report.certificates["singular_point"] == WORKLOAD_WITNESSES[kind], kind
    monkeypatch.undo()
    assert len(invariants) == len(WORKLOAD_WITNESSES)
    assert work == []


def _sextic(form):
    """The branch sextic that ``classify`` reads the witness off, or None
    when D_f = 0."""
    D = derived_invariants(eta(TernaryCubic.from_poly(form))).D
    return None if D.is_zero() else polyring.homogenize(D, 6, X_VARS)


def _moved(rng, lower):
    """A random invertible integer matrix, lower triangular if ``lower``:
    then f(M v) vanishes at (0 : 0 : 1) just when f does, and M^-1 keeps the
    lines through it."""
    while True:
        m = [[rng.randint(-3, 3) if not lower or j <= i else 0 for j in range(3)]
             for i in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            return m


# Cubics with planted rational singular points, and whether a lower
# triangular matrix must move them to keep their feature.
_u = v2 - v1
PLANTED = {
    # A node at (0 : 1 : 1), on the direction (0 : 1) from q = (0 : 0 : 1).
    "direction_01": (v1 * (v0 ** 2 - _u ** 2) + v0 ** 3 + 2 * _u ** 3, [(0, 1, 1)], True),
    # A node at (1 : 0 : 0) on a cubic through (0 : 0 : 1), so q moves.
    "q_moves": (v0 * (v1 ** 2 - v2 ** 2) + v1 ** 3 + 2 * v1 ** 2 * v2, [(1, 0, 0)], True),
    # A cusp at (1 : 0 : 0) with tangent v1 = 0 through q = (0 : 0 : 1):
    # f is a cube on that line, and gcd(F, F') has degree 2.
    "cusp_tangent_through_q": (v0 * v1 ** 2 + v1 ** 3 + v2 ** 3, [(1, 0, 0)], True),
    "triangle": (v0 * v1 * v2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], False),
    "concurrent_lines": (v0 * v1 * (v0 + v1), [(0, 0, 1)], False),
}


@pytest.mark.parametrize("kind", PLANTED)
def test_singular_points_planted_and_moved(kind):
    """f(M v) is singular exactly at the points r with M r a planted point,
    and the search returns all of them, least first, checked exactly."""
    form, planted, lower = PLANTED[kind]
    rng = random.Random(kind)
    origin = dict(zip(V_VARS, (0, 0, 1)))
    for m in [[[int(i == j) for j in range(3)] for i in range(3)]] \
            + [_moved(rng, lower) for _ in range(6)]:
        moved = linear_change(form, m)
        got = classify_mod._singular_points(TernaryCubic.from_poly(moved), _sextic(moved))
        assert got == sorted(got, key=classify_mod._witness_key)
        assert {polyring.projective_point([sum(a * c for a, c in zip(row, r)) for row in m])
                for r in got} == {polyring.projective_point(p) for p in planted}
        assert len(got) == len(planted)
        if kind == "direction_01":
            assert moved.evaluate(origin) and got[0][0] == 0
        if kind == "q_moves":
            assert not moved.evaluate(origin)
        if kind == "cusp_tangent_through_q":
            scale = math.lcm(*(c.denominator for c in got[0]))
            cusp = [int(c * scale) for c in got[0]]
            assert moved.evaluate(origin)
            assert polyring._on_line(moved, cusp, (0, 0, 1))[:3] == [0, 0, 0]


def test_singular_points_of_a_double_line():
    """For f = l^2 m (D_f = 0) the one point is where l meets v2 = 0, or
    (1 : 0 : 0) when l is v2; with l = v0 moved by M, l(M r) = 0."""
    form = v0 ** 2 * v1 + v0 ** 2 * v2
    rng = random.Random(5)
    frames = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]] \
        + [_moved(rng, False) for _ in range(6)]
    for m in frames:
        moved = linear_change(form, m)
        assert _sextic(moved) is None
        (point,) = classify_mod._singular_points(TernaryCubic.from_poly(moved), None)
        at = dict(zip(V_VARS, point))
        assert not any(moved.partial_derivative(v).evaluate(at) for v in V_VARS)
        assert sum(a * c for a, c in zip(m[0], point)) == 0
        assert point[2] == 0 or (m[0][:2] == [0, 0] and point == (1, 0, 0))
    assert classify_mod._singular_points(TernaryCubic.from_poly(form), None) == [(0, 1, 0)]


def test_singular_points_raise_when_a_direction_does_not_lift(monkeypatch):
    """A direction that does not lift is an internal bug, not a dropped
    point, with D_f != 0 and with D_f = 0."""
    monkeypatch.setattr(univar, "_lift_direction", lambda *args: None)
    for form in (v0 * v1 * v2, v0 ** 2 * v1 + v0 ** 2 * v2):
        with pytest.raises(LemmaViolation):
            classify_mod._singular_points(TernaryCubic.from_poly(form), _sextic(form))


def test_classify_flag_accepts_center_on_an_irrational_flex_line(monkeypatch):
    """The line through (0 : 0 : 1) and three flexes of this smooth cubic
    has an irrational direction, so every rational direction lifts and the
    first center is accepted.  Its eliminant has a part of multiplicity 3,
    and no exact gradient gcd is taken for it."""
    f = TernaryCubic.from_poly(
        -2 * v0 ** 3 + 57 * v0 ** 2 * v1 - 45 * v0 ** 2 * v2 - 48 * v0 * v1 ** 2
        + 108 * v0 * v1 * v2 - 108 * v0 * v2 ** 2 + 26 * v1 ** 3 - 198 * v1 ** 2 * v2
        + 270 * v1 * v2 ** 2 - 162 * v2 ** 3)
    projections, exact = {}, []
    inner = univar.project

    def recording(g, h, center):
        projections[center] = inner(g, h, center)
        return projections[center]

    monkeypatch.setattr(univar, "project", recording)
    _counting(monkeypatch, polyring, "_gradient_gcd", exact)
    assert classify(CoverSpec.flag(f)).case == CASE_FLAG_BUNDLE
    monkeypatch.undo()
    assert list(projections) == [(0, 0, 1)]
    assert exact == []
    elim = projections[(0, 0, 1)][3]
    assert {mult for _, mult in polyring.squarefree_decomposition(elim).parts} == {1, 3}


def _swap(perm):
    """The matrix of the swap that moves coordinate i to position perm[i]."""
    return [[int(j == perm[i]) for j in range(3)] for i in range(3)]


def _adjugate(m):
    """det(m) * m^-1, so the same projective map as m^-1."""
    return [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
             for j in range(3)] for i in range(3)]


def _random_frame(rng):
    """A seeded invertible integer matrix with entries in [-2, 2]."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        cof = _adjugate(m)
        if sum(m[0][j] * cof[j][0] for j in range(3)):
            return m


def _apply(m, point):
    """The projective point M * point, first nonzero coordinate 1."""
    return polyring.projective_point(
        tuple(sum(a * c for a, c in zip(row, point)) for row in m))


def _changed(spec, m):
    """The spec with every form p replaced by p(M * vars)."""
    if spec.kind == "flag":
        return CoverSpec.flag(TernaryCubic.from_poly(
            linear_change(spec.flag_cubic.as_poly(), m)))
    pair = spec.torus_pair
    return CoverSpec.torus(TorusPair(linear_change(pair.G2, m),
                                     linear_change(pair.G3, m)))


SWAPS = ((0, 1, 2), (1, 0, 2), (2, 1, 0))


def test_verdict_independent_of_chart():
    """Every invertible change of coordinates p -> p(M * vars) moves the
    reported points and nothing else: torus points by M^-1, flag cusps,
    which are lines of the dual plane, by M^T.  A NotNormal witness is a
    singular point of the moved cubic; under a swap of x0 with x1 or x2 it
    is the moved witness of the given cubic."""
    swapped_inputs = (
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
    inputs = swapped_inputs + (
        CoverSpec.flag(TernaryCubic.from_poly(v0 * v1 * v2)),
        CoverSpec.flag(TernaryCubic.from_poly(v1 ** 2 * v2 - v0 ** 3)),
        # The pair of test_torus.py whose points share a line x1 = 0.
        CoverSpec.torus(TorusPair(x1 * x0 - x2 ** 2 + x2 * x0,
                                  x1 * x2 * x0 + x2 ** 3 - x2 ** 2 * x0)),
    )
    rng = random.Random(19)
    frames = [_swap(perm) for perm in SWAPS] + [_random_frame(rng) for _ in range(8)]
    for spec in inputs:
        base = classify(spec)
        for index, m in enumerate(frames):
            changed = _changed(spec, m)
            moved = classify(changed)
            move = _adjugate(m) if spec.kind == "torus" else [list(c) for c in zip(*m)]
            assert moved.case == base.case, m
            assert moved.total_branch.get("count") == base.total_branch.get("count")
            assert set(moved.total_branch.get("rational_points", ())) == {
                _apply(move, p) for p in base.total_branch.get("rational_points", ())
            }
            assert moved.total_branch.get("multiplicities", {}) == {
                _apply(move, p): mult
                for p, mult in base.total_branch.get("multiplicities", {}).items()
            }
            if "singular_point" in base.certificates:
                witness = dict(zip(V_VARS, moved.certificates["singular_point"]))
                cubic = changed.flag_cubic.as_poly()
                assert not any(cubic.partial_derivative(v).evaluate(witness)
                               for v in V_VARS)
                if index < len(SWAPS) and spec in swapped_inputs:
                    assert moved.certificates["singular_point"] == \
                        _apply(_adjugate(m), base.certificates["singular_point"])


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


def test_a2_rejects_what_is_not_a_curve():
    # A form of any degree is accepted; a polynomial that is not a form, or
    # the zero form, is no curve.
    assert a2_cusp_check(x1 ** 2 * x0 - x2 ** 3, (1, 0, 0))["is_cusp"]
    with pytest.raises(TripleCoverError) as info:
        a2_cusp_check(x1 ** 2 - x2 ** 3, (1, 0, 0))
    assert not isinstance(info.value, DegenerateCover)
    with pytest.raises(DegenerateCover):
        a2_cusp_check(MPoly.zero(X_VARS), (1, 0, 0))


def test_a2_scaled_point_coordinates():
    verdict = a2_cusp_check(FERMAT_BRANCH, (2, 2, 0))
    assert verdict["is_cusp"]


def _random_point(rng):
    """A nonzero integer point, often with zero coordinates."""
    while True:
        point = tuple(rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(3))
        if any(point):
            return point


def _frame_at(rng, point):
    """An integer matrix A with A * point a nonzero multiple of (1, 0, 0):
    the adjugate of an invertible matrix whose first column is the point."""
    while True:
        n = [[point[i], rng.randint(-3, 3), rng.randint(-3, 3)] for i in range(3)]
        cof = _adjugate(n)
        if sum(n[0][j] * cof[j][0] for j in range(3)):
            return cof


# Germs at (1 : 0 : 0) in the local coordinates (x1, x2); only the cusp is
# an ordinary cusp.
A2_GERMS = {
    "node": x1 ** 2 - x2 ** 2,
    "cusp": x1 ** 2 * x0 - x2 ** 3,
    "A3": x1 ** 2 * x0 ** 2 - x2 ** 4,
    "A4": x1 ** 2 * x0 ** 3 - x2 ** 5,
    "D4": x1 ** 3 - x2 ** 3,
    "E6": x1 ** 3 * x0 - x2 ** 4,
    "tacnode": x1 ** 2 * x0 - x1 * x2 ** 2,
}


def _on_curve_and_singular(form, point):
    at = dict(zip(X_VARS, point))
    on_curve = not form.evaluate(at)
    return on_curve, on_curve and not any(
        form.partial_derivative(v).evaluate(at) for v in X_VARS)


@pytest.mark.parametrize("seed", range(4))
def test_a2_cusp_check_moved_germs(seed):
    """Each germ, homogenized to degree 6 at (1 : 0 : 0), perturbed by terms
    of local order at least 4 and moved by an integer matrix, is singular at
    its moved point and an ordinary cusp exactly when it is the cusp.  At
    other points, ``on_curve`` and ``singular`` are the values of the form
    and its gradient."""
    rng = random.Random(seed)
    for name, germ in A2_GERMS.items():
        # x0^a x1^b x2^c with a <= 2 has local order b + c >= 4.
        form = germ * x0 ** (6 - germ.total_degree()) + MPoly(X_VARS, {
            (a, b, 6 - a - b): rng.randint(-4, 4) for a in range(3) for b in range(7 - a)})
        point = _random_point(rng)
        moved = linear_change(form, _frame_at(rng, point)) * Fraction(
            rng.randint(1, 9), rng.randint(1, 9))
        verdict = a2_cusp_check(moved, point)
        assert set(verdict) == {"point", "on_curve", "singular", "is_cusp"}
        assert verdict["point"] == polyring.projective_point(point)
        assert verdict["on_curve"] and verdict["singular"], name
        assert verdict["is_cusp"] == (name == "cusp"), name
        for _ in range(3):
            other = _random_point(rng)
            k = next(i for i, c in enumerate(other) if c)
            xs = (x0, x1, x2)
            # Through the point, generically smooth there.
            through = moved - moved.evaluate(dict(zip(X_VARS, other))) \
                / other[k] ** 6 * xs[k] ** 6
            # Smooth there with the tangent line through a unit vector e_n:
            # the line det(point, e_n, x) = 0 times a quintic.
            quintic = MPoly(X_VARS, {(a, b, 5 - a - b): rng.randint(-3, 3)
                                     for a in range(6) for b in range(6 - a)})
            tangents = []
            for n in (m for m in range(3) if m != k):
                e = [int(m == n) for m in range(3)]
                tangents.append(quintic * sum(
                    ((other[(m + 1) % 3] * e[(m + 2) % 3]
                      - other[(m + 2) % 3] * e[(m + 1) % 3]) * xs[m]
                     for m in range(3)), MPoly.zero(X_VARS)))
            for f in (moved, through, *tangents):
                if f.is_zero():
                    continue
                verdict = a2_cusp_check(f, other)
                expected = _on_curve_and_singular(f, other)
                assert (verdict["on_curve"], verdict["singular"]) == expected
                assert verdict["singular"] or not verdict["is_cusp"]


def test_perfect_cube_fiber_planted_cubes():
    """L^3 + (x . v) M^2 restricts to L^3 on the dual line of x, a cube
    unless L vanishes there too."""
    rng = random.Random(5)
    v = (v0, v1, v2)
    for _ in range(60):
        x = _random_point(rng)
        dual = sum((c * w for c, w in zip(x, v)), MPoly.zero(V_VARS))
        L, M = (sum((rng.randint(-3, 3) * w for w in v), MPoly.zero(V_VARS))
                for _ in range(2))
        f = L ** 3 + dual * M ** 2
        if f.is_zero():
            continue
        cube = classify_mod._perfect_cube_fiber(TernaryCubic.from_poly(f), x)
        # L vanishes on the dual line exactly when it is a multiple of x . v.
        coeffs = [L.terms.get(e, 0) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert cube == any(a * y != b * c for (a, b), (c, y) in
                           itertools.combinations(zip(coeffs, x), 2))


def test_perfect_cube_fiber_matches_the_chart_fiber():
    """At affine points (1 : a : b), random cubics and cubics with a planted
    cube give the verdict of ``is_perfect_cube(fiber_binary_cubic(...))``."""
    rng = random.Random(6)
    seen = set()
    for index in range(80):
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        f = TernaryCubic(tuple(rng.randint(-3, 3) for _ in range(10)))
        if index % 2:
            # Planted: the fiber at (1 : a : b) is (v1 + 2 v2)^3.
            f = TernaryCubic.from_poly((v1 + 2 * v2) ** 3 + (v0 + a * v1 + b * v2)
                                       * f.as_poly().partial_derivative("v0"))
        if f.is_zero():
            continue
        fiber = etamap.fiber_binary_cubic(f).entries()
        expected = etamap.is_perfect_cube(etamap.BinaryCubic(
            *(e.evaluate({"u1": a, "u2": b}) for e in fiber)))
        assert classify_mod._perfect_cube_fiber(f, (1, a, b)) == expected
        seen.add(expected)
    assert seen == {True, False}


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
    the repeated part of G3 in condition (2) included, is certified on a
    line, so no exact gradient gcd runs."""
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
    for module in (torus, classify_mod):
        _counting(monkeypatch, module, "gcd", calls)
    torus.total_branch_points(pair)
    assert calls == []
    assert classify(CoverSpec.torus(pair)).case == CASE_CUBIC_SURFACE
    assert calls.count((pair.G2, pair.G3)) == 2
