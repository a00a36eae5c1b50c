"""Classification of cover specifications: flag bundle vs cubic surface.

A cover can be given as a ternary cubic on the dual plane, as a torus pair
(G2, G3), or as raw chart data (a, b, c, d).  The report carries the branch
form, its S + 2T decomposition, the total-branch locus and the certificates
backing the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import cover as cover_mod
from . import etamap, torus
from .cover import AffineCoverData, BranchDecomposition
from .errors import (
    DegenerateCover,
    DegenerateCubic,
    LemmaViolation,
    TripleCoverError,
)
from .polyring import (
    PROJECTION_CENTERS,
    MPoly,
    T_VARS,
    V_VARS,
    X_VARS,
    _on_line,
    gcd,
    homogenize,
    projective_point,
    repeated_part,
    resultant,
    squarefree_line,
)
from .polyparse import print_poly
from .univar import lift_directions

CASE_FLAG_BUNDLE = "FlagBundle"
CASE_CUBIC_SURFACE = "CubicSurface"
CASE_NOT_NORMAL = "NotNormal"
CASE_INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class CoverSpec:
    kind: str  # "flag" | "torus" | "raw"
    flag_cubic: etamap.TernaryCubic | None = None
    torus_pair: torus.TorusPair | None = None
    raw: AffineCoverData | None = None

    @classmethod
    def flag(cls, cubic: etamap.TernaryCubic) -> "CoverSpec":
        return cls("flag", flag_cubic=cubic)

    @classmethod
    def torus(cls, pair: torus.TorusPair) -> "CoverSpec":
        return cls("torus", torus_pair=pair)

    @classmethod
    def raw_data(cls, cov: AffineCoverData) -> "CoverSpec":
        return cls("raw", raw=cov)


@dataclass
class ClassificationReport:
    case: str
    branch_form: MPoly | None = None
    decomposition: BranchDecomposition | None = None
    total_branch: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# A2 cusp jet criterion


def _integer_frame(point):
    """A projective point, scaled to xk = 1 and to integers, the index k
    of its first nonzero coordinate, and the indices of the other two."""
    point = projective_point(point)
    scale = math.lcm(*(c.denominator for c in point))
    k = point.index(1)
    return point, tuple(int(c * scale) for c in point), k, [n for n in range(3) if n != k]


def a2_cusp_check(branch_form: MPoly, point) -> dict:
    """Jet test for an ordinary cusp of a ternary form of any degree at a
    rational point p.  On the line p + t*v, the coefficient c_n(v) of t^n is
    the degree-n jet at p evaluated at v (``polyring._on_line``).  With e_i,
    e_j the unit vectors off the first nonzero coordinate of p, p is on the
    curve when c_0 = 0 and singular when also c_1(e_i) = c_1(e_j) = 0.  Then
    p spans the kernel of every jet (Euler), so c_n on s*e_i + u*e_j is the
    whole germ, in no chart: an ordinary cusp when c_2 is a nonzero square
    and c_3 is nonzero at its root."""
    if branch_form.vars != X_VARS or not branch_form.is_homogeneous():
        raise TripleCoverError("branch form must be a form in (x0, x1, x2)")
    if branch_form.is_zero():
        raise DegenerateCover("cusp check of the zero form")
    point, p, _, others = _integer_frame(point)
    e_i, e_j = ([int(m == n) for m in range(3)] for n in others)

    def jets(v):
        # Padded so that the jets above the degree of the form read 0.
        return _on_line(branch_form, p, v) + [0, 0, 0]

    along_i, along_j = jets(e_i), jets(e_j)
    singular = not (along_i[0] or along_i[1] or along_j[1])
    alpha, gamma = along_i[2], along_j[2]
    beta = jets([a + b for a, b in zip(e_i, e_j)])[2] - alpha - gamma
    # The root (s : u) of alpha*s^2 + beta*s*u + gamma*u^2 when it is a square.
    s, u = (beta, -2 * alpha) if alpha else (2 * gamma, -beta)
    tangent = [s * a + u * b for a, b in zip(e_i, e_j)]
    return {"point": point, "on_curve": not along_i[0], "singular": singular,
            "is_cusp": bool(singular and (alpha or gamma)
                            and beta * beta == 4 * alpha * gamma and jets(tangent)[3])}


# ---------------------------------------------------------------------------
# Raw data recognition


def _match_torus(cov: AffineCoverData) -> torus.TorusPair | None:
    """Recognize the normal form (0, 1, -2*G3', G2') exactly."""
    if not cov.a.is_zero() or cov.b != 1:
        return None
    g2_chart = cov.d
    g3_chart = cov.c / Fraction(-2)
    if g2_chart.total_degree() > 2 or g3_chart.total_degree() > 3:
        return None
    return torus.TorusPair(
        homogenize(g2_chart, 2, X_VARS),
        homogenize(g3_chart, 3, X_VARS),
    )


def _match_flag(cov: AffineCoverData) -> etamap.TernaryCubic | None:
    """Invert the eta formulas linearly and verify the match exactly."""
    b, c = cov.b, cov.c
    t1 = b.terms.get((3, 0), Fraction(0))
    t2 = -b.terms.get((2, 0), Fraction(0)) / 3
    t4 = b.terms.get((1, 0), Fraction(0)) / 3
    t7 = -b.terms.get((0, 0), Fraction(0))
    t3 = c.terms.get((0, 2), Fraction(0)) / 3
    t6 = -c.terms.get((0, 1), Fraction(0)) / 3
    t10 = c.terms.get((0, 0), Fraction(0))
    t5 = -cov.a.terms.get((1, 0), Fraction(0))
    t8 = cov.a.terms.get((0, 0), Fraction(0))
    t9 = -cov.d.terms.get((0, 0), Fraction(0))
    candidate = etamap.TernaryCubic((t1, t2, t3, t4, t5, t6, t7, t8, t9, t10))
    if candidate.is_zero():
        return None
    data = etamap.eta(candidate)
    if (data.a, data.b, data.c, data.d) == (cov.a, cov.b, cov.c, cov.d):
        return candidate
    return None


# ---------------------------------------------------------------------------
# Singular point witness (for NotNormal reports)


def _singular_points(f: etamap.TernaryCubic, form: MPoly | None):
    """The rational singular points of f, least first by ``_witness_key``,
    read off its branch sextic ``form`` (None when D_f = 0: then f = l^2 m
    and the list holds one point of l).

    With q = (a, b, 1) the first of ``PROJECTION_CENTERS`` off f, f on the
    line (w0, w1, 0) + s*q is a cubic F(s) of degree 3 whose F' is the polar
    sum q_i df/dv_i, and ``lift_directions`` reads F's one multiple root at
    most off gcd(F, F').  With (1 : t) for the line through q and (1, t, 0),
    B = form on (0, 1, -b) + t*(-1, 0, a) is the eliminant Res_s(F, F') =
    +-f(q) disc F up to a nonzero constant, as disc F = -27 D_f at the line's
    dual point; a singular point p puts (p . x)^2 into the sextic.  For
    D_f = 0, the roots (1 : 0), (0 : 1) of w0*w1 lift to two points of l,
    whose v2-coordinates r, r' give l . (v2 = 0) = (r' : -r : 0).
    """
    fp = f.as_poly()
    gradient = [fp.partial_derivative(v) for v in V_VARS]
    q = next(c for c in PROJECTION_CENTERS if fp.evaluate(dict(zip(V_VARS, c))))
    polar = sum((c * d for c, d in zip(q, gradient)), MPoly.zero(V_VARS))
    line = ([0, 1], 2) if form is None else (_on_line(form, (0, 1, -q[1]), (-1, 0, q[0])), 6)
    lifted = lift_directions(fp, polar, *line, q)
    if lifted is None:
        raise LemmaViolation("a line through q holds two multiple points of f (internal bug)")
    points = [p for p, _ in lifted]
    if form is None:
        (_, _, r), (_, _, s) = points
        points = [(s, -r, 0) if r or s else (1, 0, 0)]
    singular = [projective_point(p) for p in points
                if not any(d.evaluate(dict(zip(V_VARS, p))) for d in gradient)]
    if form is None and not singular:
        raise LemmaViolation("D_f vanishes but f has no repeated line (internal bug)")
    return sorted(singular, key=_witness_key)


def _witness_key(point):
    """Points (1, p1, p2) first, then (0, 1, p2), then (0, 0, 1); within
    each, the coordinates in descending order."""
    return point.index(1), tuple(-c for c in point)


# ---------------------------------------------------------------------------
# Main entry points


def classify(spec: CoverSpec) -> ClassificationReport:
    if spec.kind == "flag":
        return _classify_flag(spec.flag_cubic)
    if spec.kind == "torus":
        return _classify_torus(spec.torus_pair)
    if spec.kind == "raw":
        return _classify_raw(spec.raw)
    raise TripleCoverError("unknown cover specification kind %r" % spec.kind)


def _classify_flag(f: etamap.TernaryCubic) -> ClassificationReport:
    """f is smooth exactly when D_f != 0 and the branch sextic
    homogenize(D_f, 6) is squarefree, since its repeated factors are the
    lines p0*x0 + p1*x1 + p2*x2 of the singular points p of f.  A line
    certificate proves it squarefree; otherwise a rational singular point
    proves f singular, and only without one is the sextic's repeated part
    taken."""
    if f is None or f.is_zero():
        raise DegenerateCubic("flag classification of the zero cubic")
    D = cover_mod.derived_invariants(etamap.eta(f)).D
    # Homogenized, so that a repeated x0 (singular point (1 : 0 : 0)) counts.
    form = None if D.is_zero() else homogenize(D, 6, X_VARS)
    certificates = {}
    if form is None or not _certify_line(certificates, form):
        witness = next(iter(_singular_points(f, form)), None)
        if witness is not None or not repeated_part(form).is_constant():
            report = ClassificationReport(CASE_NOT_NORMAL)
            report.certificates["smooth"] = False
            if witness is not None:
                report.certificates["singular_point"] = witness
                report.notes.append(
                    "dual cubic is singular at (%s : %s : %s)" % witness
                )
            else:
                report.notes.append("dual cubic is singular (no rational witness)")
            return report

    cert = etamap.verify_discrim_lemma(f, D)
    branch = form.monic()
    report = ClassificationReport(CASE_FLAG_BUNDLE, branch_form=branch,
                                  certificates=certificates)
    report.certificates["smooth"] = True
    report.certificates["lambda"] = cert.lam
    # The form is squarefree: S = form, T = 1.
    report.decomposition = cover_mod.split_branch(form, 1)
    locus = etamap._flex_locus(f)
    report.total_branch = {
        "count": locus.count,
        "rational_points": list(locus.rational_points),
    }

    cusp_verdicts = []
    for point in locus.rational_points:
        verdict = a2_cusp_check(branch, point)
        fiber_cube = _perfect_cube_fiber(f, point)
        cusp_verdicts.append(
            {"point": point, "a2_cusp": verdict["is_cusp"],
             "perfect_cube_fiber": fiber_cube}
        )
        if not verdict["is_cusp"] or not fiber_cube:
            report.case = CASE_INDETERMINATE
            report.notes.append(
                "rational branch point (%s : %s : %s) failed a cusp check"
                % point
            )
    report.certificates["cusps"] = cusp_verdicts
    return report


def _perfect_cube_fiber(f: etamap.TernaryCubic, point) -> bool:
    """Is the fiber cubic at a projective point x, f on the dual line
    v . x = 0, a perfect cube?  The line is spanned by x_k e_n - x_n e_k for
    the first nonzero coordinate x_k and the two other indices n."""
    _, x, k, others = _integer_frame(point)
    span = [[x[k] * (m == n) - x[n] * (m == k) for m in range(3)] for n in others]
    return etamap.is_perfect_cube(etamap.BinaryCubic(*_on_line(f.as_poly(), *span)))


def _classify_torus(pair: torus.TorusPair) -> ClassificationReport:
    if pair is None:
        raise TripleCoverError("missing torus pair")
    delta = pair.delta()
    if delta.is_zero():
        report = ClassificationReport(CASE_NOT_NORMAL)
        report.notes.append("G2^3 + G3^2 = 0: the branch form vanishes")
        return report
    conditions = torus.check_conditions(pair)
    branch = delta.monic()
    report = ClassificationReport(CASE_CUBIC_SURFACE, branch_form=branch)
    report.certificates["conditions"] = conditions
    if not conditions.all_hold():
        report.case = CASE_NOT_NORMAL
        for name, verdict in (("2", conditions.condition2),
                              ("3", conditions.condition3)):
            if not verdict.holds:
                report.notes.append(
                    "condition (%s) fails%s" % (
                        name,
                        "" if verdict.witness is None
                        else " with witness %s" % print_poly(verdict.witness),
                    )
                )
        return report
    # Conditions (2) and (3) fix the double part T of the branch sextic
    # delta = G2^3 + G3^2.  If E divides G2 and G3, then E divides G3 once
    # by (2), so v_E(G3^2) = 2 < 3 <= v_E(G2^3) and v_E(delta) = 2.  If
    # E^2 divides delta, then E divides G2 by (3), hence E divides G3.  So
    # T = gcd(G2, G3) (monic and squarefree) and S = delta / T^2.  The
    # normal form (0, 1, -2*G3, G2) has A = -G2, B = 2*G3 and C = G2^2, so
    # its branch form is D = B^2 - 4AC = 4 * delta.
    report.decomposition = cover_mod.split_branch(4 * delta, gcd(pair.G2, pair.G3))
    _certify_line(report.certificates, report.decomposition.S)
    report.certificates["surface"] = torus.cubic_surface_form(pair)
    if pair.G2.is_zero():
        report.notes.append(
            "G2 = 0: totally branched along the whole curve T = G3 = 0")
        return report
    try:
        locus = torus.total_branch_points(pair)
        report.total_branch = {
            "count": locus.count_with_multiplicity,
            "rational_points": [p for p, _ in locus.rational_points],
            "multiplicities": dict(
                (p, m) for p, m in locus.rational_points
            ),
        }
    except TripleCoverError as exc:
        report.notes.append("total branch point search failed: %s" % exc)
    return report


def _certify_line(certificates: dict, S: MPoly) -> bool:
    """Record as ``squarefree_line`` the line of ``SQUAREFREE_LINES`` on
    which S is squarefree; False when no listed line is such a line."""
    line = squarefree_line(S)
    if line is not None:
        certificates["squarefree_line"] = line
    return line is not None


def _classify_raw(cov: AffineCoverData) -> ClassificationReport:
    if cov is None:
        raise TripleCoverError("missing raw cover data")
    if cov.is_zero():
        raise DegenerateCover("all four data polynomials vanish")
    pair = _match_torus(cov)
    if pair is not None and not pair.delta().is_zero():
        report = _classify_torus(pair)
        report.notes.append("raw data matched the cubic-surface normal form")
        return report
    cubic = _match_flag(cov)
    if cubic is not None:
        report = _classify_flag(cubic)
        report.notes.append("raw data matched the eta normal form")
        return report

    report = ClassificationReport(CASE_INDETERMINATE)
    D = cover_mod.derived_invariants(cov).D
    report.notes.append("raw data matches neither constructed normal form")
    if D.is_zero():
        report.notes.append("branch polynomial D vanishes identically")
        return report
    report.branch_form = homogenize(D, 6, X_VARS).monic() \
        if D.total_degree() <= 6 else None
    try:
        report.decomposition = cover_mod.branch_decomposition(D)
    except TripleCoverError as exc:
        report.notes.append("branch decomposition failed: %s" % exc)
    return report


def cross_validate(report: ClassificationReport):
    """Re-check the bookkeeping of a finished report, and its
    ``squarefree_line`` certificate over Q; returns violations."""
    violations = []
    if report.branch_form is not None:
        if report.branch_form.is_zero() or not report.branch_form.is_homogeneous() \
                or report.branch_form.total_degree() != 6:
            violations.append("branch form is not a nonzero degree-6 form")
    decomposition = report.decomposition
    if decomposition is not None:
        deg_s = max(decomposition.S.total_degree(), 0)
        deg_t = max(decomposition.T.total_degree(), 0)
        if deg_s + 2 * deg_t != 6:
            violations.append(
                "branch degrees violate deg S + 2 deg T = 6 (%d + 2*%d)"
                % (deg_s, deg_t)
            )
        rebuilt = decomposition.S * decomposition.T ** 2 * decomposition.unit
        if rebuilt != decomposition.degree6_form:
            violations.append("S * T^2 does not rebuild the branch form")
        line = report.certificates.get("squarefree_line")
        if line is not None and not _squarefree_on(decomposition.S, line):
            violations.append("S is not squarefree on its certificate line "
                              "(a, b) = %r of x2 = a*x0 + b*x1" % (line,))
    if report.case == CASE_FLAG_BUNDLE:
        if decomposition is None or not decomposition.T.is_constant():
            violations.append("flag-bundle branch must be reduced (T = 1)")
        if report.total_branch.get("count") != 9:
            violations.append("flag-bundle reports must carry 9 cusps")
    if report.case == CASE_CUBIC_SURFACE:
        surface = report.certificates.get("surface")
        if surface is not None and report.branch_form is not None:
            disc = surface.x3_discriminant()
            exps, lead = report.branch_form.leading_term()
            mu = disc.terms.get(exps, Fraction(0)) / lead
            if not mu or disc != report.branch_form * mu:
                violations.append(
                    "surface discriminant is not proportional to the branch"
                )
    return violations


def _squarefree_on(form: MPoly, line) -> bool:
    """Does the form restrict to a squarefree binary form of its degree d on
    the line x2 = a*x0 + b*x1?  Checked over Q, independently of
    ``squarefree_line``: form(1, t, a + b*t) has degree at least d - 1 (at
    most a simple root at x0 = 0) and a nonzero resultant with its
    derivative."""
    a, b = line
    t = MPoly.variable(T_VARS, "t")
    x = form.vars
    restricted = form.substitute({x[0]: 1, x[1]: t, x[2]: a + b * t}, T_VARS)
    degree = restricted.total_degree()
    if degree < max(form.total_degree() - 1, 0):
        return False
    return degree == 0 or \
        not resultant(restricted, restricted.partial_derivative("t"), "t").is_zero()
