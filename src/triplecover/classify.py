"""Classification of cover specifications: flag bundle vs cubic surface.

A cover can be given as a ternary cubic on the dual plane, as a torus pair
(G2, G3), or as raw chart data (a, b, c, d).  The report carries the branch
form, its S + 2T decomposition, the total-branch locus and the certificates
backing the verdict.
"""

from __future__ import annotations

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
    CHART_PERMS,
    PROJECTION_CENTERS,
    MPoly,
    T_VARS,
    U_VARS,
    V_VARS,
    X_VARS,
    dehomogenize,
    divides,
    gcd,
    homogenize,
    projective_point,
    repeated_part,
    resultant,
    squarefree_line,
    squarefree_part,
)
from .polyparse import print_poly
from .univar import common_points

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


def _to_chart(point):
    """The swap ``CHART_PERMS[k]`` for the first nonzero coordinate xk of a
    projective point, the point scaled to xk = 1, and the chart coordinates
    (u1, u2) of the swapped point in the chart x0 != 0."""
    scaled = projective_point(point)
    perm = CHART_PERMS[scaled.index(1)]
    return perm, scaled, tuple(scaled[perm[j]] for j in (1, 2))


def a2_cusp_check(branch_form: MPoly, point) -> dict:
    """Jet test for an ordinary cusp of a plane curve at a rational point.

    The quadratic jet at the point must be a nonzero perfect square l^2 and
    l must not divide the cubic jet.
    """
    if branch_form.vars != X_VARS:
        raise TripleCoverError("branch form must live in (x0, x1, x2)")
    perm, point, p = _to_chart(point)
    chart = dehomogenize(branch_form.permute_vars(perm), U_VARS)
    translated = chart.substitute(
        {
            "u1": MPoly.variable(U_VARS, "u1") + p[0],
            "u2": MPoly.variable(U_VARS, "u2") + p[1],
        },
        U_VARS,
    )
    jets = {}
    for exps, c in translated.terms.items():
        jets.setdefault(sum(exps), {})[exps] = c
    f0 = MPoly(U_VARS, jets.get(0, {}))
    f1 = MPoly(U_VARS, jets.get(1, {}))
    f2 = MPoly(U_VARS, jets.get(2, {}))
    f3 = MPoly(U_VARS, jets.get(3, {}))
    result = {
        "point": point,
        "on_curve": f0.is_zero(),
        "singular": f0.is_zero() and f1.is_zero(),
        "is_cusp": False,
        "quadratic_jet": f2,
        "cubic_jet": f3,
    }
    if not (result["on_curve"] and result["singular"]) or f2.is_zero():
        return result
    alpha = f2.terms.get((2, 0), Fraction(0))
    beta = f2.terms.get((1, 1), Fraction(0))
    gamma = f2.terms.get((0, 2), Fraction(0))
    if beta * beta - 4 * alpha * gamma != 0:
        return result  # rank-2 jet: node, not a cusp
    u1 = MPoly.variable(U_VARS, "u1")
    u2 = MPoly.variable(U_VARS, "u2")
    if alpha:
        line = 2 * alpha * u1 + beta * u2
    elif gamma:
        line = beta * u1 + 2 * gamma * u2
    else:
        return result  # beta = 0 too, so f2 = 0: handled above
    result["square_root"] = line
    divides_cubic, _ = divides(line, f3)
    result["is_cusp"] = not divides_cubic
    return result


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
    allowed_b = {(3, 0), (2, 0), (1, 0), (0, 0)}
    allowed_c = {(0, 3), (0, 2), (0, 1), (0, 0)}
    if any(e not in allowed_b for e in b.terms):
        return None
    if any(e not in allowed_c for e in c.terms):
        return None
    t1 = b.terms.get((3, 0), Fraction(0))
    t2 = -b.terms.get((2, 0), Fraction(0)) / 3
    t4 = b.terms.get((1, 0), Fraction(0)) / 3
    t7 = -b.terms.get((0, 0), Fraction(0))
    t3 = c.terms.get((0, 2), Fraction(0)) / 3
    t6 = -c.terms.get((0, 1), Fraction(0)) / 3
    t10 = c.terms.get((0, 0), Fraction(0))
    if c.terms.get((0, 3), Fraction(0)) != -t1:
        return None
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


def _singular_points(f: etamap.TernaryCubic, reduced: bool):
    """The rational singular points of f, least first by ``_witness_key``.

    ``reduced`` says that D_f != 0.  Otherwise f has a repeated line, and
    the list holds one point of it.  The singular points of a reduced f are
    common points of f and its polar conic sum q_i df/dv_i at q, the first
    of ``PROJECTION_CENTERS`` off f.  A common point on a line through q is
    a singular point or a point where the line is tangent, so the line
    meets f at least twice there.  The line meets f only three times, so
    each direction holds one common point, and the curves share no
    component.  The polar is 3 f(q) != 0 at q, so ``common_points`` tries q
    first and accepts it; the points where the gradient vanishes are kept.
    """
    fp = f.as_poly()
    gradient = [fp.partial_derivative(v) for v in V_VARS]
    if reduced:
        q = next(c for c in PROJECTION_CENTERS if fp.evaluate(dict(zip(V_VARS, c))))
        polar = sum((c * d for c, d in zip(q, gradient)), MPoly.zero(V_VARS))
        _, _, _, common = common_points(fp, polar)
        points = [p for p, _ in common]
    else:
        line = squarefree_part(repeated_part(fp))
        a, b, _ = (line.terms.get(e, Fraction(0))
                   for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        points = [projective_point((-b, a, 0) if a or b else (1, 0, 0))]
    singular = [p for p in points
                if not any(d.evaluate(dict(zip(V_VARS, p))) for d in gradient)]
    if not (reduced or singular):
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
        witness = next(iter(_singular_points(f, form is not None)), None)
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
    """Is the fiber cubic at a projective point a perfect cube?

    Rotates to a chart where the point is finite before restricting.
    """
    perm, _, chart_pt = _to_chart(point)
    fc = f if perm == CHART_PERMS[0] else f.permuted(perm)
    return etamap.is_perfect_cube(etamap.fiber_binary_cubic(fc, chart_pt))


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
    probes = []
    for point in ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                  (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))):
        verdict = cover_mod.is_total_branch_point(cov, point)
        probes.append({"point": point, "status": verdict.status})
    report.certificates["point_probes"] = probes
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
