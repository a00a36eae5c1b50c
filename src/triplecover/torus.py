"""Torus pairs (G2, G3), the cubic-surface cover and the branch conditions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import AffineCoverData
from .errors import (
    CommonComponent,
    DegenerateTorus,
    IndeterminateCount,
    TripleCoverError,
)
from .polyring import (
    PROJECTION_CENTERS,
    MPoly,
    U_VARS,
    X4_VARS,
    X_VARS,
    center_matrix,
    dehomogenize,
    divides,
    gcd,
    lift_direction,
    linear_change,
    projective_point,
    radical_divides,
    repeated_part,
    resultant,
    squarefree_line,
    squarefree_part,
)
from .univar import derivative, eval_coeffs, rational_roots


@dataclass(frozen=True)
class TorusPair:
    G2: MPoly  # homogeneous of degree 2 in (x0, x1, x2)
    G3: MPoly  # homogeneous of degree 3

    def __post_init__(self):
        for g, deg in ((self.G2, 2), (self.G3, 3)):
            if g.vars != X_VARS:
                raise TripleCoverError("torus forms live in (x0, x1, x2)")
            if not g.is_zero() and (not g.is_homogeneous() or g.total_degree() != deg):
                raise TripleCoverError(
                    "expected a homogeneous form of degree %d" % deg
                )

    def delta(self) -> MPoly:
        """The degree-6 form G2^3 + G3^2."""
        return self.G2 ** 3 + self.G3 ** 2

    def permuted(self, perm) -> "TorusPair":
        return TorusPair(self.G2.permute_vars(perm), self.G3.permute_vars(perm))


@dataclass(frozen=True)
class ConditionVerdict:
    holds: bool
    witness: MPoly | None = None
    scale: Fraction | None = None


@dataclass(frozen=True)
class ConditionReport:
    condition1: ConditionVerdict | None  # None when not checked
    condition2: ConditionVerdict
    condition3: ConditionVerdict
    delta: MPoly

    def all_hold(self) -> bool:
        checks = [self.condition2, self.condition3]
        if self.condition1 is not None:
            checks.append(self.condition1)
        return all(c.holds for c in checks)


@dataclass(frozen=True)
class CubicSurfaceForm:
    """x3^3 + 3*G2*x3 + 2*G3 as a quaternary form."""

    form: MPoly

    def x3_discriminant(self) -> MPoly:
        """Discriminant w.r.t. x3; equals -108*(G2^3 + G3^2)."""
        d = self.form.partial_derivative("x3")
        res = resultant(self.form, d, "x3")
        disc = -res  # monic cubic: disc = (-1)^(3*2/2) * Res(f, f')
        return MPoly(X_VARS, {e[:3]: c for e, c in disc.terms.items()})


def build_cover(pair: TorusPair) -> AffineCoverData:
    """Normal-form cover data (0, 1, -2*G3', G2') of a torus pair."""
    if pair.delta().is_zero():
        raise DegenerateTorus("G2^3 + G3^2 = 0: no cover is defined")
    return AffineCoverData(
        MPoly.zero(U_VARS),
        MPoly.constant(U_VARS, 1),
        -2 * dehomogenize(pair.G3, U_VARS),
        dehomogenize(pair.G2, U_VARS),
    )


def cubic_surface_form(pair: TorusPair) -> CubicSurfaceForm:
    lift = {v: MPoly.variable(X4_VARS, v) for v in X_VARS}
    g2 = pair.G2.substitute(lift, X4_VARS)
    g3 = pair.G3.substitute(lift, X4_VARS)
    x3 = MPoly.variable(X4_VARS, "x3")
    return CubicSurfaceForm(x3 ** 3 + 3 * g2 * x3 + 2 * g3)


def condition1(pair: TorusPair, delta: MPoly) -> ConditionVerdict:
    """Does G2^3 + G3^2 cut out the given degree-6 form (up to scale)?"""
    if delta.is_zero():
        raise TripleCoverError("condition 1 against the zero form")
    if not delta.is_homogeneous() or delta.total_degree() != 6:
        raise TripleCoverError("condition 1 needs a degree-6 form")
    own = pair.delta()
    if own.is_zero():
        return ConditionVerdict(False)
    exps, lead = delta.leading_term()
    mu = own.terms.get(exps, Fraction(0)) / lead
    if mu and own == delta * mu:
        return ConditionVerdict(True, scale=mu)
    return ConditionVerdict(False)


def condition2(pair: TorusPair) -> ConditionVerdict:
    """No prime divides G2 while its square divides G3."""
    if pair.G2.is_zero() and pair.G3.is_zero():
        raise TripleCoverError("condition 2 with both forms zero")
    if pair.G3.is_zero():
        # Every prime of G2 violates (2) since E^2 | 0.
        if pair.G2.is_constant():
            return ConditionVerdict(True)
        return ConditionVerdict(False, witness=squarefree_part(pair.G2))
    if pair.G2.is_zero():
        rep = repeated_part(pair.G3)
        if rep.is_constant():
            return ConditionVerdict(True)
        return ConditionVerdict(False, witness=squarefree_part(rep))
    g = gcd(pair.G2, repeated_part(pair.G3))
    if g.is_constant():
        return ConditionVerdict(True)
    return ConditionVerdict(False, witness=g)


def condition3(pair: TorusPair) -> ConditionVerdict:
    """Every prime whose square divides G2^3 + G3^2 must divide G2.

    With G2 != 0 and T = gcd(G2, G3), the condition holds when T^2 divides
    delta = G2^3 + G3^2 and ``squarefree_line`` certifies delta / T^2: a
    prime E with E^2 | delta and E not dividing T would have E^2 | delta / T^2,
    so E divides T, which divides G2.  Otherwise the sextic's gradient gcd
    (``repeated_part``) decides and gives the witness.
    """
    delta = pair.delta()
    if delta.is_zero():
        raise DegenerateTorus("G2^3 + G3^2 = 0: condition 3 undefined")
    if not pair.G2.is_zero():
        T = gcd(pair.G2, pair.G3)
        ok, rest = divides(T * T, delta)
        if ok and squarefree_line(rest) is not None:
            return ConditionVerdict(True)
    rep = repeated_part(delta)
    if rep.is_constant():
        return ConditionVerdict(True)
    if pair.G2.is_zero():
        # E | G2 never holds, so any repeated prime of delta violates (3).
        return ConditionVerdict(False, witness=squarefree_part(rep))
    ok, offending = radical_divides(rep, pair.G2)
    if ok:
        return ConditionVerdict(True)
    return ConditionVerdict(False, witness=offending)


def check_conditions(pair: TorusPair, delta: MPoly | None = None) -> ConditionReport:
    c1 = condition1(pair, delta) if delta is not None else None
    return ConditionReport(c1, condition2(pair), condition3(pair), pair.delta())


@dataclass(frozen=True)
class IntersectionLocus:
    count_with_multiplicity: int
    rational_points: tuple  # ((x0, x1, x2), multiplicity)
    eliminants: dict


def total_branch_points(pair: TorusPair) -> IntersectionLocus:
    """Intersection of the conic G2 = 0 and the cubic G3 = 0.

    Projects from the first of ``PROJECTION_CENTERS`` that lies off both
    curves and at which every rational direction (a rational root of the
    resultant in x2) holds a single intersection point, which is then
    rational.  The multiplicity of a direction's eliminant root is the sum
    of the intersection multiplicities of the points on it (the projection
    proof of Bezout's theorem), so here it is that of the one point.  The
    centers that fail lie on G2, on G3 or on one of the at most 15 lines
    through two of the 6 points: a curve of degree at most 20, which misses
    one of the centers.
    """
    if pair.G2.is_zero() or pair.G3.is_zero():
        raise CommonComponent("a zero form has no finite intersection")
    if not gcd(pair.G2, pair.G3).is_constant():
        raise CommonComponent("G2 and G3 share a component")
    for center in PROJECTION_CENTERS:
        m = center_matrix(center)
        g2 = linear_change(pair.G2, m)
        g3 = linear_change(pair.G3, m)
        lead2 = g2.terms.get((0, 0, 2))
        lead3 = g3.terms.get((0, 0, 3))
        if not lead2 or not lead3:
            continue
        # Constant leading coefficients in x2 and no common component: the
        # resultant is a nonzero binary sextic in (x0, x1).
        res = resultant(g2, g3, "x2")
        # res = sum_k c_k x0^(6-k) x1^k; directions with x0 != 0 are roots
        # of sum c_k t^k with t = x1/x0, and (0 : 1) has multiplicity
        # 6 - deg_t when the x1^6 coefficient vanishes.
        t_poly = [res.terms.get((6 - k, k, 0), Fraction(0)) for k in range(7)]
        t_deg = max(k for k, c in enumerate(t_poly) if c)
        directions = [
            ((Fraction(1), root), _root_multiplicity(t_poly, root))
            for root in rational_roots(t_poly)
        ]
        if t_deg < 6:
            directions.append(((Fraction(0), Fraction(1)), 6 - t_deg))
        points = []
        for (x0v, x1v), mult in directions:
            x2v = lift_direction(g2, g3, x0v, x1v)
            if x2v is None:
                break
            original = _apply_matrix(m, (x0v, x1v, x2v))
            points.append((projective_point(original), mult))
        else:
            return IntersectionLocus(
                count_with_multiplicity=6,
                rational_points=tuple(sorted(points)),
                eliminants={"resultant_x2": res, "matrix": m},
            )
    raise IndeterminateCount("no usable projection center found")


def _root_multiplicity(coeffs, root):
    """Multiplicity of a root of a nonzero ascending coefficient list: the
    number of derivatives, from the 0th on, that vanish there."""
    mult = 0
    while any(coeffs) and not eval_coeffs(coeffs, root):
        coeffs = derivative(coeffs)
        mult += 1
    return mult


def _apply_matrix(m, point):
    return tuple(
        sum(Fraction(m[i][j]) * point[j] for j in range(3)) for i in range(3)
    )
