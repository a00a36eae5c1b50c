"""Ternary cubics on the dual plane and their induced cover data.

The eta map sends a cubic form f in (v0, v1, v2) to chart cover data
(a_f, b_f, c_f, d_f).  The binary cubic obtained by restricting f to the
pencil of lines through a chart point has a discriminant delta_f that is
proportional to the branch polynomial D_f; the proportionality constant is
-27 under the conventions fixed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import AffineCoverData, derived_invariants
from .errors import (
    DegenerateCover,
    DegenerateCubic,
    LemmaViolation,
    NotSmooth,
    TripleCoverError,
)
from .polyring import (
    MPoly,
    U_VARS,
    UV_VARS,
    V_VARS,
    X_VARS,
    homogenize,
    projective_point,
    repeated_part,
)
from .univar import common_points

# The monomials of a ternary cubic with the binomial scale of t1..t10.
_MONOMIALS = (
    ((3, 0, 0), 1), ((2, 1, 0), 3), ((2, 0, 1), 3), ((1, 2, 0), 3),
    ((1, 1, 1), 3), ((1, 0, 2), 3), ((0, 3, 0), 1), ((0, 2, 1), 3),
    ((0, 1, 2), 3), ((0, 0, 3), 1),
)


@dataclass(frozen=True)
class TernaryCubic:
    """Coefficients (t1..t10) of
    t1*v0^3 + 3*t2*v0^2*v1 + 3*t3*v0^2*v2 + 3*t4*v0*v1^2 + 3*t5*v0*v1*v2
    + 3*t6*v0*v2^2 + t7*v1^3 + 3*t8*v1^2*v2 + 3*t9*v1*v2^2 + t10*v2^3.
    """

    t: tuple  # ten Fractions

    def __post_init__(self):
        if len(self.t) != 10:
            raise ValueError("a ternary cubic needs exactly ten coefficients")
        object.__setattr__(self, "t", tuple(Fraction(x) for x in self.t))

    def is_zero(self) -> bool:
        return not any(self.t)

    def as_poly(self) -> MPoly:
        terms = {}
        for (exps, scale), coeff in zip(_MONOMIALS, self.t):
            if coeff:
                terms[exps] = scale * coeff
        return MPoly(V_VARS, terms)

    @classmethod
    def from_poly(cls, p: MPoly) -> "TernaryCubic":
        if p.vars != V_VARS:
            raise TripleCoverError("ternary cubics live in (v0, v1, v2)")
        if not p.is_zero() and (not p.is_homogeneous() or p.total_degree() != 3):
            raise TripleCoverError("expected a homogeneous cubic form")
        t = [Fraction(p.terms.get(exps, 0)) / scale for exps, scale in _MONOMIALS]
        return cls(tuple(t))


@dataclass(frozen=True)
class BinaryCubic:
    """p*v1^3 + q*v1^2*v2 + r*v1*v2^2 + s*v2^3.  The entries are MPoly in
    (u1, u2) from ``fiber_binary_cubic``, or the integers of
    ``classify._perfect_cube_fiber`` on one dual line."""

    p: MPoly
    q: MPoly
    r: MPoly
    s: MPoly

    def entries(self):
        return (self.p, self.q, self.r, self.s)


@dataclass(frozen=True)
class DiscrimCertificate:
    delta_f: MPoly
    D_f: MPoly
    lam: Fraction


@dataclass(frozen=True)
class TotalBranchLocus:
    count: int
    rational_points: tuple  # projective points as (x0, x1, x2) Fractions


def eta(f: TernaryCubic) -> AffineCoverData:
    """Cover data (a_f, b_f, c_f, d_f) of a ternary cubic (Miranda, Amer. J.
    Math. 107, 1985), linear in t1..t10: one term table in (u1, u2) each."""
    if f.is_zero():
        raise DegenerateCubic("eta of the zero cubic")
    t1, t2, t3, t4, t5, t6, t7, t8, t9, t10 = f.t
    a = MPoly(U_VARS, {(2, 1): -t1, (1, 1): 2 * t2, (2, 0): t3, (0, 1): -t4,
                       (1, 0): -t5, (0, 0): t8})
    b = MPoly(U_VARS, {(3, 0): t1, (2, 0): -3 * t2, (1, 0): 3 * t4, (0, 0): -t7})
    c = MPoly(U_VARS, {(0, 3): -t1, (0, 2): 3 * t3, (0, 1): -3 * t6, (0, 0): t10})
    d = MPoly(U_VARS, {(1, 2): t1, (0, 2): -t2, (1, 1): -2 * t3, (0, 1): t5,
                       (1, 0): t6, (0, 0): -t9})
    return AffineCoverData(a, b, c, d)


def fiber_binary_cubic(f: TernaryCubic) -> BinaryCubic:
    """Restriction of f to the dual line of the chart point (1 : u1 : u2),
    v0 = -u1*v1 - u2*v2, with entries in (u1, u2).  The fiber at one
    rational point is ``classify._perfect_cube_fiber``'s, in no chart."""
    u1, u2, v1, v2 = (MPoly.variable(UV_VARS, v) for v in UV_VARS)
    restricted = f.as_poly().substitute(
        {"v0": -u1 * v1 - u2 * v2, "v1": v1, "v2": v2}, UV_VARS)
    # Homogeneous of degree 3 in (v1, v2), so the power of v1 fixes that of v2.
    buckets = restricted.coefficients_in("v1")
    return BinaryCubic(*[
        MPoly(U_VARS, {e[:2]: c for e, c in buckets[k].terms.items()})
        if k in buckets else MPoly.zero(U_VARS)
        for k in (3, 2, 1, 0)
    ])


def binary_cubic_discriminant(bc: BinaryCubic) -> MPoly:
    """18pqrs - 4q^3 s + q^2 r^2 - 4p r^3 - 27 p^2 s^2, read off the Hessian
    covariant (h0, h1, h2) as (4*h0*h2 - h1^2) / 3: the classical identity
    disc F = -disc(Hess F) / 3 in Z[p, q, r, s], at eight products of
    entries."""
    h0, h1, h2 = hessian_covariant(bc)
    return (4 * h0 * h2 - h1 * h1) / Fraction(3)


def delta_f(f: TernaryCubic) -> MPoly:
    """Discriminant of the symbolic fiber cubic; chart dual-sextic equation."""
    if f.is_zero():
        raise DegenerateCubic("delta of the zero cubic")
    return binary_cubic_discriminant(fiber_binary_cubic(f))


def verify_discrim_lemma(f: TernaryCubic, D: MPoly | None = None) -> DiscrimCertificate:
    """Certify delta_f = lambda * D_f as an exact identity.

    ``D`` is D_f when the caller has it already; it defaults to
    ``derived_invariants(eta(f)).D``.  delta_f is always computed from f
    itself, so the identity is checked either way.
    """
    delta = delta_f(f)
    if D is None:
        D = derived_invariants(eta(f)).D
    if D.is_zero():
        raise DegenerateCover("branch polynomial D_f vanishes identically")
    exps, lead = D.leading_term()
    lam = delta.terms.get(exps, Fraction(0)) / lead
    if not lam or delta != D * lam:
        raise LemmaViolation(
            "delta_f is not a constant multiple of D_f (internal bug)"
        )
    return DiscrimCertificate(delta, D, lam)


def hessian_covariant(bc: BinaryCubic):
    """(3pr - q^2, 9ps - qr, 3qs - r^2); vanishes iff bc is a perfect cube."""
    p, q, r, s = bc.entries()
    return (3 * p * r - q * q, 9 * p * s - q * r, 3 * q * s - r * r)


def is_perfect_cube(bc: BinaryCubic) -> bool:
    """Is the binary cubic (MPoly or numeric entries) the cube of a linear form?"""
    return any(bc.entries()) and not any(hessian_covariant(bc))


# ---------------------------------------------------------------------------
# Smoothness


def is_smooth_cubic(f: TernaryCubic) -> bool:
    """Is f smooth?  Exactly when D_f != 0 and the branch sextic
    homogenize(D_f, 6) is squarefree.

    The repeated factors of the sextic are the lines p0*x0 + p1*x1 + p2*x2 of
    the singular points p of f, since every line through a singular point
    meets f twice there, and D_f vanishes exactly when f has a repeated
    component.  ``repeated_part`` certifies the sextic on a line of
    ``SQUAREFREE_LINES`` and takes its gradient gcd only when no line does.
    ``classify`` decides the same question by the line certificate, then a
    rational singular point, then the repeated part.
    """
    if f.is_zero():
        raise DegenerateCubic("smoothness of the zero cubic")
    D = derived_invariants(eta(f)).D
    # Homogenized, so that a repeated x0 (singular point (1 : 0 : 0)) counts.
    return not D.is_zero() and repeated_part(homogenize(D, 6, X_VARS)).is_constant()


# ---------------------------------------------------------------------------
# Total branch locus (cusps of the dual sextic = tangent lines at the flexes)


def _hessian(fp: MPoly) -> MPoly:
    """Determinant of the second partials of a ternary form."""
    h = [[fp.partial_derivative(a).partial_derivative(b) for b in fp.vars]
         for a in fp.vars]
    return (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )


def total_branch_locus(f: TernaryCubic) -> TotalBranchLocus:
    """The nine cusps of the dual sextic of a smooth cubic f.

    A singular f raises NotSmooth by ``is_smooth_cubic`` before any
    projection; ``classify``, which has certified smoothness from its own
    D_f, calls ``_flex_locus`` directly.
    """
    if f.is_zero():
        raise DegenerateCubic("total branch locus of the zero cubic")
    if not is_smooth_cubic(f):
        raise NotSmooth("the cubic is singular")
    return _flex_locus(f)


def _flex_locus(f: TernaryCubic) -> TotalBranchLocus:
    """The cusps of the dual sextic of a cubic f known to be smooth: the
    tangent lines grad f(p) at the flexes p, the points of f = Hess(f) = 0
    found by ``univar.common_points``.

    A smooth cubic has nine simple flexes, so the count 9 rests on the
    smoothness certificate, not on the eliminant.  Every rational flex lies
    on a rational direction, and a rational direction through three
    collinear flexes fails to lift, so the accepted center yields every
    rational flex once.
    """
    fp = f.as_poly()
    *_, flexes = common_points(fp, _hessian(fp))
    gradient = [fp.partial_derivative(v) for v in V_VARS]
    cusps = [projective_point(d.evaluate(dict(zip(V_VARS, flex))) for d in gradient)
             for flex, _ in flexes]
    # Chart order: the points (1, a, b) by (a, b), then (0, 1, c), (0, 0, 1).
    cusps.sort(key=lambda p: (p.index(1), p))
    return TotalBranchLocus(9, tuple(cusps))
