"""Torus pairs (G2, G3), the cubic-surface cover and the branch conditions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import AffineCoverData
from .errors import CommonComponent, DegenerateTorus, TripleCoverError
from .polyring import (
    MPoly,
    U_VARS,
    X4_VARS,
    X_VARS,
    dehomogenize,
    exact_divide,
    gcd,
    radical_divides,
    repeated_part,
    resultant,
    squarefree_part,
)
from .univar import common_points


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
    return _condition1(pair.delta(), delta)


def _condition1(own: MPoly, delta: MPoly) -> ConditionVerdict:
    if delta.is_zero():
        raise TripleCoverError("condition 1 against the zero form")
    if not delta.is_homogeneous() or delta.total_degree() != 6:
        raise TripleCoverError("condition 1 needs a degree-6 form")
    if own.is_zero():
        return ConditionVerdict(False)
    exps, lead = delta.leading_term()
    mu = own.terms.get(exps, Fraction(0)) / lead
    if mu and own == delta * mu:
        return ConditionVerdict(True, scale=mu)
    return ConditionVerdict(False)


def condition2(pair: TorusPair) -> ConditionVerdict:
    """No prime divides G2 while its square divides G3.  Like the gcd of G2
    and repeated_part(G3), but with no gradient gcd of G3, the witness
    gcd(T, G3 / squarefree_part(T)), T = gcd(G2, G3), has valuation
    min(a, b - 1) at a prime E with a = v_E(G2) >= 1 and b = v_E(G3) >= 1,
    and 0 elsewhere.  If a form is zero, the witness is the gcd's radical."""
    return _condition2(pair, gcd(pair.G2, pair.G3))


def _condition2(pair: TorusPair, T: MPoly) -> ConditionVerdict:
    if pair.G2.is_zero() and pair.G3.is_zero():
        raise TripleCoverError("condition 2 with both forms zero")
    g = gcd(T, exact_divide(squarefree_part(T), pair.G3))
    if g.is_constant():
        return ConditionVerdict(True)
    if pair.G2.is_zero() or pair.G3.is_zero():
        g = squarefree_part(g)
    return ConditionVerdict(False, witness=g)


def condition3(pair: TorusPair) -> ConditionVerdict:
    """Every prime whose square divides G2^3 + G3^2 must divide G2.

    The repeated part of delta / T^2 decides, where delta = G2^3 + G3^2
    and T = gcd(G2, G3); ``check_conditions`` builds both once.  T^2
    divides delta: for a prime E with v_E(G2) = a and v_E(G3) = b,
    v_E(delta) >= min(3a, 2b) >= 2 min(a, b) = v_E(T^2).  The offending
    primes, and so the witness, are those of the whole sextic: a prime E
    that does not divide G2 does not divide T, so E^2 divides delta / T^2
    exactly when E^2 divides delta.  The quotient has degree 6 - 2 deg T,
    and ``repeated_part`` tries a line of ``SQUAREFREE_LINES`` on it before
    any gradient gcd.  Every prime divides G2 = 0, so (3) then holds.
    """
    return _condition3(pair, pair.delta(), gcd(pair.G2, pair.G3))


def _condition3(pair: TorusPair, delta: MPoly, T: MPoly) -> ConditionVerdict:
    if delta.is_zero():
        raise DegenerateTorus("G2^3 + G3^2 = 0: condition 3 undefined")
    rep = repeated_part(exact_divide(T * T, delta))
    ok, offending = radical_divides(rep, pair.G2)
    if ok:
        return ConditionVerdict(True)
    return ConditionVerdict(False, witness=offending)


def check_conditions(pair: TorusPair, delta: MPoly | None = None) -> ConditionReport:
    """(1) to (3) in one pass: delta and T = gcd(G2, G3) are built once."""
    own, T = pair.delta(), gcd(pair.G2, pair.G3)
    c1 = _condition1(own, delta) if delta is not None else None
    return ConditionReport(c1, _condition2(pair, T), _condition3(pair, own, T), own)


@dataclass(frozen=True)
class IntersectionLocus:
    count_with_multiplicity: int
    rational_points: tuple  # ((x0, x1, x2), multiplicity)


def total_branch_points(pair: TorusPair) -> IntersectionLocus:
    """Intersection of the conic G2 = 0 and the cubic G3 = 0.

    ``univar.common_points`` projects it from the first center at which
    every rational direction holds a single intersection point, which is
    then rational and has the multiplicity of its direction.  The centers
    that fail lie on G2, on G3 or on one of the at most 15 lines through two
    of the 6 points.  A zero eliminant means that G2 and G3 share a
    component.
    """
    if pair.G2.is_zero() or pair.G3.is_zero():
        raise CommonComponent("a zero form has no finite intersection")
    try:
        *_, points = common_points(pair.G2, pair.G3)
    except CommonComponent:
        raise CommonComponent("G2 and G3 share a component") from None
    return IntersectionLocus(6, tuple(sorted(points)))
