"""Torus pairs (G2, G3), the cubic-surface cover and the branch conditions
(1) to (3), which ``check_conditions`` alone decides."""

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
    """x3^3 + 3*G2*x3 + 2*G3 as a quaternary form.  Its x3-discriminant is
    -108 (G2^3 + G3^2), which tests/test_lemmas.py proves for all G2, G3."""

    form: MPoly


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
    g2, g3 = (MPoly(X4_VARS, {e + (0,): c for e, c in g.terms.items()})
              for g in (pair.G2, pair.G3))
    x3 = MPoly.variable(X4_VARS, "x3")
    return CubicSurfaceForm(x3 ** 3 + 3 * g2 * x3 + 2 * g3)


def check_conditions(pair: TorusPair, delta: MPoly | None = None) -> ConditionReport:
    """Conditions (1) to (3) on a torus pair in one pass, with
    delta = G2^3 + G3^2 and T = gcd(G2, G3) built once.

    (1) Checked only when a target form is given: delta is a nonzero
    multiple of it, by the scale the verdict carries.

    (2) No prime divides G2 while its square divides G3.  Like the gcd of
    G2 and repeated_part(G3), but with no gradient gcd of G3, the witness
    gcd(T, G3 / squarefree_part(T)) has valuation min(a, b - 1) at a prime E
    with a = v_E(G2) >= 1 and b = v_E(G3) >= 1, and 0 elsewhere.  If a form
    is zero, the witness is the gcd's radical.

    (3) Every prime whose square divides delta divides G2, and the repeated
    part of delta / T^2 decides.  T^2 divides delta: for a prime E with
    v_E(G2) = a and v_E(G3) = b, v_E(delta) >= min(3a, 2b) >= 2 min(a, b)
    = v_E(T^2).  The offending primes, and so the witness, are those of the
    whole sextic: a prime E that does not divide G2 does not divide T, so
    E^2 divides delta / T^2 exactly when E^2 divides delta.  The quotient
    has degree 6 - 2 deg T, and ``repeated_part`` tries a line of
    ``SQUAREFREE_LINES`` on it before any gradient gcd.  Every prime
    divides G2 = 0, so (3) then holds.

    Errors come in the order of the conditions: a zero or non-sextic target
    (1), G2 = G3 = 0 (2), then delta = 0, on which (3) is undefined.
    """
    own, T = pair.delta(), gcd(pair.G2, pair.G3)
    c1 = None
    if delta is not None:
        if delta.is_zero():
            raise TripleCoverError("condition 1 against the zero form")
        if not delta.is_homogeneous() or delta.total_degree() != 6:
            raise TripleCoverError("condition 1 needs a degree-6 form")
        exps, lead = delta.leading_term()
        mu = own.terms.get(exps, Fraction(0)) / lead
        holds = bool(mu) and own == delta * mu
        c1 = ConditionVerdict(holds, scale=mu if holds else None)
    if pair.G2.is_zero() and pair.G3.is_zero():
        raise TripleCoverError("condition 2 with both forms zero")
    g = gcd(T, exact_divide(squarefree_part(T), pair.G3))
    if not g.is_constant() and (pair.G2.is_zero() or pair.G3.is_zero()):
        g = squarefree_part(g)
    c2 = ConditionVerdict(True) if g.is_constant() else ConditionVerdict(False, witness=g)
    if own.is_zero():
        raise DegenerateTorus("G2^3 + G3^2 = 0: condition 3 undefined")
    ok, offending = radical_divides(repeated_part(exact_divide(T * T, own)), pair.G2)
    c3 = ConditionVerdict(True) if ok else ConditionVerdict(False, witness=offending)
    return ConditionReport(c1, c2, c3, own)


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
