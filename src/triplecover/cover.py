"""Local triple-cover calculus on the chart x0 != 0.

A cover is a tuple (a, b, c, d) of chart polynomials.  From it we derive
A = a^2 - b*d, B = a*d - b*c, C = d^2 - a*c and the branch polynomial
D = B^2 - 4*A*C, the multiplication table of the cover algebra, the
resolvent cubics, restrictions to lines and the connectivity / total-branch
probes used by the classifier.

The algebra is that of the binary cubic phi = (b, -3a, 3d, -c), with Hessian
covariant (-9A, 9B, -9C).  The point probe reads phi(p): total exactly when it
is a nonzero perfect cube (A = B = C = 0), degenerate when it is zero.  The
resolvent cubics serve only the connectivity probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCover, MultiplicityTooHigh, TripleCoverError
from .polyparse import print_poly
from .polyring import (
    MPoly,
    T_VARS,
    UZW_VARS,
    X_VARS,
    exact_divide,
    homogenize,
    squarefree_decomposition,
)
from .univar import rational_roots


@dataclass(frozen=True)
class AffineCoverData:
    a: MPoly
    b: MPoly
    c: MPoly
    d: MPoly

    def __post_init__(self):
        for part in (self.b, self.c, self.d):
            self.a._check_same(part)

    def is_zero(self) -> bool:
        return (
            self.a.is_zero()
            and self.b.is_zero()
            and self.c.is_zero()
            and self.d.is_zero()
        )

    def swapped(self) -> "AffineCoverData":
        """The (z, w)-swap symmetry (a, b, c, d) -> (d, c, b, a)."""
        return AffineCoverData(self.d, self.c, self.b, self.a)


@dataclass(frozen=True)
class DerivedInvariants:
    A: MPoly
    B: MPoly
    C: MPoly
    D: MPoly


@dataclass(frozen=True)
class BranchDecomposition:
    """Branch divisor split into simple part S and total part T.

    S and T are squarefree coprime homogeneous forms with
    unit * S * T^2 == degree6_form and deg S + 2 deg T = 6.
    """

    S: MPoly
    T: MPoly
    unit: Fraction
    degree6_form: MPoly


@dataclass(frozen=True)
class LineRestriction:
    aL: MPoly
    bL: MPoly
    cL: MPoly
    dL: MPoly


@dataclass(frozen=True)
class ResolventCubic:
    """Monic cubic y^3 + 0*y^2 + quad*y + const in the given coordinate."""

    coordinate: str  # "z" or "w"
    quad: MPoly  # -3A (z-form) or -3C (w-form)
    const: MPoly  # bB - 2aA (z-form) or cB - 2dC (w-form)

    def as_poly(self) -> MPoly:
        """The cubic as a polynomial in the data's variables and (z, w)."""
        vars = self.quad.vars + ("z", "w")
        y = MPoly.variable(vars, self.coordinate)
        ident = {v: MPoly.variable(vars, v) for v in self.quad.vars}
        quad, const = (p.substitute(ident, vars) for p in (self.quad, self.const))
        return y ** 3 + quad * y + const


@dataclass(frozen=True)
class ConnectivityVerdict:
    status: str  # "connected" | "disconnected" | "degenerate"
    witness_root: MPoly | None = None


@dataclass(frozen=True)
class TotalBranchVerdict:
    status: str  # "total" | "not_total" | "degenerate"


def derived_invariants(cov: AffineCoverData) -> DerivedInvariants:
    a, b, c, d = cov.a, cov.b, cov.c, cov.d
    A = a * a - b * d
    B = a * d - b * c
    C = d * d - a * c
    D = B * B - 4 * A * C
    return DerivedInvariants(A, B, C, D)


def multiplication_table(cov: AffineCoverData):
    """phi(z^2), phi(z*w), phi(w^2) as polynomials in (u1, u2, z, w)."""
    inv = derived_invariants(cov)
    ident = {v: MPoly.variable(UZW_VARS, v) for v in cov.a.vars}

    def lift(p):
        return p.substitute(ident, UZW_VARS)

    z = MPoly.variable(UZW_VARS, "z")
    w = MPoly.variable(UZW_VARS, "w")
    phi_zz = 2 * lift(inv.A) + lift(cov.a) * z + lift(cov.b) * w
    phi_zw = -lift(inv.B) - lift(cov.d) * z - lift(cov.a) * w
    phi_ww = 2 * lift(inv.C) + lift(cov.c) * z + lift(cov.d) * w
    return phi_zz, phi_zw, phi_ww


def fiber_equations(cov: AffineCoverData):
    """The three quadrics z^2 - phi(z^2), zw - phi(zw), w^2 - phi(w^2)."""
    phi_zz, phi_zw, phi_ww = multiplication_table(cov)
    z = MPoly.variable(UZW_VARS, "z")
    w = MPoly.variable(UZW_VARS, "w")
    return z * z - phi_zz, z * w - phi_zw, w * w - phi_ww


def resolvent_cubic(cov: AffineCoverData, coordinate: str = "z") -> ResolventCubic:
    if coordinate not in ("z", "w"):
        raise ValueError("coordinate must be 'z' or 'w'")
    if coordinate == "w":
        cov = cov.swapped()
    inv = derived_invariants(cov)
    quad = -3 * inv.A
    const = cov.b * inv.B - 2 * cov.a * inv.A
    return ResolventCubic(coordinate, quad, const)


def split_branch(form: MPoly, T) -> BranchDecomposition:
    """The decomposition of a degree-6 form with the given total part T.

    T is monic and squarefree and T^2 divides form; S is the monic quotient
    form / T^2 and the unit its leading coefficient.  With T = 1 (a
    squarefree form) nothing is divided: S is the form itself.
    """
    T = form._lift(T)
    S = form if T == 1 else exact_divide(T * T, form)
    return BranchDecomposition(S.monic(), T, S.leading_coefficient(), form)


def branch_decomposition(D: MPoly) -> BranchDecomposition:
    """Split the chart branch polynomial into unit * S * T^2 of degree 6,
    T being the product of the factors of multiplicity 2 in the
    ``squarefree_decomposition`` of the degree-6 form."""
    if D.is_zero():
        raise DegenerateCover("branch polynomial is identically zero")
    if D.total_degree() > 6:
        raise TripleCoverError(
            "branch polynomial has chart degree %d > 6" % D.total_degree()
        )
    form = homogenize(D, 6, X_VARS)
    T = MPoly.constant(X_VARS, 1)
    for factor, mult in squarefree_decomposition(form).parts:
        if mult == 2:
            T = T * factor
        elif mult > 2:
            raise MultiplicityTooHigh(
                "branch factor %s has multiplicity %d" % (print_poly(factor), mult)
            )
    return split_branch(form, T)


def restrict_to_line(cov: AffineCoverData, line) -> LineRestriction:
    """Restrict the cover data to a parametrized line (u1(t), u2(t))."""
    p1, p2 = line
    for p in (p1, p2):
        if p.vars != T_VARS:
            raise TripleCoverError("line parametrization must live in (t)")
        if p.total_degree() > 1:
            raise TripleCoverError("line parametrization must have degree <= 1")
    if p1.total_degree() < 1 and p2.total_degree() < 1:
        raise TripleCoverError("line parametrization is constant")
    assignment = {"u1": p1, "u2": p2}
    return LineRestriction(
        cov.a.substitute(assignment, T_VARS),
        cov.b.substitute(assignment, T_VARS),
        cov.c.substitute(assignment, T_VARS),
        cov.d.substitute(assignment, T_VARS),
    )


def _newton_lift(quad: MPoly, const: MPoly, r0: Fraction, n: int) -> MPoly:
    """The root of y^3 + quad*y + const in Q[[t]] through the simple root
    r0 at t = 0, modulo t^n.  Each step doubles the precision of the root r
    and of v = 1 / (3r^2 + quad), as the p-adic lift of ``rational_roots``
    does with p in place of t."""
    def truncate(p, k):
        return MPoly(T_VARS, {e: c for e, c in p.terms.items() if e[0] < k})

    quad, const = truncate(quad, n), truncate(const, n)
    r = MPoly.constant(T_VARS, r0)
    v = MPoly.constant(T_VARS, 1 / (3 * r0 * r0 + quad.evaluate({"t": 0})))
    k = 1
    while k < n:
        k = min(2 * k, n)
        r = truncate(r - v * (r ** 3 + quad * r + const), k)
        v = truncate(v * (2 - v * (3 * r * r + quad)), k)
    return r


def _polynomial_root_search(quad: MPoly, const: MPoly):
    """The least root r in Q[t] of y^3 + quad*y + const, or None.

    quad and const live in (t).  A root of degree e has r^3 of degree 3e,
    which only quad*r or const can cancel, so e is at most the bound
    max(deg quad / 2, deg const / 3).  With a zero discriminant
    -4*quad^3 - 27*const^2 the cubic is (y - a)^2 (y + 2a) with
    a = -3*const / (2*quad), a polynomial since a^2 = -quad/3.  Otherwise
    every root in Q[t] takes a rational value at the first sample t0 of
    0, 1, -1, 2, ... off the discriminant, and that value is a simple root
    of the cubic there.  Through a simple root passes exactly one root in
    Q[[t - t0]], so the Newton lift of each rational root at t0 to degree
    ``bound`` is the only candidate for a root through it.  Each candidate
    is checked exactly.  Of the roots, the least by their values at the
    first bound + 1 samples is returned.
    """
    t = MPoly.variable(T_VARS, "t")
    bound = max(-(-max(quad.total_degree(), 0) // 2),
                -(-max(const.total_degree(), 0) // 3))
    disc = -4 * quad ** 3 - 27 * const ** 2
    samples = [Fraction((i + 1) // 2 * (-1) ** (i + 1))
               for i in range(max(bound, disc.total_degree()) + 1)]
    if disc.is_zero():
        a = MPoly.zero(T_VARS) if quad.is_zero() else exact_divide(2 * quad, -3 * const)
        candidates = [a, -2 * a]
    else:
        t0 = next(x for x in samples if disc.evaluate({"t": x}))
        shift = {"t": t + t0}
        quad0, const0 = quad.substitute(shift), const.substitute(shift)
        candidates = [
            _newton_lift(quad0, const0, r0, bound + 1).substitute({"t": t - t0})
            for r0 in rational_roots(
                [const0.evaluate({"t": 0}), quad0.evaluate({"t": 0}), 0, 1])
        ]
    roots = [r for r in candidates if (r ** 3 + quad * r + const).is_zero()]
    return min(roots, default=None,
               key=lambda r: [r.evaluate({"t": x}) for x in samples[:bound + 1]])


def is_line_cover_connected(lr: LineRestriction) -> ConnectivityVerdict:
    """Is the pulled-back cover of the line connected?

    The cover of the line is disconnected exactly when the monic resolvent
    cubic over Q[t] has a polynomial root (monic integral dependence forces
    roots in Q[t]).
    """
    cov = AffineCoverData(lr.aL, lr.bL, lr.cL, lr.dL)
    for res in (resolvent_cubic(cov, "z"), resolvent_cubic(cov, "w")):
        if res.quad.is_zero() and res.const.is_zero():
            continue
        root = _polynomial_root_search(res.quad, res.const)
        if root is not None:
            return ConnectivityVerdict("disconnected", root)
        return ConnectivityVerdict("connected")
    return ConnectivityVerdict("degenerate")


def is_total_branch_point(cov: AffineCoverData, point) -> TotalBranchVerdict:
    """Probe whether a chart point is a total branch point: a, b, c, d not
    all zero there and A = B = C = 0.  It is degenerate when the data
    vanishes at the point (the fiber equations collapse there)."""
    at = {"u1": Fraction(point[0]), "u2": Fraction(point[1])}
    a, b, c, d = (p.evaluate(at) for p in (cov.a, cov.b, cov.c, cov.d))
    if not (a or b or c or d):
        return TotalBranchVerdict("degenerate")
    total = a * a == b * d and a * d == b * c and d * d == a * c
    return TotalBranchVerdict("total" if total else "not_total")
