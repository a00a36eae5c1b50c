"""Local triple-cover calculus on the chart x0 != 0.

A cover is a tuple (a, b, c, d) of chart polynomials.  From it we derive
A = a^2 - b*d, B = a*d - b*c, C = d^2 - a*c and the branch polynomial
D = B^2 - 4*A*C, the multiplication table of the cover algebra, the
resolvent cubics, restrictions to lines and the connectivity / total-branch
probes used by the classifier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateCover, MultiplicityTooHigh, TripleCoverError
from .polyring import (
    MPoly,
    T_VARS,
    UZW_VARS,
    X_VARS,
    exact_divide,
    homogenize,
    squarefree_decomposition,
)
from .univar import (
    eval_coeffs,
    from_univariate,
    interpolate,
    rational_roots,
    to_univariate,
)


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
    parametrization: tuple  # (u1(t), u2(t)) as MPoly in (t,)
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

    def as_poly(self, vars=UZW_VARS) -> MPoly:
        """The cubic as a polynomial with its coordinate adjoined."""
        y = MPoly.variable(vars, self.coordinate)
        ident = {v: MPoly.variable(vars, v) for v in self.quad.vars}
        quad = self.quad.substitute(ident, vars)
        const = self.const.substitute(ident, vars)
        return y ** 3 + quad * y + const


@dataclass(frozen=True)
class ConnectivityVerdict:
    status: str  # "connected" | "disconnected" | "degenerate"
    witness_root: MPoly | None = None


@dataclass(frozen=True)
class TotalBranchVerdict:
    status: str  # "total" | "not_total" | "degenerate"
    z_cubic: tuple | None = None  # (quad, const) specializations
    w_cubic: tuple | None = None


def derived_invariants(cov: AffineCoverData) -> DerivedInvariants:
    a, b, c, d = cov.a, cov.b, cov.c, cov.d
    A = a * a - b * d
    B = a * d - b * c
    C = d * d - a * c
    D = B * B - 4 * A * C
    return DerivedInvariants(A, B, C, D)


def multiplication_table(cov: AffineCoverData, vars=UZW_VARS):
    """phi(z^2), phi(z*w), phi(w^2) as polynomials in (u1, u2, z, w)."""
    inv = derived_invariants(cov)
    ident = {v: MPoly.variable(vars, v) for v in cov.a.vars}

    def lift(p):
        return p.substitute(ident, vars)

    z = MPoly.variable(vars, "z")
    w = MPoly.variable(vars, "w")
    phi_zz = 2 * lift(inv.A) + lift(cov.a) * z + lift(cov.b) * w
    phi_zw = -lift(inv.B) - lift(cov.d) * z - lift(cov.a) * w
    phi_ww = 2 * lift(inv.C) + lift(cov.c) * z + lift(cov.d) * w
    return phi_zz, phi_zw, phi_ww


def fiber_equations(cov: AffineCoverData, vars=UZW_VARS):
    """The three quadrics z^2 - phi(z^2), zw - phi(zw), w^2 - phi(w^2)."""
    phi_zz, phi_zw, phi_ww = multiplication_table(cov, vars)
    z = MPoly.variable(vars, "z")
    w = MPoly.variable(vars, "w")
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
    form / T^2 and the unit its leading coefficient.
    """
    T = form._lift(T)
    S = exact_divide(T * T, form)
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
                "branch factor %r has multiplicity %d" % (factor, mult)
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
        (p1, p2),
        cov.a.substitute(assignment, T_VARS),
        cov.b.substitute(assignment, T_VARS),
        cov.c.substitute(assignment, T_VARS),
        cov.d.substitute(assignment, T_VARS),
    )


def _polynomial_root_search(quad: MPoly, const: MPoly):
    """Roots r in Q[t] of y^3 + quad*y + const, by sampling/interpolation.

    Returns the first verified root or None.  quad and const live in (t).
    """
    deg_quad = max(quad.total_degree(), 0)
    deg_const = max(const.total_degree(), 0)
    bound = max(-(-deg_quad // 2), -(-deg_const // 3))
    quad_coeffs = to_univariate(quad, "t")
    const_coeffs = to_univariate(const, "t")

    samples = []
    x = 0
    while len(samples) < bound + 1:
        samples.append(Fraction(x))
        x = -x if x > 0 else -x + 1

    options = []
    for at in samples:
        p = eval_coeffs(quad_coeffs, at)
        q = eval_coeffs(const_coeffs, at)
        roots = rational_roots([q, p, Fraction(0), Fraction(1)])
        if not roots:
            return None  # no rational value at this sample, no Q[t] root
        options.append(roots)

    for choice in itertools.product(*options):
        coeffs = interpolate(samples, list(choice))
        r = from_univariate(coeffs, T_VARS, "t")
        if (r ** 3 + quad * r + const).is_zero():
            return r
    return None


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
    """Probe whether a chart point is a total branch point.

    The point is total exactly when both resolvent cubics specialize to
    pure cubes y^3; it is degenerate when the cover data itself vanishes at
    the point (the fiber equations collapse there).
    """
    u1, u2 = point
    at = {"u1": Fraction(u1), "u2": Fraction(u2)}
    values = [p.evaluate(at) for p in (cov.a, cov.b, cov.c, cov.d)]
    z_res = resolvent_cubic(cov, "z")
    w_res = resolvent_cubic(cov, "w")
    z_spec = (z_res.quad.evaluate(at), z_res.const.evaluate(at))
    w_spec = (w_res.quad.evaluate(at), w_res.const.evaluate(at))
    if not any(values):
        return TotalBranchVerdict("degenerate", z_spec, w_spec)
    total = not any(z_spec) and not any(w_spec)
    return TotalBranchVerdict("total" if total else "not_total", z_spec, w_spec)
