"""Sparse multivariate polynomials over the rationals.

Coefficients are exact ``fractions.Fraction`` values, monomials are exponent
tuples over a fixed ordered variable set, and the canonical term order is
graded lexicographic.  Everything downstream (cover data, discriminants,
branch forms) is built on this module.

The repeated-factor primitives ``repeated_part``, ``squarefree_part`` and
``squarefree_decomposition`` first try to certify a ternary form squarefree
on one line of ``SQUAREFREE_LINES``, exactly over the integers, and take the
exact gradient gcd only when that test does not decide.  Both paths give the
same values, so callers need not know which one ran.  Every certificate
read along a line restricts a form's ``_integer_terms`` with ``_on_line`` to
integer coefficient lists: this line test, the direction lifts in ``univar``
and the jet checks in ``classify``.  ``_gcd`` is the one univariate Euclid.
``_pseudo_divmod`` is the one pseudo-division: on integer lists for ``_gcd``
and ``univar``, and on the ``MPoly`` coefficient lists of ``_subresultants``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCover,
    TripleCoverError,
    VariableMismatchError,
)

# Standard variable sets used throughout the package.
U_VARS = ("u1", "u2")
X_VARS = ("x0", "x1", "x2")
X4_VARS = ("x0", "x1", "x2", "x3")
V_VARS = ("v0", "v1", "v2")
T_VARS = ("t",)
UV_VARS = ("u1", "u2", "v1", "v2")
UZW_VARS = ("u1", "u2", "z", "w")


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("coefficients must be Fraction or int, got %r" % (value,))


# One shared tuple per exponent vector made by the constructor or a product,
# so that the polynomials a caller keeps do not each hold their own copies.
# It holds at most one entry per monomial of the degrees in use.
_EXPONENTS = {}


def _order_key(exps):
    # Graded lex: compare total degree first, then exponents left to right.
    return (sum(exps), exps)


class MPoly:
    """Immutable sparse polynomial over a fixed ordered variable set."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        object.__setattr__(self, "vars", tuple(vars))
        clean = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise VariableMismatchError(
                        "monomial arity %d does not match variable set %r"
                        % (len(exps), self.vars)
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                c = _coeff(c)
                if c:
                    acc = clean.get(exps)
                    if acc is None:
                        clean[_EXPONENTS.setdefault(exps, exps)] = c
                    else:
                        acc = acc + c
                        if acc:
                            clean[exps] = acc
                        else:
                            del clean[exps]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "MPoly":
        return cls(vars)

    @classmethod
    def constant(cls, vars, c) -> "MPoly":
        vars = tuple(vars)
        return cls(vars, {(0,) * len(vars): _coeff(c)})

    @classmethod
    def variable(cls, vars, name) -> "MPoly":
        vars = tuple(vars)
        if name not in vars:
            raise VariableMismatchError("%r not in variable set %r" % (name, vars))
        exps = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exps: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise TripleCoverError("polynomial is not constant: %r" % (self,))
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var) -> int:
        i = self._var_index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def variables_present(self):
        """Names of variables that occur with positive exponent."""
        present = set()
        for exps in self.terms:
            for v, e in zip(self.vars, exps):
                if e:
                    present.add(v)
        return present

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def _var_index(self, var) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise VariableMismatchError(
                "%r not in variable set %r" % (var, self.vars)
            ) from None

    def _check_same(self, other: "MPoly"):
        if self.vars != other.vars:
            raise VariableMismatchError(
                "variable sets differ: %r vs %r" % (self.vars, other.vars)
            )

    # -- term order --------------------------------------------------------

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise DegenerateCover("zero polynomial has no leading term")
        exps = max(self.terms, key=_order_key)
        return exps, self.terms[exps]

    def leading_coefficient(self) -> Fraction:
        return self.leading_term()[1]

    def monic(self) -> "MPoly":
        """Normalize to leading coefficient 1 (zero stays zero)."""
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        if lc == 1:
            return self
        return self / lc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = c
            else:
                acc = acc + c
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return self._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return MPoly(self.vars)
            return self._raw({e: k * c for e, k in self.terms.items()})
        self._check_same(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                acc = terms.get(exps)
                if acc is None:
                    terms[_EXPONENTS.setdefault(exps, exps)] = c1 * c2
                else:
                    acc = acc + c1 * c2
                    if acc:
                        terms[exps] = acc
                    else:
                        del terms[exps]
        return self._raw(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                raise ZeroDivisionError("division of MPoly by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MPoly.constant(self.vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def _lift(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            self._check_same(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self.vars, other)
        raise TypeError("cannot combine MPoly with %r" % (other,))

    def _raw(self, terms) -> "MPoly":
        # Internal fast path: terms already cleaned of zeros.
        p = MPoly.__new__(MPoly)
        object.__setattr__(p, "vars", self.vars)
        object.__setattr__(p, "terms", terms)
        return p

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self.vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        from .polyparse import print_poly

        return "MPoly(%r, %s)" % (list(self.vars), print_poly(self))

    # -- calculus and substitution ----------------------------------------

    def partial_derivative(self, var) -> "MPoly":
        i = self._var_index(var)
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                nexps = exps[:i] + (e - 1,) + exps[i + 1:]
                acc = terms.get(nexps)
                nc = c * e
                terms[nexps] = acc + nc if acc is not None else nc
        return self._raw({e: c for e, c in terms.items() if c})

    def substitute(self, assignment, target_vars=None) -> "MPoly":
        """Substitute polynomials or rationals for variables.

        ``assignment`` maps variable names to MPoly values (sharing one
        target variable set) or to rationals.  Every variable occurring in
        this polynomial must be assigned.
        """
        tvars = tuple(target_vars) if target_vars is not None else None
        for value in assignment.values():
            if isinstance(value, MPoly):
                if tvars is None:
                    tvars = value.vars
                elif tvars != value.vars:
                    raise VariableMismatchError(
                        "substitution targets mix variable sets %r and %r"
                        % (tvars, value.vars)
                    )
        if tvars is None:
            tvars = self.vars

        missing = self.variables_present() - set(assignment)
        if missing:
            raise VariableMismatchError(
                "substitution misses variables %s" % sorted(missing)
            )

        lifted = {}
        for name, value in assignment.items():
            if isinstance(value, MPoly):
                lifted[name] = value
            else:
                lifted[name] = MPoly.constant(tvars, value)

        # Cache powers of each substituted value.
        powers = {name: [MPoly.constant(tvars, 1)] for name in lifted}
        result = MPoly.zero(tvars)
        for exps, c in self.terms.items():
            term = MPoly.constant(tvars, c)
            for name, e in zip(self.vars, exps):
                if not e:
                    continue
                cache = powers[name]
                while len(cache) <= e:
                    cache.append(cache[-1] * lifted[name])
                term = term * cache[e]
            result = result + term
        return result

    def evaluate(self, point) -> Fraction:
        """Evaluate at a rational point given as {var: rational}."""
        total = Fraction(0)
        for exps, c in self.terms.items():
            value = c
            for name, e in zip(self.vars, exps):
                if e:
                    value *= _coeff(point[name]) ** e
            total += value
        return total

    def coefficients_in(self, var):
        """Coefficients w.r.t. one variable: {degree: MPoly with var removed}.

        The coefficient polynomials stay in the same variable set with the
        chosen variable's exponent forced to zero.
        """
        i = self._var_index(var)
        buckets = {}
        for exps, c in self.terms.items():
            d = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1:]
            bucket = buckets.setdefault(d, {})
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
        return {
            d: self._raw({e: c for e, c in bucket.items() if c})
            for d, bucket in buckets.items()
            if any(bucket.values())
        }


# ---------------------------------------------------------------------------
# Homogenization


def homogenize(p: MPoly, target_degree: int, new_vars=X_VARS) -> MPoly:
    """Chart polynomial -> homogeneous form of the given degree.

    The first variable of ``new_vars`` is the homogenizing variable; the
    rest correspond positionally to the chart variables.
    """
    new_vars = tuple(new_vars)
    if len(new_vars) != len(p.vars) + 1:
        raise VariableMismatchError(
            "homogenization needs %d variables, got %r" % (len(p.vars) + 1, new_vars)
        )
    d = p.total_degree()
    if d > target_degree:
        raise TripleCoverError(
            "target degree %d below total degree %d" % (target_degree, d)
        )
    terms = {}
    for exps, c in p.terms.items():
        nexps = (target_degree - sum(exps),) + exps
        terms[nexps] = c
    return MPoly(new_vars, terms)


def dehomogenize(p: MPoly, chart_vars=U_VARS) -> MPoly:
    """Set the first variable to 1 and rename the rest."""
    chart_vars = tuple(chart_vars)
    if len(chart_vars) != len(p.vars) - 1:
        raise VariableMismatchError(
            "dehomogenization needs %d chart variables, got %r"
            % (len(p.vars) - 1, chart_vars)
        )
    terms = {}
    for exps, c in p.terms.items():
        nexps = exps[1:]
        terms[nexps] = terms.get(nexps, Fraction(0)) + c
    return MPoly(chart_vars, terms)


# ---------------------------------------------------------------------------
# Linear changes and projection centers

# Projection centers (a, b, 1) on the grid 0 <= a, b < 21, nearest first.  A
# nonzero form of degree d vanishes at no more than 21 d of these 441 points
# (Schwartz-Zippel), so a projection that fails only for centers on a curve
# of degree d < 21 succeeds at one of them.
PROJECTION_CENTERS = tuple(
    (a, b, 1)
    for a, b in sorted(itertools.product(range(21), repeat=2),
                       key=lambda c: (max(c), c))
)


def linear_change(p: MPoly, matrix) -> MPoly:
    """p(M * vars): substitute each variable by a row combination."""
    vars = p.vars
    gens = [MPoly.variable(vars, v) for v in vars]
    assignment = {}
    for i, v in enumerate(vars):
        acc = MPoly.zero(vars)
        for j, g in enumerate(gens):
            if matrix[i][j]:
                acc = acc + matrix[i][j] * g
        assignment[v] = acc
    return p.substitute(assignment, vars)


def projective_point(coords):
    """The point with its first nonzero coordinate scaled to 1."""
    coords = tuple(Fraction(c) for c in coords)
    pivot = next((c for c in coords if c), None)
    if pivot is None:
        raise TripleCoverError("zero vector is not a projective point")
    return tuple(c / pivot for c in coords)


# ---------------------------------------------------------------------------
# Exact division


def divides(p: MPoly, q: MPoly):
    """Does p divide q exactly?  Returns (flag, quotient or None)."""
    p._check_same(q)
    if p.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if q.is_zero():
        return True, MPoly.zero(p.vars)
    lt_e, lt_c = p.leading_term()
    quotient = MPoly.zero(p.vars)
    r = q
    while not r.is_zero():
        re, rc = r.leading_term()
        diff = tuple(a - b for a, b in zip(re, lt_e))
        if any(d < 0 for d in diff):
            return False, None
        t = MPoly(p.vars, {diff: rc / lt_c})
        quotient = quotient + t
        r = r - t * p
    return True, quotient


def exact_divide(p: MPoly, q: MPoly) -> MPoly:
    """q / p, raising if the division is not exact."""
    ok, quotient = divides(p, q)
    if not ok:
        raise TripleCoverError("inexact polynomial division")
    return quotient


# ---------------------------------------------------------------------------
# GCD and resultant (one subresultant pseudo-remainder sequence)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    # gcd on Q normalized so that dividing by it leaves coprime integers.
    return Fraction(math.gcd(a.numerator, b.numerator),
                    math.lcm(a.denominator, b.denominator))


def _content_and_primitive(p: MPoly, var):
    """Content (gcd of coefficients w.r.t. var) and primitive part; a
    constant content c is divided out by one scale p * (1/c), not `divides`."""
    coeffs = list(p.coefficients_in(var).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = _gcd_inner(content, c)
        if content.is_constant() and content.constant_value() == 1:
            break
    if not content.is_constant():
        return content, exact_divide(content, p)
    c = content.constant_value()
    return content, p if c == 1 else p / c


def _subresultants(p: MPoly, q: MPoly, var):
    """The subresultant sequence of p and q, not both constant in var
    (Collins 1967; Cohen, Algorithm 3.3.7), on their ascending coefficient
    lists in var, run until a pseudo-remainder vanishes or is constant in
    var; every division is exact.  Returns the last two members a, b as
    lists of ``MPoly`` free of var, the scale h and the sign of the
    Sylvester row swaps.  If len(b) > 1, b is a multiple of gcd(p, q) of
    the same degree.
    """
    zero = MPoly.zero(p.vars)
    a, b = ([by_degree.get(k, zero) for k in range(max(by_degree) + 1)]
            for by_degree in (p.coefficients_in(var), q.coefficients_in(var)))
    dp, dq = len(a) - 1, len(b) - 1
    # Res(q, p) = (-1)^(dp*dq) Res(p, q).
    sign = -1 if dp < dq and dp % 2 and dq % 2 else 1
    if dp < dq:
        a, b = b, a
    g = h = MPoly.constant(p.vars, 1)
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = _pseudo_divmod(a, b)[1]
        if not r:
            break
        scale = g * h ** delta
        a, b = b, [exact_divide(scale, c) for c in r]
        g = a[-1]
        # Only the first step can have delta = 0; it leaves h alone.
        if delta:
            h = exact_divide(h ** (delta - 1), g ** delta)
    return a, b, h, sign


def _gcd_inner(p: MPoly, q: MPoly) -> MPoly:
    """Unnormalized gcd: cont(p, q) times the primitive part of the last
    subresultant of pp(p) and pp(q) (Cohen, Algorithm 3.3.1)."""
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    if p.is_constant() or q.is_constant():
        coeffs = [*p.terms.values(), *q.terms.values()]
        return MPoly.constant(p.vars, functools.reduce(_frac_gcd, coeffs))
    var = min(p.variables_present() | q.variables_present())
    if p.degree_in(var) == 0:
        return _gcd_inner(p, _content_and_primitive(q, var)[0])
    if q.degree_in(var) == 0:
        return _gcd_inner(_content_and_primitive(p, var)[0], q)
    cont_p, prim_p = _content_and_primitive(p, var)
    cont_q, prim_q = _content_and_primitive(q, var)
    cont = _gcd_inner(cont_p, cont_q)
    _, last, _, _ = _subresultants(prim_p, prim_q, var)
    if len(last) == 1:
        return cont
    v = MPoly.variable(p.vars, var)
    last = sum((c * v ** k for k, c in enumerate(last)), MPoly.zero(p.vars))
    return cont * _content_and_primitive(last, var)[1]


def gcd(p: MPoly, q: MPoly) -> MPoly:
    """Greatest common divisor, normalized to leading coefficient 1."""
    p._check_same(q)
    if p.is_zero() and q.is_zero():
        return MPoly.zero(p.vars)
    return _gcd_inner(p, q).monic()


def resultant(p: MPoly, q: MPoly, var) -> MPoly:
    """Resultant w.r.t. var, equal to the Sylvester determinant with the
    p-rows above the q-rows: zero when the last subresultant has positive
    degree in var, else that member scaled by h and signed.
    """
    p._check_same(q)
    if p.is_zero() or q.is_zero():
        raise DegenerateCover("resultant of a zero polynomial")
    if p.degree_in(var) == 0 == q.degree_in(var):
        raise TripleCoverError("resultant: both arguments constant in %s" % var)
    a, b, h, sign = _subresultants(p, q, var)
    if len(b) > 1:
        return MPoly.zero(p.vars)
    da = len(a) - 1
    res = exact_divide(h ** (da - 1), b[0] ** da)
    return res if sign == 1 else -res


# ---------------------------------------------------------------------------
# Squarefree decomposition


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """unit * product(factor^multiplicity) == the decomposed polynomial."""

    unit: Fraction
    parts: tuple  # ((factor: MPoly, multiplicity: int), ...)

    def reassemble(self, vars) -> MPoly:
        p = MPoly.constant(vars, self.unit)
        for factor, mult in self.parts:
            p = p * factor ** mult
        return p


def _gradient_gcd(p: MPoly) -> MPoly:
    """gcd of p with all its partial derivatives (the repeated-factor core).

    The exact path of the three primitives below, taken only when
    ``_certified_squarefree`` does not decide."""
    g = p
    for var in sorted(p.variables_present()):
        g = gcd(g, p.partial_derivative(var))
        if g.is_constant():
            break
    return g


def squarefree_decomposition(p: MPoly) -> SquarefreeDecomposition:
    """Yun-style characteristic-zero decomposition via iterated gcds; a
    certified squarefree p is its own single part."""
    if p.is_zero():
        raise DegenerateCover("squarefree decomposition of zero")
    if p.is_constant():
        return SquarefreeDecomposition(p.constant_value(), ())
    if _certified_squarefree(p):
        return SquarefreeDecomposition(p.leading_coefficient(), ((p.monic(), 1),))
    core = _gradient_gcd(p)  # product f_i^(e_i - 1), monic
    distinct = exact_divide(core, p).monic()  # product of distinct factors
    parts = []
    b, g, mult = distinct, core, 1
    while not b.is_constant():
        c = gcd(b, g)  # factors of multiplicity > mult
        factor = exact_divide(c, b)
        if not factor.is_constant():
            parts.append((factor.monic(), mult))
        b = c
        if not c.is_constant():
            g = exact_divide(c, g).monic()
        mult += 1
    rebuilt = SquarefreeDecomposition(1, tuple(parts)).reassemble(p.vars)
    unit = exact_divide(rebuilt, p)
    if not unit.is_constant():
        raise TripleCoverError("squarefree decomposition lost a factor")
    return SquarefreeDecomposition(unit.constant_value(), tuple(parts))


def squarefree_part(p: MPoly) -> MPoly:
    """Product of the distinct irreducible factors, monic."""
    if p.is_zero():
        raise DegenerateCover("squarefree part of zero")
    if p.is_constant():
        return MPoly.constant(p.vars, 1)
    if _certified_squarefree(p):
        return p.monic()
    return exact_divide(_gradient_gcd(p), p).monic()


def repeated_part(p: MPoly) -> MPoly:
    """Product factor^(multiplicity - 1), monic; constant iff p squarefree."""
    if p.is_zero():
        raise DegenerateCover("repeated part of zero")
    if p.is_constant() or _certified_squarefree(p):
        return MPoly.constant(p.vars, 1)
    return _gradient_gcd(p)


# The lines x2 = a*x0 + b*x1, as (a, b), that ``squarefree_line`` tries in
# order.  A line fails on a squarefree form only when it is tangent to the
# curve or passes through a singular point of it; for the dual sextic of a
# cubic f that means its dual point (a : b : -1) lies on f or on a flex
# tangent, which small-integer points often do.
SQUAREFREE_LINES = ((3, 5), (5, 7), (7, 2), (2, 9))


def squarefree_line(form: MPoly):
    """The first (a, b) of ``SQUAREFREE_LINES`` on whose line
    x2 = a*x0 + b*x1 a nonzero ternary form of degree d restricts to a
    squarefree binary form of degree d, or None when no listed line does.

    A certificate that the form is squarefree: a repeated factor E^2 of the
    form restricts to a square on every line.  Each line is tested exactly,
    on the primitive integer multiple of the form: B(1, t) = form(1, t, a + b*t)
    must have degree at least d - 1 and a constant ``_gcd`` with its
    derivative.  A line that fails is only skipped.
    """
    if len(form.vars) != 3 or not form.is_homogeneous():
        raise TripleCoverError("squarefree_line needs a ternary form")
    if form.is_zero():
        raise DegenerateCover("squarefree line of zero")
    terms = _integer_terms(form)
    for a, b in SQUAREFREE_LINES:
        restricted = _on_line(terms, (1, 0, a), (0, 1, b))
        d = len(restricted) - 1
        while restricted and not restricted[-1]:
            restricted.pop()
        if len(restricted) < max(d, 1):
            continue
        deriv = [k * c for k, c in enumerate(restricted)][1:]
        # A constant restriction has no derivative and is squarefree.
        if not deriv or len(_gcd(restricted, deriv)) == 1:
            return a, b
    return None


def _integer_terms(form: MPoly):
    """The primitive integer multiple of a nonzero form, {exponents: int}."""
    return dict(zip(form.terms, _clear_denominators(form.terms.values())))


def _on_line(terms, P, Q):
    """A nonzero ternary form of degree d, given by ``_integer_terms``, on the
    line P + t*Q, as its d + 1 ascending coefficients in t: the n-th is the
    degree-n jet at P evaluated at Q, an integer for integer P and Q.  A
    coordinate that the line fixes (Q[m] = 0) enters as a scalar, one that it
    moves as a multiple of t (P[m] = 0) as a shift, the rest as polynomials."""
    d = sum(next(iter(terms)))
    coeffs = list(terms.values())
    shifts = [0] * len(coeffs)
    rows = None  # per term, its product over the coordinates left as polynomials
    for p, q, exps in zip(P, Q, zip(*terms)):
        if p and q:
            powers = [[1]]  # powers[k]: (p + q*t)^k, ascending in t
            for _ in range(d):
                last = powers[-1]
                powers.append([p * c + q * prev for c, prev in zip(last + [0], [0] + last)])
            rows = [powers[e] for e in exps] if rows is None else \
                [_times(row, powers[e]) for row, e in zip(rows, exps)]
            continue
        if q:
            shifts = [s + e for s, e in zip(shifts, exps)]
        if (q or p) != 1:
            coeffs = [c * (q or p) ** e for c, e in zip(coeffs, exps)]
    restricted = [0] * (d + 1)
    for c, s, row in zip(coeffs, shifts, rows or [[1]] * len(coeffs)):
        for i, x in enumerate(row, s):
            restricted[i] += c * x
    return restricted


def _times(a, b):
    """The product of two ascending coefficient lists."""
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            product[j] += x * y
    return product


def _clear_denominators(coeffs):
    """The primitive integer multiple of nonzero rational coefficients."""
    coeffs = list(coeffs)
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs] \
        if scale != 1 else [c.numerator for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints]


def _pseudo_divmod(a, b):
    """Pseudo-division of ascending coefficient lists, b[-1] != 0, whose
    entries are ints or ``MPoly``: (q, r) with b[-1]^k a = q b + r,
    k = max(len(a) - len(b) + 1, 0), and r trimmed."""
    q, r, lead = [], list(a), b[-1]
    while len(r) >= len(b):
        c = r.pop()
        q = [c] + [x * lead for x in q]
        r = [x * lead for x in r]
        for i, y in enumerate(b[:-1], len(r) - len(b) + 1):
            r[i] -= c * y
    while r and not r[-1]:
        r.pop()
    return q, r


def _gcd(a, b):
    """The gcd of two ascending coefficient lists with nonzero leading
    coefficients, as its primitive integer multiple: Euclid on primitive
    pseudo-remainders (Knuth, TAOCP vol. 2, 4.6.1, Algorithms R and E)."""
    a, b = _clear_denominators(a), _clear_denominators(b)
    while b:
        a, b = b, _clear_denominators(_pseudo_divmod(a, b)[1])
    return a


def _certified_squarefree(p: MPoly) -> bool:
    """Is the nonconstant p a ternary form that ``squarefree_line``
    certifies squarefree?  False means only that the test does not decide;
    every other shape gets False."""
    return len(p.vars) == 3 and p.is_homogeneous() and squarefree_line(p) is not None


def radical_divides(p: MPoly, q: MPoly):
    """Does every irreducible factor of p divide q?

    Returns (flag, offending_factor_or_None); the offending factor is the
    product of the irreducible factors of p that do not divide q, monic.
    Dividing the squarefree part r of p by gcd(r, q) leaves exactly those;
    a nonzero constant p has none, whatever q is.
    """
    if p.is_zero():
        raise ZeroDivisionError("radical_divides with zero first argument")
    if p.is_constant():
        return True, None
    r = squarefree_part(p)
    rest = exact_divide(gcd(r, q), r).monic()
    if rest.is_constant():
        return True, None
    return False, rest
