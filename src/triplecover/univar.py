"""Univariate helpers: coefficient lists, rational roots, and the rational
common points of two plane curves, projected from a center onto a
univariate eliminant with no change of coordinates.  ``common_points``
holds the one center policy of the two loci that need an eliminant: the
flexes of a cubic and G2 = G3 = 0.  The singular points of a cubic need
none; their directions are the roots of its branch sextic on a line, and
``lift_directions`` lifts them too.  ``interpolate`` has no caller in the
package; ``tests/test_bench.py`` requires every name in the benchmark's
``REPORTED`` to exist.

Everything is exact, with no floating point: rational roots come from
p-adic lifting and are checked by evaluation.  Squarefree parts and lifts
come from the one Euclid, ``polyring._gcd``, on integer coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import CommonComponent, IndeterminateCount, TripleCoverError
from .polyring import (PROJECTION_CENTERS, MPoly, U_VARS, _clear_denominators,
                       _gcd, _integer_terms, _on_line, _pseudo_divmod, projective_point,
                       resultant)


def to_univariate(p: MPoly, var):
    """Coefficient list [c0, c1, ...] of a polynomial using only ``var``."""
    extra = p.variables_present() - {var}
    if extra:
        raise TripleCoverError(
            "polynomial is not univariate in %s (also uses %s)" % (var, sorted(extra))
        )
    i = p.vars.index(var)
    d = p.degree_in(var)
    coeffs = [Fraction(0)] * (max(d, 0) + 1)
    for exps, c in p.terms.items():
        coeffs[exps[i]] = c
    return coeffs


def eval_coeffs(coeffs, at: Fraction) -> Fraction:
    """sum c_i n^i q^(d - i) / q^d at n/q: integers up to the one division."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc, scale = acc * at.numerator + c * scale, scale * at.denominator
    return Fraction(acc * at.denominator, scale)


def derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def root_multiplicity(coeffs, root):
    """Multiplicity of a root of a nonzero ascending coefficient list: the
    number of derivatives, from the 0th on, that vanish there."""
    mult = 0
    while any(coeffs) and not eval_coeffs(coeffs, root):
        coeffs = derivative(coeffs)
        mult += 1
    return mult


def interpolate(points, values):
    """Lagrange interpolation; returns the coefficient list."""
    n = len(points)
    if len(values) != n:
        raise ValueError("points and values differ in length")
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        if not yi:
            continue
        # Basis polynomial prod_{j != i} (x - xj) / (xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k] -= b * xj
                new[k + 1] += b
            basis = new
        scale = yi / denom
        for k, b in enumerate(basis):
            coeffs[k] += b * scale
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _eval_mod(ints, at, m):
    acc = 0
    for c in reversed(ints):
        acc = (acc * at + c) % m
    return acc


def _odd_primes():
    n = 3
    while True:
        if all(n % k for k in range(3, int(n ** 0.5) + 1, 2)):
            yield n
        n += 2


def _simple_roots_mod_p(ints):
    """(p, roots of ints mod p) for the first odd prime p not dividing the
    leading coefficient at which every root mod p is simple.

    A squarefree integer polynomial has a nonzero discriminant, and only its
    prime divisors and those of the leading coefficient can fail, so the
    search ends.
    """
    deriv = derivative(ints)
    for p in _odd_primes():
        if ints[-1] % p == 0:
            continue
        roots = [r for r in range(p) if not _eval_mod(ints, r, p)]
        if all(_eval_mod(deriv, r, p) for r in roots):
            return p, roots


def rational_roots(coeffs):
    """All rational roots of a univariate polynomial, sorted, each once.

    Exact p-adic search (Loos, SIAM J. Comput. 12, 1983).  For the
    squarefree part f (the input over its gcd with its derivative) with
    integer coefficients and leading coefficient ``lead``, every rational
    root r has a denominator dividing ``lead``, so
    it reduces to a root mod any prime p not dividing ``lead``.  At a prime
    where every root mod p is simple, each lifts uniquely to a p-adic root
    by Newton's method; once p^k exceeds 2 |lead r| the symmetric residue
    of lead * r mod p^k is that integer itself.  Each candidate is checked
    exactly against the input, so no root is dropped and none invented.
    """
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise TripleCoverError("rational_roots of the zero polynomial")
    if len(coeffs) == 1:
        return []
    ints = _clear_denominators(coeffs)
    ints = _clear_denominators(_pseudo_divmod(ints, _gcd(ints, derivative(ints)))[0])
    lead = ints[-1]
    # |lead * r| < |lead| + max |a_i| (Cauchy), so residues mod a modulus
    # above twice that bound determine lead * r.
    bound = 2 * (abs(lead) + max(abs(c) for c in ints[:-1]))
    p, residues = _simple_roots_mod_p(ints)
    deriv = derivative(ints)
    roots = []
    for r in residues:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(ints, r, m) * pow(_eval_mod(deriv, r, m), -1, m)) % m
        n = lead * r % m
        if n > m // 2:
            n -= m
        candidate = Fraction(n, lead)
        if not eval_coeffs(coeffs, candidate):
            roots.append(candidate)
    return sorted(roots)


# ---------------------------------------------------------------------------
# Projection of the common points of two plane curves


def _chart_plane(terms, center):
    """A form's ``_integer_terms`` on the chart plane (1 + a*u2, u1 + b*u2, u2)
    of the center (a, b, 1), one ``MPoly`` in (u1, u2), expanded binomially
    in integers as ``etamap._fiber_terms`` expands the fiber cubic."""
    a, b, _ = center
    table = {}
    for (i, j, k), c in terms.items():
        for p in range(i + 1):
            cp = c * comb(i, p) * a ** p
            for q in range(j + 1):
                e = (q, p + j - q + k)
                table[e] = table.get(e, 0) + cp * comb(j, q) * b ** (j - q)
    return MPoly(U_VARS, table)


def project(g, h, center):
    """The resultant in u2 of two ternary forms' ``_integer_terms`` on the
    chart plane of a center (a, b, 1), or None when g(a, b, 1) h(a, b, 1) = 0.
    Their leads in u2 are then constant, so this eliminant in u1 is zero
    exactly when g and h share a component.  Otherwise (the projection proof
    of Bezout's theorem) a root t has the multiplicity of the common points
    on the line (1, t, 0) + s*center, and a shortfall from degree
    deg g * deg h is that of (0, 1, 0) + s*center."""
    a, b, _ = center
    if not all(sum(c * a ** i * b ** j for (i, j, _), c in t.items()) for t in (g, h)):
        return None
    return resultant(_chart_plane(g, center), _chart_plane(h, center), "u2")


def _lift_direction(g, h):
    """The one common root r = -G[d - 1] / (d G[d]) of integer lists g, h with
    nonzero leads, if their gcd G of degree d > 0 is a multiple of (s - r)^d; else None."""
    common = _gcd(g, h)
    d = len(common) - 1
    r = Fraction(-common[d - 1], d * common[d]) if d else None
    return r if d and root_multiplicity(common, r) == d else None


def lift_directions(on_line, coeffs, degree, center):
    """(point, multiplicity) for each rational direction of a nonzero binary
    form of the given degree, with ascending coefficients on (1 : t): (q : n)
    for a rational root n/q, and (0 : 1) for a shortfall in degree.  The point
    on P = (w0, w1, 0) is P + r*center, r the one common root of two curves on
    P + s*center, as on_line(P) lists them; None when a direction holds several."""
    directions = [((t.denominator, t.numerator), root_multiplicity(coeffs, t))
                  for t in rational_roots(coeffs)]
    deficit = degree - max(i for i, c in enumerate(coeffs) if c)
    if deficit:
        directions.append(((0, 1), deficit))
    points = []
    for (w0, w1), mult in directions:
        r = _lift_direction(*on_line((w0, w1, 0)))
        if r is None:
            return None
        points.append((tuple(w + r * c for w, c in zip((w0, w1, 0), center)), mult))
    return points


def projected_points(g, h, elim, degree, center):
    """The rational common points of two forms of degrees multiplying to
    ``degree``, from their ``_integer_terms`` and nonzero ``project``
    eliminant, each as (point, multiplicity of its direction), or None when
    a rational direction holds more than one common point."""
    points = lift_directions(lambda P: [_on_line(t, P, center) for t in (g, h)],
                             to_univariate(elim, "u1"), degree, center)
    return points and [(projective_point(p), mult) for p, mult in points]


def common_points(g: MPoly, h: MPoly):
    """(center, eliminant, points) for the rational common points of two
    ternary forms, projected from the first of ``PROJECTION_CENTERS`` that
    lies off both curves and at which ``projected_points`` lifts every
    rational direction to one common point.

    Every rational common point lies on a rational direction, so the points
    are all of them, each with the multiplicity of its direction.  A center
    fails only on g, on h or on a line through two common points, a curve
    of degree at most 20 for both loci served (flexes, G2 = G3 = 0), which
    misses a point of the 21 x 21 grid.  A zero eliminant raises
    CommonComponent, and running out of centers IndeterminateCount.
    """
    degree = g.total_degree() * h.total_degree()
    g, h = _integer_terms(g), _integer_terms(h)
    for center in PROJECTION_CENTERS:
        elim = project(g, h, center)
        if elim is None:
            continue
        if elim.is_zero():
            raise CommonComponent("the curves share a component")
        points = projected_points(g, h, elim, degree, center)
        if points is not None:
            return center, elim, points
    raise IndeterminateCount("no usable projection center found")
