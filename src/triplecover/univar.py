"""Univariate helpers: coefficient lists, rational roots, and the rational
common points of two plane curves, found by projecting them onto a
univariate eliminant.  ``common_points`` holds the one center policy of the
two loci that need an eliminant: the flexes of a cubic and G2 = G3 = 0.
The singular points of a cubic need none; their directions are the roots
of its branch sextic on a line, and ``lift_directions`` lifts them too.
``interpolate`` has no caller in the package; it stays because
``tests/test_bench.py`` requires every name in the benchmark's ``REPORTED``
to exist.

Everything is exact: rational roots come from p-adic lifting and are checked
by evaluation, with no floating point anywhere.  The squarefree part of an
eliminant and the point on a direction both come from the one Euclid of the
package, ``polyring._gcd``, on integer coefficient lists; a direction is
lifted from two such lists on its line (g and h, or F and F'), never ``MPoly``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CommonComponent, IndeterminateCount, TripleCoverError
from .polyring import (PROJECTION_CENTERS, MPoly, U_VARS, _clear_denominators,
                       _gcd, _integer_terms, _on_line, _pseudo_divmod, dehomogenize,
                       linear_change, projective_point, resultant)


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


def project(g: MPoly, h: MPoly, center):
    """(M, g(M x), h(M x), eliminant) for two ternary forms projected from a
    center (a, b, 1), or None when the center lies on g = 0 or on h = 0.

    The shear M = ((1, 0, a), (0, 1, b), (0, 0, 1)) moves the center to
    (0 : 0 : 1), so the lines through it are the directions (w0 : w1).  With
    the center off both curves, g(M x) and h(M x) have constant leading
    coefficients in x2, so setting x0 = 1 commutes with their resultant in
    x2: the eliminant resultant(g(M x)(1, u1, u2), h(M x)(1, u1, u2), "u2")
    is a polynomial in u1, zero exactly when g and h share a component.
    Otherwise (the projection proof of Bezout's theorem) the multiplicity
    of a root t is the sum of the intersection multiplicities of the common
    points on the direction (1 : t), and the eliminant falls short of
    degree deg g * deg h by that sum on the direction (0 : 1).
    """
    a, b, _ = center
    m = ((1, 0, a), (0, 1, b), (0, 0, 1))
    g, h = linear_change(g, m), linear_change(h, m)
    if not (g.terms.get((0, 0, g.total_degree()))
            and h.terms.get((0, 0, h.total_degree()))):
        return None
    return m, g, h, resultant(dehomogenize(g, U_VARS), dehomogenize(h, U_VARS), "u2")


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


def projected_points(projection):
    """The rational common points of a ``project`` result with a nonzero
    eliminant, each as (point, multiplicity of its direction), or None when
    a rational direction holds more than one common point.  Each direction
    is lifted from the center (0 : 0 : 1), and M maps the point back."""
    m, g, h, elim = projection
    forms = [_integer_terms(g), _integer_terms(h)]
    points = lift_directions(lambda P: [_on_line(f, P, (0, 0, 1)) for f in forms],
                             to_univariate(elim, "u1"),
                             g.total_degree() * h.total_degree(), (0, 0, 1))
    if points is None:
        return None
    return [(projective_point([sum(r * c for r, c in zip(row, w)) for row in m]), mult)
            for w, mult in points]


def common_points(g: MPoly, h: MPoly):
    """(center, M, eliminant, points) for the rational common points of two
    ternary forms, projected from the first of ``PROJECTION_CENTERS`` that
    lies off both curves and at which ``projected_points`` lifts every
    rational direction to one common point.

    Every rational common point lies on a rational direction, so the points
    are all of them, each with the multiplicity of its direction.  A center
    fails only on g, on h or on a line through two common points.  When
    these make a curve of degree at most 20, as for both loci it serves
    (flexes, G2 = G3 = 0), it misses a point of the 21 x 21 grid.  A zero
    eliminant raises CommonComponent; running out of centers raises
    IndeterminateCount.
    """
    for center in PROJECTION_CENTERS:
        projection = project(g, h, center)
        if projection is None:
            continue
        m, _, _, elim = projection
        if elim.is_zero():
            raise CommonComponent("the curves share a component")
        points = projected_points(projection)
        if points is not None:
            return center, m, elim, points
    raise IndeterminateCount("no usable projection center found")
