"""Acceptance suite: the eight headline criteria, one pass/fail line each.

Every check is exact (tolerance zero) and carries a wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

from triplecover.classify import CoverSpec, classify, cross_validate
from triplecover.cover import (
    AffineCoverData,
    derived_invariants,
    is_line_cover_connected,
    is_total_branch_point,
    resolvent_cubic,
    restrict_to_line,
)
from triplecover.errors import DegenerateCover, DegenerateCubic
from triplecover.etamap import (
    TernaryCubic,
    eta,
    fiber_binary_cubic,
    verify_discrim_lemma,
)
from triplecover.polyparse import parse_poly, print_poly
from triplecover.polyring import (
    MPoly,
    T_VARS,
    U_VARS,
    UZW_VARS,
    X_VARS,
    dehomogenize,
    divides,
    gcd,
    homogenize,
    linear_change,
    resultant,
    squarefree_decomposition,
)
from triplecover.torus import TorusPair, build_cover, check_conditions, \
    cubic_surface_form, total_branch_points

from test_lemmas import surface_discriminant

FERMAT = TernaryCubic((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))

x0 = MPoly.variable(X_VARS, "x0")
x1 = MPoly.variable(X_VARS, "x1")
x2 = MPoly.variable(X_VARS, "x2")


def report(name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("[%s] %s (%.2fs, budget %.0fs)" % (status, name, elapsed, budget))
    assert ok, name
    assert elapsed < budget, "%s exceeded %.0fs budget" % (name, budget)


def random_form(rng, deg, span=4):
    terms = {}
    for e in itertools.product(range(deg + 1), repeat=3):
        if sum(e) == deg:
            c = rng.randint(-span, span)
            if c:
                terms[e] = Fraction(c)
    return MPoly(X_VARS, terms)


def random_torus_pair(rng):
    while True:
        pair = TorusPair(random_form(rng, 2), random_form(rng, 3))
        if not pair.delta().is_zero():
            return pair


def test_acceptance_1_discriminant_lemma():
    """delta_f = -27 * D_f for 20 random cubics, one constant lambda."""
    start = time.time()
    rng = random.Random(1001)
    lambdas = set()
    checked = 0
    while checked < 20:
        f = TernaryCubic(tuple(Fraction(rng.randint(-10, 10)) for _ in range(10)))
        if f.is_zero():
            continue
        try:
            cert = verify_discrim_lemma(f)
        except (DegenerateCover, DegenerateCubic):
            continue
        assert cert.delta_f == cert.lam * cert.D_f
        lambdas.add(cert.lam)
        checked += 1
    ok = lambdas == {Fraction(-27)}
    report("1 discriminant lemma lambda=-27", ok, time.time() - start, 5)


def test_acceptance_2_torus_branch_identity():
    """homogenize(D,6) = 4*(G2^3+G3^2) and surface discriminant match."""
    start = time.time()
    rng = random.Random(1002)
    ok = True
    for _ in range(20):
        pair = random_torus_pair(rng)
        D = derived_invariants(build_cover(pair)).D
        ok = ok and homogenize(D, 6, X_VARS) == 4 * pair.delta()
        disc = surface_discriminant(cubic_surface_form(pair).form)
        ok = ok and disc == -108 * pair.delta()
    report("2 torus branch identity", ok, time.time() - start, 5)


def test_acceptance_3_fermat_pipeline():
    """Fermat classifies as FlagBundle with 9 cusps, 3 rational, all A2."""
    start = time.time()
    rep = classify(CoverSpec.flag(FERMAT))
    expected = ((x0 ** 3 - x1 ** 3 - x2 ** 3) ** 2 - 4 * x1 ** 3 * x2 ** 3).monic()
    ok = rep.case == "FlagBundle"
    ok = ok and rep.branch_form == expected
    ok = ok and rep.total_branch["count"] == 9
    pts = {tuple(p) for p in rep.total_branch["rational_points"]}
    ok = ok and pts == {
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
    }
    for cusp in rep.certificates["cusps"]:
        ok = ok and cusp["a2_cusp"] and cusp["perfect_cube_fiber"]
    fiber = fiber_binary_cubic(FERMAT).entries()
    at = {"u1": Fraction(1), "u2": Fraction(0)}
    ok = ok and [e.evaluate(at) for e in fiber] == [0, 0, 0, 1]  # fiber is v2^3
    ok = ok and cross_validate(rep) == []
    report("3 Fermat pipeline", ok, time.time() - start, 10)


def test_acceptance_4_six_total_branch_points():
    """(x0*x1, x2^3-x0^3): 6 intersection points, rational ones total."""
    start = time.time()
    pair = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)
    locus = total_branch_points(pair)
    ok = locus.count_with_multiplicity == 6
    points = dict(locus.rational_points)
    ok = ok and points.get((Fraction(0), Fraction(1), Fraction(0))) == 3
    ok = ok and (Fraction(1), Fraction(0), Fraction(1)) in points
    for point, _ in locus.rational_points:
        pivot = next(i for i, c in enumerate(point) if c)
        # Swap x0 and x_pivot: the point moves to a chart point (1 : a : b).
        perm = [pivot if i == 0 else 0 if i == pivot else i for i in range(3)]
        swap = [[int(j == perm[i]) for j in range(3)] for i in range(3)]
        cov = build_cover(TorusPair(linear_change(pair.G2, swap),
                                    linear_change(pair.G3, swap)))
        moved = [None] * 3
        for i, c in enumerate(point):
            moved[perm[i]] = c
        chart = (moved[1] / moved[0], moved[2] / moved[0])
        ok = ok and is_total_branch_point(cov, chart).status == "total"
    report("4 six total branch points", ok, time.time() - start, 5)


def test_acceptance_5_reducibility_witness():
    """t7..t10 = 0: the z-resolvent has the planted linear factor."""
    start = time.time()
    rng = random.Random(1005)
    checked = 0
    ok = True
    while checked < 10:
        t = [Fraction(rng.randint(-10, 10)) for _ in range(6)] + [Fraction(0)] * 4
        f = TernaryCubic(tuple(t))
        if f.is_zero():
            continue
        cov = eta(f)
        if cov.b.is_zero():
            continue
        cubic = resolvent_cubic(cov, "z").as_poly()
        w1 = MPoly.variable(UZW_VARS, "u1")
        w2 = MPoly.variable(UZW_VARS, "u2")
        z = MPoly.variable(UZW_VARS, "z")
        witness = z - t[1] * w1 * w2 + t[2] * w1 ** 2 + 2 * t[3] * w2 - t[4] * w1
        divisible, _ = divides(witness, cubic)
        ok = ok and divisible
        checked += 1
    report("5 reducibility witness", ok, time.time() - start, 2)


def _random_generic_line(rng):
    t = MPoly.variable(T_VARS, "t")
    while True:
        s1, s2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if not s1 or not s2:
            continue
        o1, o2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if (s1, o1) == (s2, o2):
            continue
        return (s1 * t + o1, s2 * t + o2)


def test_acceptance_6_connectivity():
    """Connected on random lines; the crafted split datum is caught."""
    start = time.time()
    rng = random.Random(1006)
    ok = True
    covers = [eta(FERMAT)]
    while len(covers) < 4:
        pair = random_torus_pair(rng)
        covers.append(build_cover(pair))
    for cov in covers:
        for _ in range(10):
            line = _random_generic_line(rng)
            verdict = is_line_cover_connected(restrict_to_line(cov, line))
            ok = ok and verdict.status == "connected"
    zero = MPoly.zero(U_VARS)
    one = MPoly.constant(U_VARS, 1)
    t = MPoly.variable(T_VARS, "t")
    crafted = AffineCoverData(zero, one, zero, one)
    verdict = is_line_cover_connected(restrict_to_line(crafted, (t, t)))
    ok = ok and verdict.status == "disconnected"
    ok = ok and verdict.witness_root == MPoly.zero(T_VARS)
    report("6 connectivity", ok, time.time() - start, 10)


def test_acceptance_7_corollary_checker():
    """Crafted condition pairs plus the factored-construction oracle."""
    start = time.time()
    ok = True

    r = check_conditions(TorusPair(x0 * x1, x0 ** 2 * x2))
    ok = ok and not r.condition2.holds and r.condition2.witness == x0

    r = check_conditions(TorusPair(-(x0 ** 2), x0 ** 3 + x0 * x2 ** 2))
    ok = ok and r.condition2.holds
    ok = ok and not r.condition3.holds
    ok = ok and r.condition3.witness is not None
    ok = ok and r.condition3.witness.degree_in("x2") > 0

    r = check_conditions(TorusPair(x0 * x1, x2 ** 3 - x0 ** 3))
    ok = ok and r.all_hold()

    pool = [x0, x1, x2, x0 + x1, x0 - x1, x0 + x2, x1 + x2, x0 + x1 + x2,
            x0 - 2 * x2, x1 - x2]
    rng = random.Random(1007)
    checked = 0
    while checked < 50:
        l = [pool[rng.randrange(len(pool))] for _ in range(5)]
        if rng.random() < 0.3:
            g3_factors = [l[0], l[0], l[2]]
        else:
            g3_factors = l[2:]
        g2 = l[0] * l[1]
        g3 = g3_factors[0] * g3_factors[1] * g3_factors[2]
        pair = TorusPair(g2, g3)
        if pair.delta().is_zero():
            continue
        verdict = check_conditions(pair).condition2
        oracle = True
        primes = []
        for p in (l[0], l[1]):
            if all(p.monic() != q.monic() for q in primes):
                primes.append(p)
        for prime in primes:
            sq, _ = divides(prime * prime, g3)
            if sq:
                oracle = False
        ok = ok and verdict.holds == oracle
        checked += 1
    report("7 corollary checker", ok, time.time() - start, 5)


def test_acceptance_8_kernel_properties():
    """Ring axioms, gcd, resultants, squarefree, homogenize, parser."""
    start = time.time()
    ok = True
    rng = random.Random(1008)

    def rand_poly(max_deg=2, max_terms=3, span=6):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            e = tuple(rng.randint(0, max_deg) for _ in U_VARS)
            c = rng.randint(-span, span)
            if c:
                terms[e] = terms.get(e, Fraction(0)) + c
        return MPoly(U_VARS, {e: c for e, c in terms.items() if c})

    for _ in range(200):  # ring axioms
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * q == q * p
        ok = ok and p * (q + r) == p * q + p * r

    for _ in range(200):  # gcd divisibility
        p, q = rand_poly(), rand_poly()
        g = gcd(p, q)
        if g.is_zero():
            continue
        for h in (p, q):
            if not h.is_zero():
                divisible, _ = divides(g, h)
                ok = ok and divisible

    checked = 0
    while checked < 200:  # resultant multiplicativity
        p, q, h = rand_poly(1, 2), rand_poly(1, 2), rand_poly(1, 2)
        if any(x.degree_in("u1") < 1 for x in (p, q, h)):
            continue
        lhs = resultant(p * q, h, "u1")
        ok = ok and lhs == resultant(p, h, "u1") * resultant(q, h, "u1")
        checked += 1

    for _ in range(200):  # squarefree reconstruction
        prod = rand_poly(1, 2) * rand_poly(1, 2) ** 2
        if prod.is_zero():
            continue
        dec = squarefree_decomposition(prod)
        ok = ok and dec.reassemble(U_VARS) == prod

    for _ in range(200):  # homogenize round trip
        p = rand_poly()
        if p.is_zero():
            continue
        form = homogenize(p, p.total_degree() + rng.randint(0, 2), X_VARS)
        ok = ok and form.is_homogeneous()
        ok = ok and dehomogenize(form, U_VARS) == p

    for _ in range(200):  # parser round trip
        p = rand_poly()
        ok = ok and parse_poly(print_poly(p), U_VARS) == p

    report("8 kernel properties", ok, time.time() - start, 30)
