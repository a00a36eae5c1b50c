"""Tests for torus pairs, the branch conditions and the intersection locus."""

import itertools
import random
from fractions import Fraction

import pytest

from triplecover import torus, univar
from triplecover.cover import derived_invariants, is_total_branch_point
from triplecover.errors import DegenerateTorus, TripleCoverError
from triplecover.polyring import (
    MPoly,
    X_VARS,
    _integer_terms,
    divides,
    gcd,
    homogenize,
    linear_change,
    repeated_part,
    resultant,
    squarefree_part,
)
from triplecover.torus import (
    TorusPair,
    build_cover,
    check_conditions,
    cubic_surface_form,
    total_branch_points,
)
from triplecover.univar import project, projected_points

from test_lemmas import surface_discriminant

x0 = MPoly.variable(X_VARS, "x0")
x1 = MPoly.variable(X_VARS, "x1")
x2 = MPoly.variable(X_VARS, "x2")

ACCEPT_PAIR = TorusPair(x0 * x1, x2 ** 3 - x0 ** 3)


def random_form(rng, deg, span=4):
    terms = {}
    for e in itertools.product(range(deg + 1), repeat=3):
        if sum(e) == deg:
            c = rng.randint(-span, span)
            if c:
                terms[e] = Fraction(c)
    return MPoly(X_VARS, terms)


def random_pair(rng):
    while True:
        pair = TorusPair(random_form(rng, 2), random_form(rng, 3))
        if not pair.delta().is_zero():
            return pair


def _moved(rng):
    """A seeded invertible integer matrix with entries in [-3, 3]."""
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])):
            return m


def test_pair_validation():
    with pytest.raises(TripleCoverError):
        TorusPair(x0 ** 3, x0 ** 3)  # degree 3 form in the G2 slot
    with pytest.raises(TripleCoverError):
        TorusPair(x0 ** 2 + x0, x0 ** 3)  # not homogeneous


def test_build_cover_normal_form():
    cov = build_cover(ACCEPT_PAIR)
    assert cov.a.is_zero()
    assert cov.b == 1
    # G3(1, u1, u2) = u2^3 - 1, G2(1, u1, u2) = u1
    u = cov.d.vars
    u1 = MPoly.variable(u, "u1")
    u2 = MPoly.variable(u, "u2")
    assert cov.c == -2 * (u2 ** 3 - 1)
    assert cov.d == u1


def test_build_cover_rejects_degenerate():
    with pytest.raises(DegenerateTorus):
        build_cover(TorusPair(-(x0 ** 2), x0 ** 3))


def test_branch_identity_fixture():
    """homogenize(D, 6) = 4 * (G2^3 + G3^2) for the fixture pair."""
    cov = build_cover(ACCEPT_PAIR)
    D = derived_invariants(cov).D
    assert homogenize(D, 6, X_VARS) == 4 * ACCEPT_PAIR.delta()


def test_branch_identity_random():
    """``classify`` takes the torus branch form to be 4 * delta, so the
    identity must hold when G2 or G3 vanishes too."""
    rng = random.Random(61)
    zero = MPoly.zero(X_VARS)
    for _ in range(20):
        base = random_pair(rng)
        for pair in (base, TorusPair(zero, base.G3), TorusPair(base.G2, zero)):
            if not pair.delta().is_zero():
                D = derived_invariants(build_cover(pair)).D
                assert homogenize(D, 6, X_VARS) == 4 * pair.delta()


def test_surface_discriminant_identity():
    """The x3-discriminant of x3^3 + 3 G2 x3 + 2 G3 is -108 (G2^3 + G3^2)."""
    rng = random.Random(62)
    for _ in range(20):
        pair = random_pair(rng)
        surf = cubic_surface_form(pair)
        assert surface_discriminant(surf.form) == -108 * pair.delta()


def test_surface_form_shape():
    surf = cubic_surface_form(ACCEPT_PAIR)
    assert surf.form.degree_in("x3") == 3
    assert surf.form.is_homogeneous()


def test_condition1_proportionality():
    delta = 5 * ACCEPT_PAIR.delta()
    verdict = check_conditions(ACCEPT_PAIR, delta).condition1
    assert verdict.holds
    assert verdict.scale == Fraction(1, 5)
    other = TorusPair(x0 ** 2 + x1 ** 2, x2 ** 3)
    assert not check_conditions(other, delta).condition1.holds


def test_condition2_violation_witness():
    # x0 divides G2 and x0^2 divides G3.
    verdict = check_conditions(TorusPair(x0 * x1, x0 ** 2 * x2)).condition2
    assert not verdict.holds
    assert verdict.witness == x0


def test_condition2_passing():
    assert check_conditions(ACCEPT_PAIR).condition2.holds


def test_condition3_violation_witness():
    # Delta = x0^2 x2^2 (2 x0^2 + x2^2): the repeated prime x2 misses G2.
    pair = TorusPair(-(x0 ** 2), x0 ** 3 + x0 * x2 ** 2)
    delta = pair.delta()
    assert delta == 2 * x0 ** 4 * x2 ** 2 + x0 ** 2 * x2 ** 4
    verdict = check_conditions(pair).condition3
    assert not verdict.holds
    assert verdict.witness is not None
    assert verdict.witness.degree_in("x2") > 0


def test_condition3_passing():
    assert check_conditions(ACCEPT_PAIR).condition3.holds


def test_check_conditions_report():
    report = check_conditions(ACCEPT_PAIR, 4 * ACCEPT_PAIR.delta())
    assert report.all_hold()
    assert report.condition1.holds


def test_check_conditions_error_precedence():
    """Errors come in the order of the conditions: a bad target form (1),
    then G2 = G3 = 0 (2), then a zero sextic (3)."""
    zero, vanishing = MPoly.zero(X_VARS), TorusPair(-(x0 ** 2), x0 ** 3)
    with pytest.raises(TripleCoverError, match="condition 1 against the zero form"):
        check_conditions(TorusPair(zero, zero), zero)
    with pytest.raises(TripleCoverError, match="condition 2 with both forms zero") as info:
        check_conditions(TorusPair(zero, zero))
    assert not isinstance(info.value, DegenerateTorus)
    with pytest.raises(DegenerateTorus, match="condition 3 undefined"):
        check_conditions(vanishing)


def _planted_cofactors(rng, a, b, E):
    """Cofactors c2 and c3 of degrees 2 - a and 3 - b: prime to E and to
    each other, and c3 squarefree, so the planted E alone meets (2)."""
    while True:
        c2, c3 = random_form(rng, 2 - a, 3), random_form(rng, 3 - b, 3)
        if c2.is_zero() or c3.is_zero():
            continue
        if all(gcd(p, q).is_constant() for p, q in ((E, c2), (E, c3), (c2, c3))) \
                and repeated_part(c3).is_constant():
            return c2, c3


@pytest.mark.parametrize("a, b", itertools.product(range(3), range(4)))
def test_condition2_reads_planted_valuations(a, b):
    """v_E(G2) = a and v_E(G3) = b with random cofactors, moved by seeded
    integer matrices: the witness is gcd(G2, repeated_part(G3)), E^min(a, b-1)
    up to scale, and (2) holds exactly when not (a >= 1 and b >= 2)."""
    rng = random.Random("condition2:%d:%d" % (a, b))
    for _ in range(6):
        E = random_form(rng, 1, 3)
        if E.is_zero():
            continue
        c2, c3 = _planted_cofactors(rng, a, b, E)
        m = _moved(rng)
        pair = TorusPair(linear_change(E ** a * c2, m), linear_change(E ** b * c3, m))
        reference = gcd(pair.G2, repeated_part(pair.G3))
        verdict = check_conditions(pair).condition2
        assert verdict.holds == reference.is_constant() == (not (a >= 1 and b >= 2))
        assert verdict.witness == (None if verdict.holds else reference)
        if not verdict.holds:
            assert reference == linear_change(E, m).monic() ** min(a, b - 1)


# ---------------------------------------------------------------------------
# Factored-construction oracle for the condition checkers


LINEAR_POOL = [
    x0, x1, x2, x0 + x1, x0 - x1, x0 + x2, x1 + x2, x0 + x1 + x2,
    x0 - 2 * x2, x1 - x2,
]


def oracle_c2(g2_factors, g3):
    """Direct membership check: some prime of G2 squares into G3."""
    primes = []
    for p in g2_factors:
        if all(p.monic() != q.monic() for q in primes):
            primes.append(p)
    for prime in primes:
        ok, _ = divides(prime * prime, g3)
        if ok:
            return False
    return True


def oracle_c3(catalogue, pair):
    """Direct check over the known primes of the construction."""
    delta = pair.delta()
    for prime in catalogue:
        sq_ok, _ = divides(prime * prime, delta)
        if not sq_ok:
            continue
        in_g2, _ = divides(prime, pair.G2)
        if not in_g2:
            return False
    return True


def _check_against_oracle(pair, g2_primes):
    """Conditions (2) and (3) agree with the oracles, and a failing verdict
    carries a sound witness.  ``g2_primes`` lists the primes of G2."""
    report = check_conditions(pair)
    verdict2 = report.condition2
    assert verdict2.holds == oracle_c2(g2_primes, pair.G3)
    if not verdict2.holds:
        ok, _ = divides(verdict2.witness, pair.G2)
        assert ok
        sq, _ = divides(squarefree_part(verdict2.witness) ** 2, pair.G3)
        assert sq
    verdict3 = report.condition3
    if not verdict3.holds:
        # Soundness of the reported witness.
        w = squarefree_part(verdict3.witness)
        sq, _ = divides(w ** 2, pair.delta())
        assert sq
        in_g2, _ = divides(w, pair.G2)
        assert not in_g2
    else:
        assert oracle_c3(LINEAR_POOL, pair)


def test_condition_checkers_agree_with_oracle():
    rng = random.Random(71)
    checked = 0
    while checked < 50:
        l = [LINEAR_POOL[rng.randrange(len(LINEAR_POOL))] for _ in range(5)]
        g2_factors = l[:2]
        if rng.random() < 0.3:
            # Plant a condition-2 violation: square a G2 prime into G3.
            g3_factors = [l[0], l[0], l[2]]
        else:
            g3_factors = l[2:]
        g2 = g2_factors[0] * g2_factors[1]
        g3 = g3_factors[0] * g3_factors[1] * g3_factors[2]
        pair = TorusPair(g2, g3)
        if pair.delta().is_zero():
            continue
        _check_against_oracle(pair, g2_factors)
        checked += 1
    # Every prime divides G2 = 0: (3) holds, and (2) fails exactly when a
    # prime squares into G3.
    zero = MPoly.zero(X_VARS)
    for _ in range(20):
        l = [LINEAR_POOL[rng.randrange(len(LINEAR_POOL))] for _ in range(3)]
        _check_against_oracle(TorusPair(zero, l[0] * l[1] * l[2]), LINEAR_POOL)


# ---------------------------------------------------------------------------
# Total branch points


def test_total_branch_points_fixture():
    locus = total_branch_points(ACCEPT_PAIR)
    assert locus.count_with_multiplicity == 6
    points = dict(locus.rational_points)
    key_a = (Fraction(0), Fraction(1), Fraction(0))
    key_b = (Fraction(1), Fraction(0), Fraction(1))
    assert points[key_a] == 3
    assert points[key_b] == 1


# SWAPS[k] swaps x0 and xk, moving the chart xk != 0 to x0 != 0.
SWAPS = ((0, 1, 2), (1, 0, 2), (2, 1, 0))


def _swapped(pair, perm):
    """The pair with coordinate i moved to position perm[i]."""
    swap = [[int(j == perm[i]) for j in range(3)] for i in range(3)]
    return TorusPair(linear_change(pair.G2, swap), linear_change(pair.G3, swap))


def test_total_branch_points_all_total_after_rotation():
    locus = total_branch_points(ACCEPT_PAIR)
    for point, _ in locus.rational_points:
        pivot = next(i for i, c in enumerate(point) if c)
        cov = build_cover(_swapped(ACCEPT_PAIR, SWAPS[pivot]))
        moved = [None] * 3
        for i, c in enumerate(point):
            moved[SWAPS[pivot][i]] = c
        chart = (moved[1] / moved[0], moved[2] / moved[0])
        assert is_total_branch_point(cov, chart).status == "total"


def test_total_branch_points_of_a_shared_conic_is_empty():
    """T = G2: G2/T is constant, so no point is left off T."""
    locus = total_branch_points(TorusPair(x0 * x1, x0 * x1 * x2))
    assert locus.count_with_multiplicity == 0 and locus.rational_points == ()


# Valid pairs with a shared T of degree 1 or 2, and the rational points of
# G2/T = G3/T = 0 with their multiplicities.  (0 : 1 : -1) also lies on T.
SHARED_T = [
    (x0 * x1, x0 * (x1 ** 2 + x2 ** 2), [((1, 0, 0), 2)]),
    (x0 * x1, x0 * (x1 ** 2 + x2 ** 2 + x0 * x2), [((1, 0, -1), 1), ((1, 0, 0), 1)]),
    (x0 ** 2 + x1 * x2, (x0 ** 2 + x1 * x2) * (x0 + x1 + x2), []),
    (x0 * (x0 + x1 + x2), x0 * (x1 ** 2 - x2 ** 2),
     [((0, 1, -1), 1), ((1, Fraction(-1, 2), Fraction(-1, 2)), 1)]),
]


@pytest.mark.parametrize("g2, g3, expected", SHARED_T)
def test_total_branch_points_off_a_shared_component(g2, g3, expected):
    """The locus off T = gcd(G2, G3) is G2/T = G3/T = 0, of
    (2 - deg T)(3 - deg T) points: each listed point lies on both quotients,
    and here every point is rational, so the multiplicities sum to the count."""
    T = gcd(g2, g3)
    quotients = [divides(T, g)[1] for g in (g2, g3)]
    locus = total_branch_points(TorusPair(g2, g3))
    assert locus.count_with_multiplicity == (2 - T.total_degree()) * (3 - T.total_degree())
    assert sum(mult for _, mult in locus.rational_points) == locus.count_with_multiplicity
    assert list(locus.rational_points) == expected
    for point, _ in locus.rational_points:
        assert all(not q.evaluate(dict(zip(X_VARS, point))) for q in quotients)


def test_total_branch_points_takes_no_gcd_when_t_is_one(monkeypatch):
    calls = []
    monkeypatch.setattr(torus, "gcd", lambda p, q: calls.append(p) or gcd(p, q))
    assert total_branch_points(ACCEPT_PAIR).count_with_multiplicity == 6
    assert calls == []


def test_total_branch_points_on_curve_vanish():
    """Every reported point lies on both G2 = 0 and G3 = 0."""
    rng = random.Random(81)
    seen = 0
    for _ in range(10):
        pair = random_pair(rng)
        if not gcd(pair.G2, pair.G3).is_constant():
            continue
        locus = total_branch_points(pair)
        assert locus.count_with_multiplicity == 6
        for (a, b, c), _ in locus.rational_points:
            at = {"x0": a, "x1": b, "x2": c}
            assert pair.G2.evaluate(at) == 0
            assert pair.G3.evaluate(at) == 0
            seen += 1
    assert seen >= 1


def _tables(pair):
    return _integer_terms(pair.G2), _integer_terms(pair.G3)


def test_projected_points_of_accept_pair():
    """From a center off both curves, the rational points come back with
    the multiplicities of their directions, and the chart eliminant is, up
    to a nonzero constant, the resultant in x2 of the forms sheared by
    m = ((1, 0, a), (0, 1, b), (0, 0, 1)), with x0 = 1."""
    g, h = _tables(ACCEPT_PAIR)
    elim = project(g, h, (2, 1, 1))
    F = Fraction
    assert sorted(projected_points(g, h, elim, 6, (2, 1, 1))) == [
        ((F(0), F(1), F(0)), 3),
        ((F(1), F(0), F(1)), 1),
    ]
    m = ((1, 0, 2), (0, 1, 1), (0, 0, 1))
    sheared = resultant(linear_change(ACCEPT_PAIR.G2, m),
                        linear_change(ACCEPT_PAIR.G3, m), "x2")
    elim = homogenize(elim, 6, X_VARS)
    assert elim * sheared.leading_coefficient() == sheared * elim.leading_coefficient()


def test_project_rejects_a_center_on_a_curve():
    assert project(*_tables(ACCEPT_PAIR), (0, 0, 1)) is None  # on G2
    assert project(*_tables(ACCEPT_PAIR), (1, 1, 1)) is None  # on G3


def test_project_tests_the_center_before_it_shears(monkeypatch):
    """A center on g = 0 is rejected before either form is put on the
    chart plane of the center."""
    calls = []
    inner = univar._chart_plane
    monkeypatch.setattr(univar, "_chart_plane",
                        lambda t, c: calls.append(c) or inner(t, c))
    assert project(*_tables(ACCEPT_PAIR), (0, 0, 1)) is None  # on G2
    assert calls == []
    assert project(*_tables(ACCEPT_PAIR), (2, 1, 1)) is not None
    assert len(calls) == 2


def test_project_shared_component_gives_zero_eliminant():
    elim = project(_integer_terms(x0 * x1), _integer_terms(x0 * x1 * x2), (1, 1, 1))
    assert elim.is_zero()


def test_projected_points_refuses_a_shared_direction():
    """From (0 : 0 : 1), (1 : 0 : 0) and (1 : 0 : 1) lie on one direction."""
    g, h = _tables(CHART_DEPENDENT_PAIR)
    elim = project(g, h, (0, 0, 1))
    assert elim is not None
    assert projected_points(g, h, elim, 6, (0, 0, 1)) is None


def _multiplicities_in_chart(pair, perm):
    """Rational points and multiplicities of the pair in the chart that
    ``perm`` moves to x0 != 0, mapped back to the pair's coordinates."""
    locus = total_branch_points(_swapped(pair, perm))
    back = {}
    for point, mult in locus.rational_points:
        moved = [None] * 3
        for i, c in enumerate(point):
            moved[perm[i]] = c
        pivot = next(c for c in moved if c)
        back[tuple(c / pivot for c in moved)] = mult
    return back


# Three rational points: (0 : 1 : 0) of multiplicity 3, (1 : 0 : 0) of
# multiplicity 2 and (1 : 0 : 1), the last two on one line x1 = 0.
CHART_DEPENDENT_PAIR = TorusPair(x1 * x0 - x2 ** 2 + x2 * x0,
                                 x1 * x2 * x0 + x2 ** 3 - x2 ** 2 * x0)


@pytest.mark.parametrize("perm", SWAPS)
def test_total_branch_multiplicities_independent_of_chart(perm):
    """(1 : 0 : 0) shares a direction with (1 : 0 : 1) from some centers;
    its multiplicity 2 must not depend on the chart."""
    pair = CHART_DEPENDENT_PAIR
    F = Fraction
    assert _multiplicities_in_chart(pair, perm) == {
        (F(0), F(1), F(0)): 3,
        (F(1), F(0), F(0)): 2,
        (F(1), F(0), F(1)): 1,
    }


def test_total_branch_multiplicities_of_line_arrangements():
    """G2 and G3 products of lines: all six points are rational, so their
    multiplicities sum to 6, in every chart alike."""
    rng = random.Random(5)
    checked = 0
    while checked < 20:
        pair = TorusPair(_product_of_lines(rng, 2), _product_of_lines(rng, 3))
        if not gcd(pair.G2, pair.G3).is_constant():
            continue
        charts = [_multiplicities_in_chart(pair, perm) for perm in SWAPS]
        assert sum(charts[0].values()) == 6
        assert charts[0] == charts[1] == charts[2]
        checked += 1


def _product_of_lines(rng, count):
    p = MPoly.constant(X_VARS, 1)
    while count:
        c = [rng.randint(-2, 2) for _ in range(3)]
        if any(c):
            p = p * (c[0] * x0 + c[1] * x1 + c[2] * x2)
            count -= 1
    return p
