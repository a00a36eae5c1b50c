"""Tests for the exact sparse polynomial kernel."""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from triplecover import polyring
from triplecover.errors import DegenerateCover, TripleCoverError, VariableMismatchError
from triplecover.polyring import (
    SQUAREFREE_LINES,
    SQUAREFREE_MODULUS,
    MPoly,
    U_VARS,
    X_VARS,
    _pseudo_remainder,
    dehomogenize,
    divides,
    exact_divide,
    gcd,
    homogenize,
    lift_direction,
    radical_divides,
    repeated_part,
    resultant,
    squarefree_decomposition,
    squarefree_line,
    squarefree_part,
)

u1 = MPoly.variable(U_VARS, "u1")
u2 = MPoly.variable(U_VARS, "u2")
one = MPoly.constant(U_VARS, 1)


def random_poly(rng, vars=U_VARS, max_deg=3, max_terms=5, span=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in vars)
        c = rng.randint(-span, span)
        if c:
            terms[exps] = terms.get(exps, Fraction(0)) + c
    return MPoly(vars, {e: c for e, c in terms.items() if c})


def test_constructors():
    assert MPoly.zero(U_VARS).is_zero()
    assert MPoly.constant(U_VARS, 5).constant_value() == 5
    assert u1.degree_in("u1") == 1
    assert u1.degree_in("u2") == 0


def test_basic_arithmetic():
    p = u1 + u2
    q = u1 - u2
    assert p * q == u1 ** 2 - u2 ** 2
    assert p + q == 2 * u1
    assert (p - p).is_zero()
    assert -p == MPoly(U_VARS, {(1, 0): Fraction(-1), (0, 1): Fraction(-1)})


def test_power_and_scalar_division():
    p = u1 + 1
    assert p ** 0 == one
    assert p ** 3 == u1 ** 3 + 3 * u1 ** 2 + 3 * u1 + 1
    assert (2 * p) / 2 == p
    with pytest.raises(ZeroDivisionError):
        p / 0


def test_variable_mismatch_rejected():
    x0 = MPoly.variable(X_VARS, "x0")
    with pytest.raises(VariableMismatchError):
        u1 + x0


def test_total_degree_conventions():
    assert MPoly.zero(U_VARS).total_degree() == -1
    assert one.total_degree() == 0
    assert (u1 * u2 ** 2).total_degree() == 3


def test_leading_term_graded_lex():
    p = u1 ** 2 + u1 * u2 ** 2  # degree 3 term leads
    exps, c = p.leading_term()
    assert exps == (1, 2)
    assert c == 1


def test_partial_derivative():
    p = u1 ** 3 * u2 + 2 * u2 ** 2
    assert p.partial_derivative("u1") == 3 * u1 ** 2 * u2
    assert p.partial_derivative("u2") == u1 ** 3 + 4 * u2


def test_substitute_and_evaluate():
    p = u1 ** 2 + u2
    assert p.evaluate({"u1": Fraction(2), "u2": Fraction(3)}) == 7
    q = p.substitute({"u1": u2, "u2": u1}, U_VARS)
    assert q == u2 ** 2 + u1


def test_substitute_requires_full_assignment():
    p = u1 + u2
    with pytest.raises(TripleCoverError):
        p.substitute({"u1": u2}, U_VARS)


def test_homogenize_dehomogenize():
    p = u1 ** 2 * u2 + u1 - 3
    form = homogenize(p, 4, X_VARS)
    assert form.is_homogeneous()
    assert form.total_degree() == 4
    assert dehomogenize(form, U_VARS) == p


def test_homogenize_degree_too_small():
    with pytest.raises(TripleCoverError):
        homogenize(u1 ** 3, 2, X_VARS)


def test_divides_and_exact_divide():
    p = u1 + u2
    q = p * (u1 - 2 * u2)
    ok, quotient = divides(p, q)
    assert ok
    assert quotient == u1 - 2 * u2
    assert exact_divide(p, q) == u1 - 2 * u2
    ok, _ = divides(u1 + 1, q)
    assert not ok


def test_gcd_simple():
    p = (u1 + u2) ** 2 * (u1 - 1)
    q = (u1 + u2) * (u2 + 3)
    g = gcd(p, q)
    assert g == u1 + u2  # monic normalization


def test_gcd_coprime_is_one():
    assert gcd(u1 + 1, u2 + 1) == one


def test_gcd_with_zero():
    p = 2 * u1 + 2
    assert gcd(p, MPoly.zero(U_VARS)) == u1 + 1
    assert gcd(MPoly.zero(U_VARS), p) == u1 + 1


def test_pseudo_remainder_is_exact():
    # The second step cancels two degrees of u2; u1^3 * u2^4 = u1 mod q.
    q = u1 * u2 ** 2 + 1
    assert _pseudo_remainder(u2 ** 4, q, "u2") == u1
    assert _pseudo_remainder(u2 + 1, q, "u2") == u2 + 1


def test_kernel_imports_only_errors_and_stdlib():
    """polyring is the bottom layer.  It imports the standard library and
    ``.errors``; the one other package import is the printer that
    ``MPoly.__repr__`` loads when called."""
    tree = ast.parse(Path(polyring.__file__).read_text())
    in_repr = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "__repr__"
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            allowed = {"errors", "polyparse"} if id(node) in in_repr else {"errors"}
            assert node.module in allowed, (node.lineno, node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = ([node.module] if isinstance(node, ast.ImportFrom)
                       else [a.name for a in node.names])
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, module


def test_lift_direction():
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    g = x2 ** 2 - x0 * x1
    # On the line (1 : 4 : w2) the conic g meets x2 - x1/2 only at w2 = 2.
    assert lift_direction(g, 2 * x2 - x1, 1, 4) == 2
    # x2 = +-2 both lie on g and on x2^2 - 4 x0^2: two points, no lift.
    assert lift_direction(g, x2 ** 2 - 4 * x0 ** 2, 1, 4) is None
    # No common point on the line.
    assert lift_direction(g, x2 - x0, 1, 4) is None


def test_resultant_univariate():
    # Res(x - a, x - b) = b - a up to sign convention
    t = ("x",)
    x = MPoly.variable(t, "x")
    r = resultant(x - 2, x - 3, "x")
    assert r.constant_value() != 0
    r = resultant(x - 2, x - 2, "x")
    assert r.is_zero()


def test_resultant_common_root_vanishes():
    p = (u1 - u2) * (u1 + 1)
    q = (u1 - u2) * (u1 + 2)
    assert resultant(p, q, "u1").is_zero()


def test_resultant_classic_discriminant():
    # disc of u1^2 + b*u1 + c via Res(f, f') = lead * disc-ish identity
    b, c = 3, -7
    f = u1 ** 2 + b * u1 + c
    r = resultant(f, f.partial_derivative("u1"), "u1")
    assert r.constant_value() == -(b * b - 4 * c)


def test_squarefree_decomposition_reassembles():
    p = (u1 + u2) ** 2 * (u1 - 1) * 6
    dec = squarefree_decomposition(p)
    assert dec.reassemble(U_VARS) == p
    mults = sorted(m for _, m in dec.parts)
    assert mults == [1, 2]


def test_squarefree_part_and_repeated_part():
    p = (u1 + 1) ** 3 * (u2 - 2) ** 2 * (u1 + u2)
    sf = squarefree_part(p)
    assert sf == ((u1 + 1) * (u2 - 2) * (u1 + u2)).monic()
    rep = repeated_part(p)
    assert rep == ((u1 + 1) ** 2 * (u2 - 2)).monic()


def random_form(rng, deg, span=5):
    """A nonzero ternary form of the given degree over X_VARS, each
    coefficient a fraction that may be zero."""
    while True:
        form = MPoly(X_VARS, {
            (a, b, deg - a - b): Fraction(rng.randint(-span, span), rng.randint(1, 3))
            for a in range(deg + 1) for b in range(deg + 1 - a)
        })
        if not form.is_zero():
            return form


def test_squarefree_line_never_certifies_a_square():
    """E^2 * R restricts to a square on every line x2 = a*x0 + b*x1."""
    rng = random.Random(106)
    for _ in range(60):
        e_deg = rng.randint(1, 2)
        e = random_form(rng, e_deg)
        r = random_form(rng, rng.randint(0, 6 - 2 * e_deg))
        assert squarefree_line(e * e * r) is None


def test_squarefree_line_certifies_fractional_forms():
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    form = Fraction(3, 7) * (x0 ** 2 - Fraction(2, 5) * x1 * x2) \
        * (x0 + Fraction(1, 5) * x2) * (Fraction(-4, 9) * x1 + x2)
    line = squarefree_line(form)
    assert line in SQUAREFREE_LINES
    # The test reads the primitive integer multiple, so scale is irrelevant.
    assert squarefree_line(form.monic()) == squarefree_line(-11 * form) == line
    assert squarefree_line(Fraction(-2, 9) * (x0 - x1 / 3) ** 2 * x2) is None
    # A nonzero constant and a linear form are squarefree.
    assert squarefree_line(MPoly.constant(X_VARS, Fraction(5, 3))) == SQUAREFREE_LINES[0]
    assert squarefree_line(x0 - 3 * x2) == SQUAREFREE_LINES[0]


def test_squarefree_line_skips_lines_that_fail():
    x0, x1, x2 = (MPoly.variable(X_VARS, v) for v in X_VARS)
    (a, b), second = SQUAREFREE_LINES[0], SQUAREFREE_LINES[1]
    first = x2 - a * x0 - b * x1
    # The first line is a component, so the form restricts to zero there.
    assert squarefree_line(first * x0 * x1) == second
    # On the first line the form restricts to t^2 - p, squarefree over Q but
    # a square modulo p: the failed reduction only moves on to the next line.
    p = SQUAREFREE_MODULUS
    form = x1 ** 2 - p * x0 ** 2 + x0 * first
    assert squarefree_line(form) == second
    with pytest.raises(DegenerateCover):
        squarefree_line(MPoly.zero(X_VARS))
    with pytest.raises(TripleCoverError):
        squarefree_line(x0 ** 2 + x1)
    with pytest.raises(TripleCoverError):
        squarefree_line(u1 * u2)


def test_polynomials_share_exponent_tuples():
    a, b = u1 * u2, u2 * u1
    c = MPoly(U_VARS, {(1, 1): 3})
    assert next(iter(a.terms)) is next(iter(b.terms)) is next(iter(c.terms))


def test_radical_divides():
    p = (u1 + 1) ** 2
    ok, _ = radical_divides(p, (u1 + 1) * (u2 + 5))
    assert ok
    ok, offending = radical_divides(p * (u2 - 1), u1 + 1)
    assert not ok
    assert offending is not None


def test_only_the_kernel_certifies_squarefree():
    """The modular squarefree test lives in the repeated-factor primitives:
    no other module names its pieces, and ``squarefree_line`` is called
    elsewhere only by ``classify._certify_line``, for the report's
    certificate.  On the flag route that line is also the proof that the
    dual cubic is smooth."""
    hidden = {"_squarefree_mod", "_trim_mod", "SQUAREFREE_MODULUS"}
    for path in Path(polyring.__file__).parent.glob("*.py"):
        if path.name == "polyring.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            assert not names & hidden, (path.name, node.lineno)
        callers = {
            fn.name
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None))
            == "squarefree_line"
        }
        allowed = {"_certify_line"} if path.name == "classify.py" else set()
        assert callers <= allowed, (path.name, callers)


def test_no_unused_imports():
    """Every name that a module of the package imports is used in it;
    ``__init__`` imports only to re-export."""
    for path in Path(polyring.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_collect_and_coefficients_in():
    p = u1 ** 2 * u2 + 3 * u1 * u2 + u2 ** 2
    by_u2 = p.coefficients_in("u2")
    assert by_u2[1] == u1 ** 2 + 3 * u1
    assert by_u2[2] == one


# ---------------------------------------------------------------------------
# Randomized properties


def test_ring_axioms_random():
    """Associativity, commutativity, distributivity on random samples."""
    rng = random.Random(101)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        r = random_poly(rng)
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r


def test_gcd_divides_both_random():
    rng = random.Random(202)
    for _ in range(200):
        p = random_poly(rng, max_deg=2, max_terms=3)
        q = random_poly(rng, max_deg=2, max_terms=3)
        g = gcd(p, q)
        if g.is_zero():
            assert p.is_zero() and q.is_zero()
            continue
        for h in (p, q):
            if not h.is_zero():
                ok, _ = divides(g, h)
                assert ok


def test_gcd_detects_planted_factor_random():
    rng = random.Random(303)
    for _ in range(200):
        f = random_poly(rng, max_deg=2, max_terms=3)
        if f.is_constant():
            continue
        p = f * random_poly(rng, max_deg=1, max_terms=2)
        q = f * random_poly(rng, max_deg=1, max_terms=2)
        g = gcd(p, q)
        if p.is_zero() or q.is_zero():
            continue
        ok, _ = divides(f.monic(), g)
        assert ok


def test_resultant_multiplicative_random():
    """Res(p*q, h) = Res(p, h) * Res(q, h) in the main variable."""
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        p = random_poly(rng, max_deg=2, max_terms=3)
        q = random_poly(rng, max_deg=2, max_terms=3)
        h = random_poly(rng, max_deg=2, max_terms=3)
        if any(t.degree_in("u1") < 1 for t in (p, q, h)):
            continue
        lhs = resultant(p * q, h, "u1")
        rhs = resultant(p, h, "u1") * resultant(q, h, "u1")
        assert lhs == rhs
        checked += 1


def test_squarefree_reconstruction_random():
    rng = random.Random(505)
    for _ in range(200):
        p = random_poly(rng, max_deg=2, max_terms=3)
        q = random_poly(rng, max_deg=1, max_terms=2)
        prod = p * q ** 2
        if prod.is_zero():
            continue
        dec = squarefree_decomposition(prod)
        assert dec.reassemble(U_VARS) == prod
        for factor, _ in dec.parts:
            assert gcd(factor, factor.partial_derivative("u1")).is_constant() or \
                squarefree_part(factor) == factor.monic()


def test_homogenize_round_trip_random():
    rng = random.Random(606)
    for _ in range(200):
        p = random_poly(rng, max_deg=2, max_terms=4)
        if p.is_zero():
            continue
        d = p.total_degree() + rng.randint(0, 2)
        form = homogenize(p, d, X_VARS)
        assert form.is_homogeneous()
        assert dehomogenize(form, U_VARS) == p


def test_exact_divide_round_trip_random():
    rng = random.Random(707)
    for _ in range(200):
        p = random_poly(rng, max_deg=2, max_terms=3)
        q = random_poly(rng, max_deg=2, max_terms=3)
        if p.is_zero() or q.is_zero():
            continue
        assert exact_divide(p, p * q) == q
