"""delta_f and the fiber cubic against a reference built the long way: f
substituted on the dual line v0 = -u1*v1 - u2*v2 with ``MPoly.substitute``,
and the discriminant 18pqrs - 4q^3 s + q^2 r^2 - 4p r^3 - 27p^2 s^2 expanded
with ``MPoly`` products.  Then a check that ``delta_f`` substitutes nothing
and that a flag ``classify`` never calls it."""

import importlib
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from triplecover import etamap, polyring
from triplecover.etamap import TernaryCubic, delta_f, fiber_binary_cubic
from triplecover.polyring import U_VARS, UV_VARS, MPoly, linear_change

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

classify = importlib.import_module("triplecover.classify")

FERMAT = TernaryCubic((1, 0, 0, 0, 0, 0, 1, 0, 0, 1))


def reference_fiber(f):
    u1, u2, v1, v2 = (MPoly.variable(UV_VARS, v) for v in UV_VARS)
    restricted = f.as_poly().substitute({"v0": -u1 * v1 - u2 * v2, "v1": v1, "v2": v2},
                                        UV_VARS)
    buckets = restricted.coefficients_in("v1")
    return tuple(MPoly(U_VARS, {e[:2]: c for e, c in buckets[k].terms.items()})
                 if k in buckets else MPoly.zero(U_VARS) for k in (3, 2, 1, 0))


def reference_delta(f):
    p, q, r, s = reference_fiber(f)
    return (18 * p * q * r * s - 4 * q * q * q * s + q * q * r * r
            - 4 * p * r * r * r - 27 * p * p * s * s)


def _rational(rng):
    return TernaryCubic(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                              for _ in range(10)))


def _sparse(rng):
    keep = rng.sample(range(10), rng.randint(1, 5))
    return TernaryCubic(tuple(rng.randint(-9, 9) or 1 if n in keep else 0 for n in range(10)))


def _huge(rng):
    return TernaryCubic(tuple(rng.randint(-10 ** 30, 10 ** 30) for _ in range(10)))


def _cubics():
    rng = random.Random(27)
    cubics = [(kind, make(rng)) for kind, make in
              (("rational", _rational), ("sparse", _sparse), ("huge", _huge))
              for _ in range(6)]
    cubics += [("monomial%d" % n, TernaryCubic(tuple(int(k == n) for k in range(10))))
               for n in range(10)]
    cubics += [(name, TernaryCubic.from_poly(MPoly(polyring.V_VARS, terms)))
               for name, terms in workloads.SINGULAR_CUBICS.items()]
    moved = [(kind + "_moved", TernaryCubic.from_poly(
        linear_change(f.as_poly(), workloads._invertible(rng, 3)))) for kind, f in cubics]
    return cubics + moved


CUBICS = _cubics()


@pytest.mark.parametrize("kind, f", CUBICS, ids=[kind for kind, _ in CUBICS])
def test_delta_f_is_the_expanded_discriminant_of_the_substituted_fiber(kind, f):
    assert fiber_binary_cubic(f).entries() == reference_fiber(f)
    assert delta_f(f) == reference_delta(f)


def test_the_cubics_cover_each_kind():
    """The rational cubics have non-integral coefficients, the sparse ones
    miss monomials, the huge ones have 30-digit coefficients, and some
    cubics have delta_f = 0 while others do not."""
    kinds = dict(CUBICS)
    assert any(c.denominator != 1 for c in kinds["rational"].t)
    assert 0 in kinds["sparse"].t
    assert max(abs(c) for c in kinds["huge"].t) > 10 ** 28
    zero = [delta_f(f).is_zero() for _, f in CUBICS]
    assert any(zero) and not all(zero)


def _flag_smooth_cubic():
    tc = types.SimpleNamespace(polyring=polyring, etamap=etamap, classify=classify)
    return workloads.WORKLOADS["flag_smooth"].build(tc, 1)[0].payload.flag_cubic


@pytest.mark.parametrize("f", [FERMAT, _flag_smooth_cubic()], ids=["fermat", "flag_smooth"])
def test_delta_f_substitutes_nothing_and_flag_classify_never_calls_it(f, monkeypatch):
    """delta_f reads the fiber off f's terms, with no ``MPoly.substitute``.
    A flag ``classify`` records lambda = -27 from the lemma ledger and calls
    neither ``verify_discrim_lemma`` nor ``delta_f``; both are patched on the
    module, where ``verify_discrim_lemma`` looks ``delta_f`` up."""
    substitutions, calls = [], []
    substitute = MPoly.substitute
    monkeypatch.setattr(MPoly, "substitute",
                        lambda *args, **kwargs: substitutions.append(args) or substitute(*args, **kwargs))
    assert not delta_f(f).is_zero()
    assert substitutions == []
    for name in ("delta_f", "verify_discrim_lemma"):
        monkeypatch.setattr(etamap, name, lambda *args, name=name, inner=getattr(etamap, name):
                            calls.append(name) or inner(*args))
    report = classify.classify(classify.CoverSpec.flag(f))
    assert calls == []
    assert report.case == classify.CASE_FLAG_BUNDLE
    assert report.certificates["lambda"] == Fraction(-27)
