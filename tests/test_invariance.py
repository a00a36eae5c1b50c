"""Verdicts that do not depend on the library's arbitrary choices.

The order of ``PROJECTION_CENTERS`` picks the projection center of
``univar.common_points`` and of the singular-point search, and the order of
``SQUAREFREE_LINES`` picks the line that certifies a form squarefree.  Under
any reordering a report may differ only in its ``squarefree_line``
certificate, and the new line must still certify S."""

import dataclasses
import importlib
import random
import sys
import types
from pathlib import Path

import pytest

from triplecover import polyring, univar
from triplecover.classify import CoverSpec, classify, cross_validate
from triplecover.etamap import TernaryCubic

from test_classify import SINGULAR_WITNESSES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

classify_mod = importlib.import_module("triplecover.classify")

SPECS_PER_WORKLOAD = 6


@pytest.fixture(scope="module")
def baseline():
    """The first specs of the flag_smooth and torus_dense workloads at
    seed 1, then the nodal and cuspidal cubics, each with its report under
    the library's own orders."""
    tc = types.SimpleNamespace(**{
        layer: importlib.import_module("triplecover." + layer)
        for layer in ("polyring", "etamap", "torus", "classify")
    })
    specs = [spec.payload for name in ("flag_smooth", "torus_dense")
             for spec in workloads.WORKLOADS[name].build(tc, 1)[:SPECS_PER_WORKLOAD]]
    specs += [CoverSpec.flag(TernaryCubic.from_poly(SINGULAR_WITNESSES[kind][0]))
              for kind in ("nodal", "cuspidal")]
    return [(spec, classify(spec)) for spec in specs]


def _without_line(report):
    certificates = dict(report.certificates)
    certificates.pop("squarefree_line", None)
    return dataclasses.replace(report, certificates=certificates)


@pytest.mark.parametrize("seed", range(3))
def test_reports_do_not_depend_on_center_or_line_order(monkeypatch, baseline, seed):
    """Case, total-branch count, points and multiplicities, S, T, branch
    form, notes and every other certificate stay the same."""
    rng = random.Random(seed)
    centers, lines = list(polyring.PROJECTION_CENTERS), list(polyring.SQUAREFREE_LINES)
    rng.shuffle(centers)
    rng.shuffle(lines)
    assert centers[0] != polyring.PROJECTION_CENTERS[0]
    assert lines[0] != polyring.SQUAREFREE_LINES[0]
    for module in (univar, classify_mod):
        monkeypatch.setattr(module, "PROJECTION_CENTERS", tuple(centers))
    monkeypatch.setattr(polyring, "SQUAREFREE_LINES", tuple(lines))
    assert {base.case for _, base in baseline} == {"FlagBundle", "CubicSurface", "NotNormal"}
    for spec, base in baseline:
        report = classify(spec)
        assert _without_line(report) == _without_line(base)
        assert cross_validate(report) == []
