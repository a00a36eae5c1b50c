"""Tests for the tck command line tool."""

import argparse
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from triplecover.cli import build_parser, run
from triplecover.polyparse import parse_poly
from triplecover.polyring import V_VARS

FERMAT = "v0^3+v1^3+v2^3"
DOUBLE_LINE = "v0^2*v1+v0^2*v2"
SINGULAR_NOTE = re.compile(r"singular at \((.+) : (.+) : (.+)\)")
FERMAT_BRANCH = "(x0^3-x1^3-x2^3)^2-4*x1^3*x2^3"
RAW_TORUS = ("--a", "0", "--b", "1", "--c=-2*(u2^3-1)", "--d", "u1")
DEGENERATE_AT_ORIGIN = ("--a", "u1", "--b", "u1*u2", "--c", "u1^2", "--d", "u1+u2")
README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_discrim_fermat(capsys):
    code, out, _ = invoke(capsys, "verify-discrim", "--cubic", FERMAT)
    assert code == 0
    assert "lambda = -27" in out


def test_eta_fermat(capsys):
    code, out, _ = invoke(capsys, "eta", "--cubic", FERMAT)
    assert code == 0
    assert "a = -u1^2*u2" in out
    assert "b = u1^3 - 1" in out


def test_branch_subcommand(capsys):
    code, out, _ = invoke(
        capsys, "branch", "--a", "0", "--b", "1",
        "--c=-2*(u2^3-1)", "--d", "u1",
    )
    assert code == 0
    assert "D = " in out
    assert "S = " in out


def test_branch_zero_is_degenerate(capsys):
    code, _, err = invoke(capsys, "branch", "--a", "0", "--b", "0",
                          "--c", "0", "--d", "0")
    assert code == 4
    assert "degenerate" in err


def test_delta_and_dual(capsys):
    code, out, _ = invoke(capsys, "delta", "--cubic", FERMAT)
    assert code == 0
    code, dual_out, _ = invoke(capsys, "dual", "--cubic", FERMAT)
    assert code == 0
    # The Fermat discriminant is already squarefree up to the -27 scale.
    assert dual_out.strip() != ""


def test_torus_check_passing(capsys):
    code, out, _ = invoke(capsys, "torus-check", "--g2", "x0*x1",
                          "--g3", "x2^3-x0^3")
    assert code == 0
    assert "all conditions hold" in out


def test_torus_check_failing(capsys):
    code, out, _ = invoke(capsys, "torus-check", "--g2", "x0*x1",
                          "--g3", "x0^2*x2")
    assert code == 1
    assert "condition c2: fails" in out
    assert "witness: x0" in out


def test_torus_check_degenerate(capsys):
    code, _, err = invoke(capsys, "torus-check", "--g2=-x0^2", "--g3", "x0^3")
    assert code == 4
    assert err == "degenerate input: G2^3 + G3^2 = 0: condition 3 undefined\n"


def test_torus_check_both_forms_zero(capsys):
    """G2 = G3 = 0 fails condition (2) before the zero sextic fails (3)."""
    code, out, err = invoke(capsys, "torus-check", "--g2=0", "--g3=0")
    assert code == 4
    assert out == ""
    assert err == "error: condition 2 with both forms zero\n"


def test_classify_fermat_json(capsys):
    code, out, _ = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                          "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "FlagBundle"
    assert payload["lambda"] == "-27"
    assert payload["total_branch"]["count"] == 9
    assert len(payload["cusps"]) == 9
    rational = [c for c in payload["cusps"] if c["rational"]]
    assert len(rational) == 3
    assert payload["violations"] == []


def test_classify_torus_json(capsys):
    code, out, _ = invoke(capsys, "classify", "--g2", "x0*x1",
                          "--g3", "x2^3-x0^3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "CubicSurface"
    assert payload["conditions"]["c2"]["holds"]
    assert payload["conditions"]["c3"]["holds"]
    assert "x3^3" in payload["surface"]


def test_classify_singular_exit_code(capsys):
    code, out, _ = invoke(capsys, "classify", "--flag-cubic", "v0*v1*v2")
    assert code == 1
    assert "NotNormal" in out


def test_classify_needs_exactly_one_input(capsys):
    code, _, err = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                          "--g2", "x0*x1", "--g3", "x2^3")
    assert code == 2


def test_restrict_line_disconnected(capsys):
    code, out, _ = invoke(
        capsys, "restrict-line", "--a", "0", "--b", "1", "--c", "0",
        "--d", "1", "--u1", "t", "--u2", "t",
    )
    assert code == 1
    assert "disconnected" in out
    assert "witness root: 0" in out


@pytest.mark.xfail(strict=True, reason="connectivity is decided over Q, not Q-bar "
                   "(ROADMAP item 9): conjugate sheets read 'connected'")
def test_restrict_line_conjugate_sheets_are_disconnected(capsys):
    """The resolvent Y^3 - 2(1 + t)^3 has the three roots cbrt(2)*w^k*(1 + t),
    conjugate over Q(cbrt(2), w): the line's cover is three disjoint sheets."""
    code, out, _ = invoke(
        capsys, "restrict-line", "--a", "0", "--b", "1", "--c", "2*(1+u1)^3",
        "--d", "0", "--u1", "t", "--u2", "2*t",
    )
    assert "connectivity: disconnected" in out
    assert code == 1


def test_total_branch_flag(capsys):
    code, out, _ = invoke(capsys, "total-branch", "--cubic", FERMAT)
    assert code == 0
    assert "total branch count: 9" in out


def test_total_branch_torus(capsys):
    code, out, _ = invoke(capsys, "total-branch", "--g2", "x0*x1",
                          "--g3", "x2^3-x0^3")
    assert code == 0
    assert "count with multiplicity: 6" in out
    assert "(0 : 1 : 0) multiplicity 3" in out


def test_total_branch_point_probe(capsys):
    code, out, _ = invoke(
        capsys, "total-branch", "--a", "0", "--b", "1",
        "--c=-2*(u2^3-1)", "--d", "u1", "--point", "0,1",
    )
    assert code == 0
    assert "total" in out


def test_cusp_check_positive(capsys):
    # (0 : 1 : 1) lies off the chart x0 != 0.
    for point in ("1,1,0", "0,1,1"):
        code, out, _ = invoke(capsys, "cusp-check", "--branch", FERMAT_BRANCH,
                              "--point", point)
        assert code == 0, point
        assert "ordinary cusp: True" in out


def test_cusp_check_negative(capsys):
    code, _, _ = invoke(capsys, "cusp-check", "--branch", FERMAT_BRANCH,
                        "--point", "1,2,0")
    assert code == 1


def test_cusp_check_rejects_what_is_not_a_curve(capsys):
    code, out, err = invoke(capsys, "cusp-check", "--branch", "x1^2-x2^3",
                            "--point", "1,0,0")
    assert (code, out) == (4, "")
    assert err == "error: branch form must be a form in (x0, x1, x2)\n"
    code, out, err = invoke(capsys, "cusp-check", "--branch", "0",
                            "--point", "1,0,0")
    assert (code, out) == (4, "")
    assert err == "degenerate input: cusp check of the zero form\n"


def test_branch_multiplicity_too_high_prints_the_factor(capsys):
    code, out, err = invoke(capsys, "branch", "--a", "0", "--b", "1",
                            "--c", "0", "--d", "u1")
    assert (code, out) == (4, "")
    assert err == "degenerate input: branch factor x0*x1 has multiplicity 3\n"


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "delta", "--cubic", "v0^")
    assert code == 3
    assert "parse error" in err


def test_usage_error_exit_code(capsys):
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 2


def test_zero_projective_point_is_usage_error(capsys):
    code, out, err = invoke(capsys, "cusp-check", "--branch", "x0^6",
                            "--point", "0,0,0")
    assert (code, out) == (2, "")
    assert err == "usage error: zero vector is not a projective point\n"
    # A chart point has no such restriction: (0, 0) is the chart origin.
    code, out, _ = invoke(capsys, "total-branch", *RAW_TORUS, "--point", "0,0")
    assert (code, out) == (1, "point status: not_total\n")


def test_file_indirection(tmp_path, capsys):
    path = tmp_path / "cubic.txt"
    path.write_text(FERMAT + "\n")
    code, out, _ = invoke(capsys, "verify-discrim", "--cubic", "@" + str(path))
    assert code == 0
    assert "lambda = -27" in out


def test_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "verify-discrim", "--cubic", "@/no/such/file")
    assert code == 2


def test_classify_double_line_witness(capsys):
    # D_f vanishes identically for a double line, singular all along it.
    code, out, err = invoke(capsys, "classify", "--flag-cubic", DOUBLE_LINE,
                            "--format", "json")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["case"] == "NotNormal"
    match = next(filter(None, (SINGULAR_NOTE.search(n) for n in payload["notes"])))
    at = {v: Fraction(c) for v, c in zip(V_VARS, match.groups())}
    f = parse_poly(DOUBLE_LINE, V_VARS)
    assert all(not f.partial_derivative(v).evaluate(at) for v in V_VARS)


def test_classify_rational_flag_cubic_json_pinned(capsys):
    """A flag cubic with non-integer rational coefficients: the witness
    reads f's primitive integer multiple, and the report is the same."""
    code, out, err = invoke(capsys, "classify", "--flag-cubic",
                            "1/2*v1^2*v2 - 1/3*v0^3 - 1/3*v0^2*v2", "--format", "json")
    assert (code, err) == (1, "")
    assert out == (
        '{\n  "S": null,\n  "T": null,\n  "branch": null,\n  "case": "NotNormal",\n'
        '  "conditions": null,\n  "lambda": null,\n'
        '  "notes": [\n    "dual cubic is singular at (0 : 0 : 1)"\n  ],\n'
        '  "total_branch": {\n    "count": 0,\n    "rational_points": []\n  },\n'
        '  "violations": []\n}\n')


def test_total_branch_point_degenerate_json_pinned(capsys):
    code, out, err = invoke(capsys, "total-branch", *DEGENERATE_AT_ORIGIN,
                            "--point", "0,0", "--format", "json")
    assert (code, err) == (4, "")
    assert out == (
        '{\n  "S": null,\n  "T": null,\n  "branch": null,\n  "case": null,\n'
        '  "conditions": null,\n  "lambda": null,\n  "notes": [],\n'
        '  "status": "degenerate",\n'
        '  "total_branch": {\n    "count": 0,\n    "rational_points": []\n  },\n'
        '  "violations": []\n}\n')


def test_json_output_deterministic(capsys):
    _, out1, _ = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                        "--format", "json")
    _, out2, _ = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                        "--format", "json")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("eta", "--cubic", FERMAT),
    ("branch",) + RAW_TORUS,
    ("delta", "--cubic", FERMAT),
    ("dual", "--cubic", FERMAT),
    ("verify-discrim", "--cubic", FERMAT),
    ("torus-check", "--g2", "x0*x1", "--g3", "x2^3-x0^3"),
    ("classify", "--flag-cubic", FERMAT),
    ("restrict-line",) + RAW_TORUS + ("--u1", "t", "--u2", "1"),
    ("total-branch", "--cubic", FERMAT),
    ("cusp-check", "--branch", FERMAT_BRANCH, "--point", "1,1,0"),
], ids=lambda argv: argv[0])
def test_chart_option_is_usage_error(capsys, argv):
    """Verdicts are projective, so there is no chart to choose."""
    code, out, err = invoke(capsys, *argv, "--chart", "x1")
    assert code == 2
    assert out == ""
    assert "--chart" in err


PINNED_TEXT = {
    "eta": (
        ("eta", "--cubic", FERMAT), 0,
        "a = -u1^2*u2\nb = u1^3 - 1\nc = -u2^3 + 1\nd = u1*u2^2\n",
    ),
    "branch": (
        ("branch",) + RAW_TORUS, 0,
        "A = -u1\nB = 2*u2^3 - 2\nC = u1^2\nD = 4*u2^6 + 4*u1^3 - 8*u2^3 + 4\n"
        "branch = 4*x0^6 + 4*x0^3*x1^3 - 8*x0^3*x2^3 + 4*x2^6\n"
        "S = x0^6 + x0^3*x1^3 - 2*x0^3*x2^3 + x2^6\nT = 1\n",
    ),
    "restrict-line": (
        ("restrict-line",) + RAW_TORUS + ("--u1", "t", "--u2", "1"), 1,
        "a|L = 0\nb|L = 1\nc|L = 0\nd|L = t\n"
        "connectivity: disconnected\nwitness root: 0\n",
    ),
    "torus-check": (
        ("torus-check", "--g2", "x0*x1", "--g3", "x0^2*x2"), 1,
        "condition c2: fails (witness: x0)\ncondition c3: holds\n"
        "some condition fails\n",
    ),
    "torus-check-delta": (
        ("torus-check", "--g2", "x0*x1", "--g3", "x2^3-x0^3",
         "--delta", "x0^3*x1^3+(x2^3-x0^3)^2"), 0,
        "condition c1: holds\ncondition c2: holds\ncondition c3: holds\n"
        "all conditions hold\n",
    ),
    "total-branch-cubic": (
        ("total-branch", "--cubic", FERMAT), 0,
        "total branch count: 9\n  rational point: (1 : 0 : 1)\n"
        "  rational point: (1 : 1 : 0)\n  rational point: (0 : 1 : 1)\n",
    ),
    "total-branch-torus": (
        ("total-branch", "--g2", "x0*x1", "--g3", "x2^3-x0^3"), 0,
        "count with multiplicity: 6\n"
        "  rational point: (0 : 1 : 0) multiplicity 3\n"
        "  rational point: (1 : 0 : 1) multiplicity 1\n",
    ),
    "total-branch-point": (
        ("total-branch",) + RAW_TORUS + ("--point", "0,1"), 0,
        "point status: total\n",
    ),
    "total-branch-point-not-total": (
        ("total-branch",) + RAW_TORUS + ("--point", "1,1"), 1,
        "point status: not_total\n",
    ),
    "total-branch-point-degenerate": (
        ("total-branch",) + DEGENERATE_AT_ORIGIN + ("--point", "0,0"), 4,
        "point status: degenerate\n",
    ),
    "classify-torus": (
        ("classify", "--g2", "x0*x1", "--g3", "x0^2*x2"), 1,
        "case: NotNormal\nbranch: x0^4*x2^2 + x0^3*x1^3\n"
        "condition c2: fails (witness: x0)\ncondition c3: holds\n"
        "note: condition (2) fails with witness x0\n"
        "OK\n",
    ),
}


@pytest.mark.parametrize("name", PINNED_TEXT)
def test_text_output_pinned(capsys, name):
    argv, expected_code, expected_out = PINNED_TEXT[name]
    assert invoke(capsys, *argv) == (expected_code, expected_out, "")


# delta, dual and verify-discrim on the Fermat cubic and on one with
# non-integral coefficients, in text and json.
DELTA_PINS = json.loads((Path(__file__).parent / "cli_delta_pins.json").read_text())


@pytest.mark.parametrize("pin", DELTA_PINS, ids=[pin["name"] for pin in DELTA_PINS])
def test_delta_output_pinned(capsys, pin):
    assert invoke(capsys, *pin["argv"]) == (pin["code"], pin["stdout"], "")


# The json `conditions` payload of torus-check: a condition (2) failure, a
# condition (3) failure and a condition (1) match whose scale is 1/5.  Then
# `classify` of valid torus pairs, in text and json, which runs the surface
# check of cross_validate: six points (two of them rational), G2 = 0, a line
# T = x0 shared by G2 and G3, and a pair of Fermat forms.
TORUS_PINS = json.loads((Path(__file__).parent / "cli_torus_pins.json").read_text())


@pytest.mark.parametrize("pin", TORUS_PINS, ids=[pin["name"] for pin in TORUS_PINS])
def test_torus_check_json_pinned(capsys, pin):
    assert invoke(capsys, *pin["argv"]) == (pin["code"], pin["stdout"], "")


def _long_options(parser):
    options = set()
    for action in parser._actions:
        options.update(s for s in action.option_strings if s.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
    return options - {"--help"}


def test_readme_documents_every_option():
    text = README.read_text()
    section = text[text.index("## Command line"):]
    section = section.split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert _long_options(build_parser()) == documented


def _random_text(rng, vars, deg, dense, height):
    """A random polynomial as text: a form of degree deg in (x) or (v), of
    degree at most deg in (u1, u2); every monomial when dense, one to three
    of them otherwise, with coefficients in [-height, height]."""
    monomials = [e for e in itertools.product(range(deg + 1), repeat=len(vars))
                 if sum(e) == deg or len(vars) == 2 and sum(e) < deg]
    if not dense:
        monomials = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
    return "+".join(
        "*".join(["(%d)" % rng.randint(-height, height)]
                 + ["%s^%d" % (v, k) for v, k in zip(vars, e) if k])
        for e in monomials)


def _random_argv(rng):
    """One seeded ``tck`` invocation: sparse or dense forms, with small or
    up to 40-digit coefficients."""
    dense, height = rng.random() < 0.5, rng.choice([3, 10 ** 40])

    def form(vars, deg):
        return _random_text(rng, vars, deg, dense, height)

    def raw():
        return ["--a=" + form(U, 1), "--b=" + form(U, 1), "--c=" + form(U, 2),
                "--d=" + form(U, 1)]

    X, V, U = ("x0", "x1", "x2"), ("v0", "v1", "v2"), ("u1", "u2")
    torus_args = ["--g2=" + form(X, 2), "--g3=" + form(X, 3)]
    point = ",".join(str(rng.randint(-2, 2)) for _ in range(3))
    command = rng.choice(["flag", "torus", "raw", "total-branch", "branch",
                          "restrict-line", "cusp-check"])
    argv = {
        "flag": lambda: ["classify", "--flag-cubic=" + form(V, 3)],
        "torus": lambda: ["classify"] + torus_args,
        "raw": lambda: ["classify"] + raw(),
        "total-branch": lambda: ["total-branch"] + rng.choice(
            [["--cubic=" + form(V, 3)], torus_args]),
        "branch": lambda: ["branch"] + raw(),
        "restrict-line": lambda: ["restrict-line"] + raw() + [
            "--u1=%d*t+%d" % (rng.randint(0, 3), rng.randint(0, 3)), "--u2=t"],
        "cusp-check": lambda: ["cusp-check", "--branch=" + form(X, 6),
                               "--point=" + point],
    }[command]()
    return argv + ["--format", rng.choice(["text", "json"])]


def test_cli_contract_on_random_inputs(capsys):
    """Seeded random invocations of ``classify`` (flag, torus and raw),
    ``total-branch``, ``branch``, ``restrict-line`` and ``cusp-check``
    return one of the documented exit codes 0 to 4 and raise nothing."""
    rng = random.Random(2012)
    for _ in range(200):
        argv = _random_argv(rng)
        assert run(argv) in range(5), argv
        capsys.readouterr()
