"""Tests for the tck command line tool."""

import json
import re
from fractions import Fraction

from triplecover.cli import run
from triplecover.polyparse import parse_poly
from triplecover.polyring import V_VARS

FERMAT = "v0^3+v1^3+v2^3"
DOUBLE_LINE = "v0^2*v1+v0^2*v2"
SINGULAR_NOTE = re.compile(r"singular at \((.+) : (.+) : (.+)\)")
FERMAT_BRANCH = "(x0^3-x1^3-x2^3)^2-4*x1^3*x2^3"


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
    code, out, _ = invoke(capsys, "cusp-check", "--branch", FERMAT_BRANCH,
                          "--point", "1,1,0")
    assert code == 0
    assert "ordinary cusp: True" in out


def test_cusp_check_negative(capsys):
    code, _, _ = invoke(capsys, "cusp-check", "--branch", FERMAT_BRANCH,
                        "--point", "1,2,0")
    assert code == 1


def test_chart_rotation(capsys):
    # (0 : 1 : 1) is reachable on the x1 chart as the point (0, 1).
    code, out, _ = invoke(capsys, "cusp-check", "--branch", FERMAT_BRANCH,
                          "--chart", "x1", "--point", "1,0,1")
    assert code == 0


def test_parse_error_exit_code(capsys):
    code, _, err = invoke(capsys, "delta", "--cubic", "v0^")
    assert code == 3
    assert "parse error" in err


def test_usage_error_exit_code(capsys):
    code, _, err = invoke(capsys, "no-such-command")
    assert code == 2


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


def test_verdict_independent_of_chart(capsys):
    inputs = (
        ("--flag-cubic", "v0^3+2*v1^3+3*v2^3+v0*v1*v2"),
        ("--flag-cubic", "v1^3+v2^3+v0*v1*v2"),
        ("--g2", "x0*x1", "--g3", "x2^3-x0^3"),
    )
    for argv in inputs:
        verdicts = set()
        for chart in ("x0", "x1", "x2"):
            _, out, _ = invoke(capsys, "classify", *argv, "--chart", chart,
                               "--format", "json")
            payload = json.loads(out)
            verdicts.add((payload["case"], payload["total_branch"]["count"]))
        assert len(verdicts) == 1, (argv, verdicts)


def test_json_output_deterministic(capsys):
    _, out1, _ = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                        "--format", "json")
    _, out2, _ = invoke(capsys, "classify", "--flag-cubic", FERMAT,
                        "--format", "json")
    assert out1 == out2
