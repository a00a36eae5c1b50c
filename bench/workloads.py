"""The three benchmark workloads: seeded inputs, the call under test, checks.

Every expected verdict follows from how the input is built (a smooth Hesse
cubic, a torus pair with a squarefree sextic, a classical singular cubic or a
factored torus pair), never from the code under test.  The library is reached
only through module attributes, so the tracer's wrappers see every call.
"""

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import exact

# The three rational base points of the Hesse pencil; they are flexes of
# every smooth member, and its only rational ones.
HESSE_FLEXES = ((1, -1, 0), (1, 0, -1), (0, 1, -1))

# A fixed line base + s * direction for the squarefree test of torus pairs.
LINE_BASE = (1, 2, -1)
LINE_DIRECTION = (3, -1, 2)

# Classical singular plane cubics in (v0, v1, v2).
_V0, _V1, _V2 = (exact.linear(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
_CONIC = exact.add(exact.mul(_V0, _V2), {(0, 2, 0): -1})
SINGULAR_CUBICS = {
    "nodal": {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1},
    "cuspidal": {(0, 2, 1): 1, (3, 0, 0): -1},
    "conic_line": exact.mul(_CONIC, exact.linear((1, 0, -1))),
    "conic_tangent": exact.mul(_CONIC, _V2),
    "triangle": {(1, 1, 1): 1},
    "concurrent_lines": exact.mul(exact.mul(_V0, _V1), exact.linear((1, 1, 0))),
    "double_line": {(2, 1, 0): 1},
}
NOT_NORMAL_KINDS = tuple(SINGULAR_CUBICS) + ("torus_factored",)

DEFINITE_CASES = ("FlagBundle", "CubicSurface", "NotNormal")

_SINGULAR_NOTE = re.compile(r"dual cubic is singular at \((.+) : (.+) : (.+)\)")


@dataclass
class Spec:
    """One generated input: what the library receives and what to expect."""

    payload: object   # CoverSpec, or argv list for the command line
    expected: dict    # the benchmark's own knowledge of the answer
    kind: str


def _invertible(rng, span):
    while True:
        m = [[rng.randint(-span, span) for _ in range(3)] for _ in range(3)]
        det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
               - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
               + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
        if det:
            return m


def _nonzero(rng, height):
    return rng.choice([c for c in range(-height, height + 1) if c])


def _transpose_apply(m, vector):
    return tuple(sum(m[i][j] * vector[i] for i in range(3)) for j in range(3))


def _mpoly(tc, vars, p):
    return tc.polyring.MPoly(vars, {e: Fraction(c) for e, c in p.items()})


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    why = ""
    spec_count = 0
    dimensions = ()

    def build(self, tc, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        return [self.make(tc, rng, i) for i in range(self.spec_count)]

    def make(self, tc, rng, index):
        raise NotImplementedError

    def call(self, tc, spec):
        """The timed call into the library."""
        return tc.classify.classify(spec.payload)

    def check(self, tc, spec, outcome):
        """List of problems with the outcome; empty when it is correct."""
        raise NotImplementedError

    def definite(self, outcome):
        """Did the library commit to a verdict (rather than decline)?"""
        return outcome.case in DEFINITE_CASES

    def summary(self, outcome):
        """Case, branch form, total-branch count and points of a report."""
        return (outcome.case, outcome.branch_form,
                outcome.total_branch.get("count"),
                tuple(sorted(outcome.total_branch.get("rational_points", ()))))


class FlagSmooth(Workload):
    name = "flag_smooth"
    why = ("smooth Hesse cubics under random transforms: the etamap cusp locus "
           "and the resultant/interpolate path do most work, torus none")
    spec_count = 22
    dimensions = ("coefficient height: transform entries within 1, 2 or 3, "
                  "in turn", "Hesse parameter k in -3..3, k != -1")

    def make(self, tc, rng, index):
        k = rng.choice([-3, -2, 0, 1, 2, 3])
        m = _invertible(rng, 1 + index % 3)
        hesse = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 3 * k}
        f = exact.substitute_linear(hesse, m)
        # H(M v) has flexes M^-1 p; their tangent lines M^T grad H(p) are
        # the rational cusps of the dual sextic.
        cusps = {
            exact.normalize_point(
                _transpose_apply(m, exact.gradient_at(hesse, p)))
            for p in HESSE_FLEXES
        }
        cubic = tc.etamap.TernaryCubic.from_poly(
            _mpoly(tc, tc.polyring.V_VARS, f))
        spec = tc.classify.CoverSpec.flag(cubic)
        return Spec(spec, {"cusps": cusps}, "hesse_k%d" % k)

    def check(self, tc, spec, report):
        problems = []
        if report.case != "FlagBundle":
            problems.append("case %s, expected FlagBundle" % report.case)
        if report.total_branch.get("count") != 9:
            problems.append("total branch count %r, expected 9"
                            % report.total_branch.get("count"))
        points = {exact.normalize_point(p)
                  for p in report.total_branch.get("rational_points", ())}
        if points != spec.expected["cusps"]:
            problems.append("rational cusps differ from the Hesse flexes")
        if report.certificates.get("lambda") != -27:
            problems.append("delta_f / D_f is not -27")
        branch = report.branch_form.terms if report.branch_form else {}
        if any(exact.evaluate(branch, p) for p in spec.expected["cusps"]):
            problems.append("branch form misses a cusp")
        if report.decomposition is None or not report.decomposition.T.is_constant():
            problems.append("branch form is not reduced")
        for cusp in report.certificates.get("cusps", ()):
            if not (cusp["a2_cusp"] and cusp["perfect_cube_fiber"]):
                problems.append("cusp certificate failed at %r" % (cusp["point"],))
        problems.extend(tc.classify.cross_validate(report))
        return problems


class TorusDense(Workload):
    name = "torus_dense"
    why = ("dense torus pairs with squarefree G2^3+G3^2: multivariate gcd in "
           "check_conditions and branch_decomposition, no cusp locus")
    spec_count = 40
    dimensions = ("coefficient height: entries within 2, 5 or 9, in turn",
                  "density: all 6 conic and 10 cubic monomials present")

    def make(self, tc, rng, index):
        height = (2, 5, 9)[index % 3]
        monomials = [(a, b, d - a - b) for d in (2, 3)
                     for a in range(d + 1) for b in range(d + 1 - a)]
        while True:
            g2, g3 = {}, {}
            for e in monomials:
                (g2 if sum(e) == 2 else g3)[e] = _nonzero(rng, height)
            delta = exact.add(exact.power(g2, 3), exact.power(g3, 2))
            # Squarefree on a line forces a squarefree sextic, which forces
            # every branch condition and six points on G2 = G3 = 0.
            if exact.is_squarefree_of_degree(
                    exact.on_line(delta, LINE_BASE, LINE_DIRECTION), 6):
                break
        X = tc.polyring.X_VARS
        pair = tc.torus.TorusPair(_mpoly(tc, X, g2), _mpoly(tc, X, g3))
        spec = tc.classify.CoverSpec.torus(pair)
        return Spec(spec, {"g2": g2, "g3": g3, "delta": delta},
                    "height%d" % height)

    def check(self, tc, spec, report):
        problems = []
        if report.case != "CubicSurface":
            problems.append("case %s, expected CubicSurface" % report.case)
        if report.total_branch.get("count") != 6:
            problems.append("total branch count %r, expected 6"
                            % report.total_branch.get("count"))
        branch = report.branch_form.terms if report.branch_form else {}
        if not exact.is_proportional(branch, spec.expected["delta"]):
            problems.append("branch form is not G2^3 + G3^2")
        if report.decomposition is None or not report.decomposition.T.is_constant():
            problems.append("branch form is not reduced")
        for p in report.total_branch.get("rational_points", ()):
            if exact.evaluate(spec.expected["g2"], p) or \
                    exact.evaluate(spec.expected["g3"], p):
                problems.append("reported point %r is off G2 = G3 = 0" % (p,))
        problems.extend(tc.classify.cross_validate(report))
        return problems


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


class NotNormalCli(Workload):
    name = "notnormal_cli"
    why = ("classical singular cubics and factored torus pairs as text through "
           "cli.run: parse, rejection path and emit on small sparse inputs")
    spec_count = 288
    dimensions = ("singularity type: " + ", ".join(NOT_NORMAL_KINDS) + ", in turn",
                  "coefficient height: transform entries within 1 or 2")

    def make(self, tc, rng, index):
        kind = NOT_NORMAL_KINDS[index % len(NOT_NORMAL_KINDS)]
        if kind == "torus_factored":
            while True:
                e, l1, l2 = (exact.linear([rng.randint(-3, 3) for _ in range(3)])
                             for _ in range(3))
                g2 = exact.mul(e, l1)
                g3 = exact.mul(exact.mul(e, e), l2)
                if g2 and g3 and exact.add(exact.power(g2, 3), exact.power(g3, 2)):
                    break
            X = ("x0", "x1", "x2")
            argv = ["classify", "--g2=" + exact.to_text(g2, X),
                    "--g3=" + exact.to_text(g3, X), "--format", "json"]
            return Spec(argv, {}, kind)
        f = exact.substitute_linear(SINGULAR_CUBICS[kind],
                                    _invertible(rng, 1 + index % 2))
        argv = ["classify", "--flag-cubic=" + exact.to_text(f, ("v0", "v1", "v2")),
                "--format", "json"]
        return Spec(argv, {"cubic": f}, kind)

    def call(self, tc, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tc.cli.run(spec.payload)
        return CliOutcome(code, out.getvalue(), err.getvalue())

    def check(self, tc, spec, outcome):
        problems = []
        if outcome.code != 1:
            problems.append("exit code %d, expected 1" % outcome.code)
        if outcome.stderr:
            problems.append("stderr: %s" % outcome.stderr.strip())
        try:
            payload = json.loads(outcome.stdout)
        except ValueError:
            return problems + ["stdout is not one JSON report"]
        if payload.get("case") != "NotNormal":
            problems.append("case %s, expected NotNormal" % payload.get("case"))
        problems.extend(payload.get("violations") or ())
        if spec.kind == "torus_factored":
            c2 = (payload.get("conditions") or {}).get("c2") or {}
            if c2.get("holds") is not False:
                problems.append("condition (2) should fail for E | G2, E^2 | G3")
        for note in payload.get("notes") or ():
            match = _SINGULAR_NOTE.search(note)
            if match:
                point = tuple(Fraction(g) for g in match.groups())
                if any(exact.gradient_at(spec.expected["cubic"], point)):
                    problems.append("reported singular point %r is not singular"
                                    % (point,))
        return problems

    def definite(self, outcome):
        return outcome.code in (0, 1)

    def summary(self, outcome):
        return (outcome.code, outcome.stdout)


WORKLOADS = {w.name: w for w in (FlagSmooth(), TorusDense(), NotNormalCli())}
