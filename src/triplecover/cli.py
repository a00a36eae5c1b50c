"""Command line front end (the ``tck`` tool).

Forms in (x0, x1, x2) and (v0, v1, v2) and the points of their loci are
projective, and so is every verdict; only the raw data (a, b, c, d) and
its probe point live in the chart x0 != 0.

Exit codes: 0 success / positive verdict, 1 negative verdict, 2 usage
error, 3 parse error, 4 mathematical degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cover as cover_mod
from . import etamap, torus
from .classify import (
    CASE_CUBIC_SURFACE,
    CASE_FLAG_BUNDLE,
    CASE_NOT_NORMAL,
    ClassificationReport,
    CoverSpec,
    a2_cusp_check,
    classify,
    cross_validate,
)
from .cover import AffineCoverData
from .errors import (
    CommonComponent,
    DegenerateCover,
    DegenerateCubic,
    DegenerateTorus,
    IndeterminateCount,
    MultiplicityTooHigh,
    NotSmooth,
    TripleCoverError,
)
from .polyparse import ParseError, parse_poly, print_poly
from .polyring import MPoly, T_VARS, U_VARS, V_VARS, X_VARS, squarefree_part

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DEGENERATE = 4

_DEGENERACIES = (
    DegenerateCover,
    DegenerateCubic,
    DegenerateTorus,
    NotSmooth,
    IndeterminateCount,
    MultiplicityTooHigh,
    CommonComponent,
)


class _UsageError(TripleCoverError):
    pass


def _read_literal(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r") as fh:
                return fh.read().strip()
        except OSError as exc:
            raise _UsageError("cannot read %s: %s" % (text[1:], exc))
    return text


def _parse(text: str, vars) -> MPoly:
    return parse_poly(_read_literal(text), vars)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(0, "a rational number", repr(text))


def _parse_point(text: str, size: int):
    parts = _read_literal(text).split(",")
    if len(parts) != size:
        raise _UsageError("expected %d comma-separated coordinates" % size)
    point = tuple(_parse_fraction(p) for p in parts)
    if size == 3 and not any(point):
        raise _UsageError("zero vector is not a projective point")
    return point


def _load_cubic(text: str) -> etamap.TernaryCubic:
    return etamap.TernaryCubic.from_poly(_parse(text, V_VARS))


def _load_cover(args) -> AffineCoverData:
    return AffineCoverData(
        _parse(args.a, U_VARS),
        _parse(args.b, U_VARS),
        _parse(args.c, U_VARS),
        _parse(args.d, U_VARS),
    )


def _load_pair(args) -> torus.TorusPair:
    return torus.TorusPair(_parse(args.g2, X_VARS), _parse(args.g3, X_VARS))


def _point_str(point):
    return [str(c) for c in point]


def _frac_str(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Report rendering
#
# The field renderers fill their payload keys and return their text lines,
# so that the JSON and the text form of a field come from one place.


def _base_payload():
    return {
        "case": None,
        "branch": None,
        "S": None,
        "T": None,
        "lambda": None,
        "conditions": None,
        "total_branch": {"count": 0, "rational_points": []},
        "violations": [],
        "notes": [],
    }


def _emit(payload, args, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _poly_fields(payload, keys, polys, labels=None):
    """The lines 'label = poly', with each printed poly under its key."""
    lines = []
    for key, poly, label in zip(keys, polys, labels or keys):
        payload[key] = print_poly(poly)
        lines.append("%s = %s" % (label, payload[key]))
    return lines


def _conditions(payload, report: torus.ConditionReport):
    """The lines 'condition cK: holds|fails', and payload["conditions"]."""
    rendered, lines = {}, []
    for key, verdict in (("c1", report.condition1), ("c2", report.condition2),
                         ("c3", report.condition3)):
        rendered[key] = None
        if verdict is None:
            continue
        out = rendered[key] = {"holds": verdict.holds}
        line = "condition %s: %s" % (key, "holds" if verdict.holds else "fails")
        if verdict.witness is not None:
            out["witness"] = print_poly(verdict.witness)
            line += " (witness: %s)" % out["witness"]
        if verdict.scale is not None:
            out["scale"] = _frac_str(verdict.scale)
        lines.append(line)
    payload["conditions"] = rendered
    return lines


def _total_branch(payload, header, count, points, multiplicities=None):
    """The count line and one line per rational point, and
    payload["total_branch"]; a point's multiplicity is shown when given."""
    payload["total_branch"] = {
        "count": count,
        "rational_points": [_point_str(p) for p in points],
    }
    lines = [header % count]
    for p in points:
        line = "  rational point: (%s : %s : %s)" % tuple(_point_str(p))
        if multiplicities is not None:
            line += " multiplicity %d" % multiplicities[p]
        lines.append(line)
    return lines


def emit_report(report: ClassificationReport, format: str = "text") -> str:
    """Render a classification report; stable output for fixed inputs."""
    payload = _base_payload()
    payload["case"] = report.case
    if report.branch_form is not None:
        payload["branch"] = print_poly(report.branch_form)
    if report.decomposition is not None:
        payload["S"] = print_poly(report.decomposition.S)
        payload["T"] = print_poly(report.decomposition.T)
    if "lambda" in report.certificates:
        payload["lambda"] = _frac_str(report.certificates["lambda"])
    surface = report.certificates.get("surface")
    if surface is not None:
        payload["surface"] = print_poly(surface.form)
    conditions = report.certificates.get("conditions")
    condition_lines = [] if conditions is None else _conditions(payload, conditions)
    branch_lines = []
    if report.total_branch:
        branch_lines = _total_branch(
            payload, "total branch count: %d", report.total_branch["count"],
            report.total_branch["rational_points"],
        )
    cusps = report.certificates.get("cusps")
    if cusps is not None:
        described = [
            {
                "rational": True,
                "point": _point_str(v["point"]),
                "a2_cusp": v["a2_cusp"],
                "perfect_cube_fiber": v["perfect_cube_fiber"],
            }
            for v in cusps
        ]
        missing = report.total_branch.get("count", 0) - len(described)
        described.extend({"rational": False} for _ in range(max(missing, 0)))
        payload["cusps"] = described
    payload["violations"] = cross_validate(report)
    payload["notes"] = list(report.notes)

    if format == "json":
        return json.dumps(payload, indent=2, sort_keys=True)

    lines = ["case: %s" % report.case]
    for key in ("branch", "S", "T", "lambda", "surface"):
        if payload.get(key) is not None:
            lines.append("%s: %s" % (key, payload[key]))
    lines += condition_lines + branch_lines
    for v in payload.get("cusps", ()):
        if v["rational"]:
            lines.append(
                "  cusp (%s : %s : %s): a2=%s cube_fiber=%s"
                % (tuple(v["point"]) + (v["a2_cusp"], v["perfect_cube_fiber"]))
            )
    for v in payload["violations"]:
        lines.append("violation: %s" % v)
    for n in payload["notes"]:
        lines.append("note: %s" % n)
    if not payload["violations"]:
        lines.append("OK")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_eta(args):
    cov = etamap.eta(_load_cubic(args.cubic))
    payload = _base_payload()
    lines = _poly_fields(payload, "abcd", (cov.a, cov.b, cov.c, cov.d))
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_branch(args):
    inv = cover_mod.derived_invariants(_load_cover(args))
    decomposition = cover_mod.branch_decomposition(inv.D)
    payload = _base_payload()
    lines = _poly_fields(
        payload, ("A", "B", "C", "D", "branch", "S", "T"),
        (inv.A, inv.B, inv.C, inv.D,
         decomposition.degree6_form, decomposition.S, decomposition.T),
    )
    _emit(payload, args, lines)
    return EXIT_OK


def _cmd_delta(args, normalize=False):
    delta = etamap.delta_f(_load_cubic(args.cubic))
    if normalize:
        if delta.is_zero():
            raise DegenerateCover("delta vanishes identically")
        delta = squarefree_part(delta)
    payload = _base_payload()
    payload["branch"] = print_poly(delta)
    _emit(payload, args, [payload["branch"]])
    return EXIT_OK


def _cmd_verify_discrim(args):
    cert = etamap.verify_discrim_lemma(_load_cubic(args.cubic))
    payload = _base_payload()
    payload["lambda"] = _frac_str(cert.lam)
    payload["branch"] = print_poly(cert.D_f)
    _emit(payload, args, [
        "lambda = %s" % payload["lambda"],
        "delta_f = lambda * D_f verified exactly",
        "D_f = %s" % payload["branch"],
    ])
    return EXIT_OK


def _cmd_torus_check(args):
    pair = _load_pair(args)
    delta = None if args.delta is None else _parse(args.delta, X_VARS)
    report = torus.check_conditions(pair, delta)
    payload = _base_payload()
    payload["branch"] = print_poly(report.delta)
    lines = _conditions(payload, report)
    lines.append("all conditions hold" if report.all_hold()
                 else "some condition fails")
    _emit(payload, args, lines)
    return EXIT_OK if report.all_hold() else EXIT_NEGATIVE


def _cmd_classify(args):
    given = [args.flag_cubic is not None, args.g2 is not None or args.g3 is not None,
             args.a is not None]
    if sum(given) != 1:
        raise _UsageError(
            "classify needs exactly one of --flag-cubic, --g2/--g3 or --a/--b/--c/--d"
        )
    if args.flag_cubic is not None:
        spec = CoverSpec.flag(_load_cubic(args.flag_cubic))
    elif args.g2 is not None or args.g3 is not None:
        if args.g2 is None or args.g3 is None:
            raise _UsageError("classify needs both --g2 and --g3")
        spec = CoverSpec.torus(_load_pair(args))
    else:
        if None in (args.b, args.c, args.d):
            raise _UsageError("classify needs all of --a, --b, --c, --d")
        spec = CoverSpec.raw_data(_load_cover(args))
    report = classify(spec)
    print(emit_report(report, args.format))
    if report.case in (CASE_FLAG_BUNDLE, CASE_CUBIC_SURFACE):
        return EXIT_OK
    if report.case == CASE_NOT_NORMAL:
        return EXIT_NEGATIVE
    return EXIT_DEGENERATE


def _cmd_restrict_line(args):
    cov = _load_cover(args)
    line = (
        _parse(args.u1, T_VARS),
        _parse(args.u2, T_VARS),
    )
    lr = cover_mod.restrict_to_line(cov, line)
    verdict = cover_mod.is_line_cover_connected(lr)
    payload = _base_payload()
    lines = _poly_fields(payload, ("aL", "bL", "cL", "dL"),
                         (lr.aL, lr.bL, lr.cL, lr.dL),
                         ("a|L", "b|L", "c|L", "d|L"))
    payload["connectivity"] = verdict.status
    lines.append("connectivity: %s" % verdict.status)
    if verdict.witness_root is not None:
        payload["witness_root"] = print_poly(verdict.witness_root)
        lines.append("witness root: %s" % payload["witness_root"])
    _emit(payload, args, lines)
    if verdict.status == "connected":
        return EXIT_OK
    if verdict.status == "disconnected":
        return EXIT_NEGATIVE
    return EXIT_DEGENERATE


def _cmd_total_branch(args):
    payload = _base_payload()
    if args.cubic is not None:
        locus = etamap.total_branch_locus(_load_cubic(args.cubic))
        lines = _total_branch(payload, "total branch count: %d",
                              locus.count, locus.rational_points)
        _emit(payload, args, lines)
        return EXIT_OK
    if args.g2 is not None and args.g3 is not None:
        locus = torus.total_branch_points(_load_pair(args))
        mults = dict(locus.rational_points)
        lines = _total_branch(payload, "count with multiplicity: %d",
                              locus.count_with_multiplicity, list(mults), mults)
        _emit(payload, args, lines)
        return EXIT_OK
    if args.a is not None and args.point is not None:
        if None in (args.b, args.c, args.d):
            raise _UsageError("point probe needs all of --a, --b, --c, --d")
        cov = _load_cover(args)
        point = _parse_point(args.point, 2)
        verdict = cover_mod.is_total_branch_point(cov, point)
        payload["total_branch"] = {
            "count": 1 if verdict.status == "total" else 0,
            "rational_points": [],
        }
        payload["status"] = verdict.status
        _emit(payload, args, ["point status: %s" % verdict.status])
        if verdict.status == "total":
            return EXIT_OK
        if verdict.status == "not_total":
            return EXIT_NEGATIVE
        return EXIT_DEGENERATE
    raise _UsageError(
        "total-branch needs --cubic, or --g2/--g3, or --a/--b/--c/--d with --point"
    )


def _cmd_cusp_check(args):
    form = _parse(args.branch, X_VARS)
    verdict = a2_cusp_check(form, _parse_point(args.point, 3))
    payload = _base_payload()
    payload.update(
        on_curve=verdict["on_curve"],
        singular=verdict["singular"],
        is_cusp=verdict["is_cusp"],
    )
    lines = [
        "on curve: %s" % verdict["on_curve"],
        "singular: %s" % verdict["singular"],
        "ordinary cusp: %s" % verdict["is_cusp"],
    ]
    _emit(payload, args, lines)
    return EXIT_OK if verdict["is_cusp"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tck", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def cover_args(p, required=True):
        for name in ("a", "b", "c", "d"):
            p.add_argument("--" + name, required=required)

    p = sub.add_parser("eta", help="cover data of a ternary cubic")
    p.add_argument("--cubic", required=True)
    common(p)

    p = sub.add_parser("branch", help="invariants and branch decomposition")
    cover_args(p)
    common(p)

    p = sub.add_parser("delta", help="fiber-cubic discriminant of a cubic")
    p.add_argument("--cubic", required=True)
    common(p)

    p = sub.add_parser("dual", help="squarefree dual sextic equation")
    p.add_argument("--cubic", required=True)
    common(p)

    p = sub.add_parser("verify-discrim", help="certify delta_f = lambda * D_f")
    p.add_argument("--cubic", required=True)
    common(p)

    p = sub.add_parser("torus-check", help="branch conditions of a torus pair")
    p.add_argument("--g2", required=True)
    p.add_argument("--g3", required=True)
    p.add_argument("--delta")
    common(p)

    p = sub.add_parser("classify", help="classify a cover specification")
    p.add_argument("--flag-cubic")
    p.add_argument("--g2")
    p.add_argument("--g3")
    cover_args(p, required=False)
    common(p)

    p = sub.add_parser("restrict-line", help="restrict a cover to a line")
    cover_args(p)
    p.add_argument("--u1", required=True, help="u1(t) of the parametrization")
    p.add_argument("--u2", required=True, help="u2(t) of the parametrization")
    common(p)

    p = sub.add_parser("total-branch", help="total branch points of a cover")
    p.add_argument("--cubic")
    p.add_argument("--g2")
    p.add_argument("--g3")
    cover_args(p, required=False)
    p.add_argument("--point", help="chart point 'u1,u2' for a raw-data probe")
    common(p)

    p = sub.add_parser("cusp-check", help="A2 jet test at a projective point")
    p.add_argument("--branch", required=True, help="ternary form in x0,x1,x2, any degree")
    p.add_argument("--point", required=True, help="projective point 'x0,x1,x2'")
    common(p)

    return parser


# Built on first use and reused: parse_args keeps no state between calls.
_parser = functools.cache(build_parser)


_DISPATCH = {
    "eta": _cmd_eta,
    "branch": _cmd_branch,
    "delta": _cmd_delta,
    "dual": lambda args: _cmd_delta(args, normalize=True),
    "verify-discrim": _cmd_verify_discrim,
    "torus-check": _cmd_torus_check,
    "classify": _cmd_classify,
    "restrict-line": _cmd_restrict_line,
    "total-branch": _cmd_total_branch,
    "cusp-check": _cmd_cusp_check,
}


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except _DEGENERACIES as exc:
        print("degenerate input: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except TripleCoverError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
