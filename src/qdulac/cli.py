"""Command-line front end for the expansion pipeline.

Commands: polygon, truncate, expand, verify, plot.  Equations are read
from UTF-8 files in the DSL (one equation, # comments).  Output formats:
text (default), json (schemas below), latex; expressions in text and
LaTeX are written by the two styles of `algebra.Notation`, TEXT and
LATEX, so both formats share one notation.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 structural-hypothesis or
irrationality violation.  Each `QDulacError` class carries its own code
as `exit_code` (see `errors`); `main` returns it, and maps OSError,
ValueError and ZeroDivisionError to 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import (
    LATEX,
    ParamPoly,
    TPoly,
    check_q,
    parse_rat,
    q_log,
    rat_str,
)
from .errors import QDulacError
from .expand import ExpansionResult, expand_solution, verify_residual
from .parser import parse_equation, parse_param_expr
from .polygon import (
    Face,
    NewtonPolygon,
    build_polygon,
    faces_for_x_to_zero,
    find_face,
    render_svg,
)
from .qexpr import PowerLogSeries, QPolynomial, format_qpolynomial, support
from .truncate import FaceAnalysis, analyze_face

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2

# -- JSON schemas (draft-07); rationals are reduced "p" or "p/m" strings

_RAT = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_POINT = {"type": "array", "items": _RAT, "minItems": 2, "maxItems": 2}
_POLY = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "coef": _RAT,
            "monomial": {
                "type": "object",
                "additionalProperties": {"type": "integer", "minimum": 1},
            },
        },
        "required": ["coef", "monomial"],
        "additionalProperties": False,
    },
}
_FACE = {
    "type": "object",
    "properties": {
        "dim": {"enum": [0, 1]},
        "points": {"type": "array", "items": _POINT, "minItems": 1},
        "r": _RAT,
    },
    "required": ["dim", "points"],
    "additionalProperties": False,
}

POLYGON_SCHEMA = {
    "type": "object",
    "properties": {
        "support": {"type": "array", "items": _POINT},
        "hull": {"type": "array", "items": _POINT},
        "faces": {"type": "array", "items": _FACE},
    },
    "required": ["support", "hull", "faces"],
    "additionalProperties": False,
}

TRUNCATE_SCHEMA = {
    "type": "object",
    "properties": {
        "q": _RAT,
        "faces": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "face": _FACE,
                    "truncated": {"type": "string"},
                    "variable": {"enum": ["w", "c"]},
                    "poly": {
                        "type": ["array", "null"],
                        "items": {
                            "type": "object",
                            "properties": {
                                "power": {"type": "integer", "minimum": 0},
                                "coeff": _POLY,
                            },
                            "required": ["power", "coeff"],
                            "additionalProperties": False,
                        },
                    },
                    "roots": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "value": _RAT,
                                "multiplicity": {"type": "integer", "minimum": 1},
                            },
                            "required": ["value", "multiplicity"],
                            "additionalProperties": False,
                        },
                    },
                    "candidates": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "c": _POLY,
                                "r": _RAT,
                                "provenance": {
                                    "enum": [
                                        "vertex-root",
                                        "edge-root",
                                        "user-supplied",
                                    ]
                                },
                            },
                            "required": ["c", "r", "provenance"],
                            "additionalProperties": False,
                        },
                    },
                    "diagnostics": {"type": "array", "items": {"type": "string"}},
                },
                "required": [
                    "face",
                    "truncated",
                    "variable",
                    "poly",
                    "roots",
                    "candidates",
                    "diagnostics",
                ],
                "additionalProperties": False,
            },
        },
    },
    "required": ["q", "faces"],
    "additionalProperties": False,
}

EXPAND_SCHEMA = {
    "type": "object",
    "properties": {
        "q": _RAT,
        "r": _RAT,
        "c": _POLY,
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "k": _RAT,
                    "beta": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {
                                "t_power": {"type": "integer", "minimum": 0},
                                "coeff": _POLY,
                            },
                            "required": ["t_power", "coeff"],
                            "additionalProperties": False,
                        },
                    },
                },
                "required": ["k", "beta"],
                "additionalProperties": False,
            },
        },
        "constants": {"type": "array", "items": {"type": "string"}},
        "critical": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "k": _RAT,
                    "mu": {"type": "integer", "minimum": 1},
                    "compatible": {"type": "boolean"},
                },
                "required": ["k", "mu", "compatible"],
                "additionalProperties": False,
            },
        },
        "skipped_irrational": {"type": "array", "items": _RAT},
        "unresolved": {"type": "integer", "minimum": 0},
        "log_free": {"type": "boolean"},
    },
    "required": [
        "q",
        "r",
        "c",
        "terms",
        "constants",
        "critical",
        "skipped_irrational",
        "unresolved",
        "log_free",
    ],
    "additionalProperties": False,
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {
        "k_max": _RAT,
        "residual_min_exponent": {
            "oneOf": [_RAT, {"type": "null"}],
        },
        "pass": {"type": "boolean"},
    },
    "required": ["k_max", "residual_min_exponent", "pass"],
    "additionalProperties": False,
}


# -- serialization helpers


def _point_json(p) -> list:
    return [rat_str(Fraction(p[0])), rat_str(Fraction(p[1]))]


def _poly_json(p: ParamPoly) -> list:
    return [
        {"coef": rat_str(coef), "monomial": dict(mono)}
        for mono, coef in p.sorted_terms()
    ]


def _json_int(value, least: int) -> int:
    """An integer of a document, refused unless it is an int >= least."""
    if type(value) is not int or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


def _poly_from_json(entries) -> ParamPoly:
    total = ParamPoly.zero()
    for entry in entries:
        term = ParamPoly.const(parse_rat(entry["coef"]))
        for name, exp in entry["monomial"].items():
            term = term * ParamPoly.symbol(name) ** _json_int(exp, 1)
        total = total + term
    return total


def _tpoly_json(beta: TPoly, power_key: str) -> list:
    return [
        {power_key: d, "coeff": _poly_json(beta.coeff(d))}
        for d in range(beta.degree(), -1, -1)
        if not beta.coeff(d).is_zero()
    ]


def _tpoly_from_json(entries) -> TPoly:
    powers = [_json_int(e["t_power"], 0) for e in entries]
    if len(set(powers)) != len(powers):
        raise ValueError(f"repeated t_power in {sorted(powers)}")
    coeffs = [ParamPoly.zero()] * (max(powers, default=-1) + 1)
    for d, entry in zip(powers, entries):
        coeffs[d] = _poly_from_json(entry["coeff"])
    return TPoly(coeffs)


def _face_json(face: Face) -> dict:
    doc = {
        "dim": face.dim,
        "points": [_point_json(p) for p in sorted(face.points)],
    }
    if face.dim == 1 and face.r is not None:
        doc["r"] = rat_str(face.r)
    return doc


def expansion_json(result: ExpansionResult) -> dict:
    c, r = result.series.base_shift
    return {
        "q": rat_str(result.series.q),
        "r": rat_str(r),
        "c": _poly_json(c),
        "terms": [
            {"k": rat_str(k), "beta": _tpoly_json(beta, "t_power")}
            for k, beta in result.series.terms
        ],
        "constants": [name for name, _ in result.constants_introduced],
        "critical": [
            {"k": rat_str(k), "mu": mu, "compatible": ok}
            for k, mu, ok in result.critical_report
        ],
        "skipped_irrational": [rat_str(s) for s in result.skipped_irrational],
        "unresolved": result.unresolved,
        "log_free": result.log_free,
    }


def series_from_json(doc: dict) -> PowerLogSeries:
    """Rebuild the series of an `expand` JSON document exactly; a malformed
    power (negative, repeated or not an integer) raises ValueError."""
    return PowerLogSeries(
        parse_rat(doc["q"]),
        [
            (parse_rat(term["k"]), _tpoly_from_json(term["beta"]))
            for term in doc["terms"]
        ],
        base_shift=(_poly_from_json(doc["c"]), parse_rat(doc["r"])),
    )


# -- shared input handling


def _split_params(text: str) -> list:
    """The --params list; argparse applies it to the default "" as well."""
    return [p.strip() for p in text.split(",") if p.strip()]


def _load_equation(args) -> QPolynomial:
    text = Path(args.eq).read_text(encoding="utf-8")
    return parse_equation(text, args.params)


def _parse_point_text(text: str):
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")) or t.count(",") != 1:
        raise ValueError(f"bad point {text!r}; expected (q1,q2)")
    a, b = t[1:-1].split(",")
    return (parse_rat(a.strip()), parse_rat(b.strip()))


def _select_faces(polygon: NewtonPolygon, selector: str) -> list[Face]:
    if selector == "auto":
        return faces_for_x_to_zero(polygon)
    text = selector.strip()
    if ")-(" in text:
        left, right = text.split(")-(", 1)
        points = (_parse_point_text(left + ")"), _parse_point_text("(" + right))
    else:
        points = (_parse_point_text(text),)
    face = find_face(polygon, points)
    if face is None:
        raise ValueError(f"no face with endpoints {selector!r}")
    return [face]


def _parse_assignment(text: str) -> dict:
    out: dict = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, value = chunk.partition("=")
        if not sep or not name.strip():
            raise ValueError(f"bad assignment {chunk!r}; expected name=p/m")
        out[name.strip()] = parse_rat(value.strip())
    return out


def _truncate_pipeline(args):
    """Equation, q, per-face analyses and the parsed (--c, --r)."""
    f = _load_equation(args)
    q = check_q(parse_rat(args.q))
    polygon = build_polygon(support(f))
    c_override = parse_param_expr(args.c, args.params) if args.c else None
    r_override = parse_rat(args.r) if args.r else None
    analyses = [
        analyze_face(f, face, q, c_override, r_override)
        for face in _select_faces(polygon, args.face)
    ]
    return f, q, analyses, (c_override, r_override)


def _pick_candidate(analyses, args, c_override, r_override):
    if args.face == "auto" and (args.c or args.r):
        raise ValueError("--c/--r need an explicit --face")
    candidates = [ts for an in analyses for ts in an.candidates]
    if c_override is not None:
        candidates = [ts for ts in candidates if ts.c == c_override]
    if r_override is not None:
        candidates = [ts for ts in candidates if ts.r == r_override]
    if not candidates:
        notes = "; ".join(d for an in analyses for d in an.diagnostics)
        raise ValueError(
            "no truncated-solution candidates"
            + (f" ({notes})" if notes else "")
            + "; run the truncate command for details"
        )
    if len(candidates) > 1:
        listing = ", ".join(
            f"[{ts.face.label()}] c={ts.c}, r={rat_str(ts.r)}"
            for ts in candidates
        )
        raise ValueError(
            f"{len(candidates)} candidates; pick one via --face/--c/--r: "
            + listing
        )
    return candidates[0]


def _log_var(args, q: Fraction):
    """Display variable and per-degree scale for the log base."""
    if args.log_base:
        base = check_q(parse_rat(args.log_base))
        j = q_log(base, q)
        if j is None or j == 0:
            raise ValueError(
                f"q={rat_str(q)} is not a rational power of base "
                f"{rat_str(base)}"
            )
        return f"log_{{{rat_str(base)}}}(x)", j
    return f"log_{{{rat_str(q)}}}(x)", Fraction(1)


def _rebase_series(series: PowerLogSeries, j: Fraction) -> PowerLogSeries:
    if j == 1:
        return series
    return PowerLogSeries(
        series.q,
        [
            (k, TPoly([c * j ** -d for d, c in enumerate(beta.coeffs)]))
            for k, beta in series.terms
        ],
        base_shift=series.base_shift,
    )


def _face_text(face: Face) -> str:
    if face.dim == 1:
        if face.r is None:
            return f"edge {face.label()}: does not face x -> 0"
        return f"edge {face.label()}: r = {rat_str(face.r)}"
    if face.r_range is None:
        return f"vertex {face.label()}: does not face x -> 0"
    lo, hi = face.r_range
    lo_s = "-inf" if lo is None else rat_str(lo)
    hi_s = "+inf" if hi is None else rat_str(hi)
    return f"vertex {face.label()}: r in ({lo_s}, {hi_s})"


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


# -- commands


def cmd_polygon(args) -> int:
    f = _load_equation(args)
    polygon = build_polygon(support(f))
    if args.format == "json":
        _print_json(
            {
                "support": [_point_json(p) for p in sorted(polygon.support)],
                "hull": [_point_json(p) for p in polygon.hull_vertices],
                "faces": [_face_json(face) for face in polygon.faces],
            }
        )
        return EXIT_OK
    if args.format == "latex":
        pts = ", ".join(
            f"({rat_str(p[0])}, {rat_str(p[1])})" for p in sorted(polygon.support)
        )
        hull = ", ".join(
            f"({rat_str(p[0])}, {rat_str(p[1])})" for p in polygon.hull_vertices
        )
        print(f"S(f) = \\{{ {pts} \\}}")
        print(f"\\Gamma(f) = \\mathrm{{conv}}\\{{ {hull} \\}}")
        for face in polygon.faces:
            print(f"% {_face_text(face)}")
        return EXIT_OK
    print(f"equation: {format_qpolynomial(f)}")
    print("support:")
    for p in sorted(polygon.support):
        print(f"  ({rat_str(p[0])}, {rat_str(p[1])})")
    print("hull vertices:")
    for p in polygon.hull_vertices:
        print(f"  ({rat_str(p[0])}, {rat_str(p[1])})")
    print("faces:")
    for face in polygon.faces:
        print(f"  {_face_text(face)}")
    return EXIT_OK


def _truncate_face_json(analysis: FaceAnalysis) -> dict:
    return {
        "face": _face_json(analysis.face),
        "truncated": format_qpolynomial(analysis.truncated),
        "variable": analysis.variable,
        "poly": None
        if analysis.poly is None
        else _tpoly_json(analysis.poly, "power"),
        "roots": [
            {"value": rat_str(value), "multiplicity": mult}
            for value, mult in analysis.roots
        ],
        "candidates": [
            {
                "c": _poly_json(ts.c),
                "r": rat_str(ts.r),
                "provenance": ts.provenance,
            }
            for ts in analysis.candidates
        ],
        "diagnostics": list(analysis.diagnostics),
    }


def cmd_truncate(args) -> int:
    _, q, analyses, _ = _truncate_pipeline(args)
    if args.format == "json":
        _print_json(
            {
                "q": rat_str(q),
                "faces": [_truncate_face_json(an) for an in analyses],
            }
        )
        return EXIT_OK
    for an in analyses:
        if args.format == "latex":
            print(f"% {_face_text(an.face)}")
            if an.poly is not None:
                kind = (
                    "\\chi(w)" if an.variable == "w" else "\\Delta(c)"
                )
                print(f"{kind} = {LATEX.tpoly(an.poly, an.variable)}")
            for ts in an.candidates:
                print(
                    f"y \\sim \\left({LATEX.param_poly(ts.c)}\\right) "
                    f"x^{{{rat_str(ts.r)}}}"
                )
            continue
        print(_face_text(an.face))
        print(f"  truncated sum: {format_qpolynomial(an.truncated)}")
        if an.poly is not None:
            kind = (
                "characteristic polynomial in w"
                if an.variable == "w"
                else "determining polynomial in c"
            )
            print(f"  {kind}: {an.poly.to_string(an.variable)}")
        if an.roots:
            roots = ", ".join(
                f"{an.variable}={rat_str(v)} (mult {m})" for v, m in an.roots
            )
            print(f"  rational roots: {roots}")
        if an.candidates:
            print("  candidates:")
            for ts in an.candidates:
                print(
                    f"    c = {ts.c}, r = {rat_str(ts.r)} ({ts.provenance})"
                )
        else:
            print("  no admissible roots")
        for note in an.diagnostics:
            print(f"  note: {note}")
    return EXIT_OK


def _expand_pipeline(args):
    f, q, analyses, overrides = _truncate_pipeline(args)
    ts = _pick_candidate(analyses, args, *overrides)
    k_max = parse_rat(args.kmax)
    result = expand_solution(f, ts, k_max)
    return f, k_max, result


def cmd_expand(args) -> int:
    _, k_max, result = _expand_pipeline(args)
    q = result.series.q
    if args.format == "json":
        _print_json(expansion_json(result))
        return EXIT_OK
    var, j = _log_var(args, q)
    display = _rebase_series(result.series, j)
    if args.format == "latex":
        latex_var = "\\" + var
        print(f"y = {LATEX.series(display, latex_var)} + \\cdots")
        return EXIT_OK
    c, r = result.series.base_shift
    print(f"q = {rat_str(q)}, base: c = {c}, r = {rat_str(r)}")
    ks = ", ".join(rat_str(k) for k in result.k_set)
    print(f"K within ({rat_str(r)}, {rat_str(k_max)}]: {ks if ks else 'empty'}")
    print(f"y = {display.to_string(var)}")
    if result.series.terms:
        print("terms:")
        for k, beta in display.terms:
            print(f"  k = {rat_str(k)}: beta = {beta.to_string(var)}")
    if result.constants_introduced:
        names = ", ".join(
            f"{name} (k={rat_str(k)})" for name, k in result.constants_introduced
        )
        print(f"constants: {names}")
    if result.critical_report:
        print("critical numbers:")
        for k, mu, ok in result.critical_report:
            print(
                f"  k = {rat_str(k)}: mu = {mu}, "
                f"compatible: {'yes' if ok else 'no'}"
            )
    if result.skipped_irrational:
        skipped = ", ".join(rat_str(s) for s in result.skipped_irrational)
        print(f"eigenvalue roots without rational log: {skipped}")
    if result.unresolved:
        print(f"unresolved eigenvalues (non-rational roots): {result.unresolved}")
    print(f"log-free: {'yes' if result.log_free else 'no'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    f, k_max, result = _expand_pipeline(args)
    assignment = _parse_assignment(args.assign)
    exponent = verify_residual(f, result, assignment, k_max)
    passed = exponent is None
    if args.format == "json":
        _print_json(
            {
                "k_max": rat_str(k_max),
                "residual_min_exponent": None if passed else rat_str(exponent),
                "pass": passed,
            }
        )
    elif passed:
        print(f"residual: zero through k_max = {rat_str(k_max)}")
    else:
        print(
            f"residual: nonzero at exponent {rat_str(exponent)} "
            f"(k_max = {rat_str(k_max)})"
        )
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_plot(args) -> int:
    f = _load_equation(args)
    polygon = build_polygon(support(f))
    Path(args.svg).write_text(render_svg(polygon), encoding="utf-8")
    print(f"wrote {args.svg}")
    return EXIT_OK


# -- argument parsing


def _add_equation(sub) -> None:
    sub.add_argument("--eq", required=True, help="equation file (DSL, UTF-8)")
    sub.add_argument(
        "--params",
        default="",
        type=_split_params,
        help="comma-separated parameter names",
    )


def _add_common(sub, *, q: bool, face: bool, kmax: bool) -> None:
    _add_equation(sub)
    if q:
        sub.add_argument("--q", required=True, help="the base q, as p/m")
    if face:
        sub.add_argument(
            "--face",
            default="auto",
            help='face selector: auto, "(q1,q2)" or "(q1,q2)-(q1\',q2\')"',
        )
        sub.add_argument("--c", default=None, help="leading coefficient expression")
        sub.add_argument("--r", default=None, help="leading exponent, as p/m")
    if kmax:
        sub.add_argument("--kmax", default="5", help="expansion cutoff (default 5)")
    sub.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdulac",
        description=(
            "Exact power-logarithmic expansions of q-difference equations "
            "near x = 0 via the Newton polygon."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("polygon", help="support, hull, and faces")
    _add_common(sub, q=False, face=False, kmax=False)
    sub.set_defaults(func=cmd_polygon)

    sub = commands.add_parser("truncate", help="truncated solutions per face")
    _add_common(sub, q=True, face=True, kmax=False)
    sub.set_defaults(func=cmd_truncate)

    sub = commands.add_parser("expand", help="power-logarithmic expansion")
    _add_common(sub, q=True, face=True, kmax=True)
    sub.add_argument(
        "--log-base",
        default=None,
        help="display logs in this base (text/latex only)",
    )
    sub.set_defaults(func=cmd_expand)

    sub = commands.add_parser("verify", help="residual check of an expansion")
    _add_common(sub, q=True, face=True, kmax=True)
    sub.add_argument(
        "--assign",
        required=True,
        help="rational values for parameters and constants: a3=1,C1=1",
    )
    sub.set_defaults(func=cmd_verify)

    sub = commands.add_parser("plot", help="render the Newton polygon as SVG")
    _add_equation(sub)
    sub.add_argument("--svg", required=True, help="output SVG path")
    sub.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QDulacError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except (OSError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
