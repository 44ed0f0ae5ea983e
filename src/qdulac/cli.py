"""Command-line front end for the expansion pipeline.

Commands: polygon, truncate, expand, verify, plot.  Equations are read
from UTF-8 files in the DSL (one equation, # comments).  Output formats:
text (default), json (schemas below), latex; expressions in text and
LaTeX are written by the two styles of `algebra.Notation`, TEXT and
LATEX, so both formats share one notation.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 structural-hypothesis or
irrationality violation, resource limit or out of memory.  Each class of
`QDulacError` carries its code as `exit_code` (see `errors`); `main`
returns it, maps OSError, ValueError and ZeroDivisionError to 2 and
MemoryError to 3.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction

from .algebra import (
    LATEX,
    TEXT,
    ParamPoly,
    TPoly,
    _param_terms,
    check_q,
    parse_rat,
    q_log,
    rat_str,
)
from .errors import InvalidQError, QDulacError
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

# -- JSON schemas (draft-07); rationals are reduced "p" or "p/m" strings.
# Every object is a closed record: `_record` requires each field it is
# given, except those named in `optional`, and admits no other.


def _record(optional=(), **fields) -> dict:
    return {
        "type": "object",
        "properties": fields,
        "required": [name for name in fields if name not in optional],
        "additionalProperties": False,
    }


def _array(items, kind="array", **bounds) -> dict:
    return {"type": kind, "items": items, **bounds}


def _int(least: int) -> dict:
    return {"type": "integer", "minimum": least}


_RAT = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_POINT = _array(_RAT, minItems=2, maxItems=2)
_POLY = _array(
    _record(coef=_RAT, monomial={"type": "object", "additionalProperties": _int(1)})
)
_FACE = _record(
    dim={"enum": [0, 1]},
    points=_array(_POINT, minItems=1),
    r=_RAT,
    optional=("r",),
)

POLYGON_SCHEMA = _record(
    support=_array(_POINT), hull=_array(_POINT), faces=_array(_FACE)
)

TRUNCATE_SCHEMA = _record(
    q=_RAT,
    faces=_array(
        _record(
            face=_FACE,
            truncated=_STR,
            variable={"enum": ["w", "c"]},
            poly=_array(_record(power=_int(0), coeff=_POLY), ["array", "null"]),
            roots=_array(_record(value=_RAT, multiplicity=_int(1))),
            candidates=_array(
                _record(
                    c=_POLY,
                    r=_RAT,
                    provenance={"enum": ["vertex-root", "edge-root", "user-supplied"]},
                )
            ),
            diagnostics=_array(_STR),
        )
    ),
)

EXPAND_SCHEMA = _record(
    q=_RAT,
    r=_RAT,
    c=_POLY,
    terms=_array(_record(k=_RAT, beta=_array(_record(t_power=_int(0), coeff=_POLY)))),
    constants=_array(_STR),
    critical=_array(_record(k=_RAT, mu=_int(1), compatible=_BOOL)),
    skipped_irrational=_array(_RAT),
    unresolved=_int(0),
    log_free=_BOOL,
)

VERIFY_SCHEMA = _record(
    k_max=_RAT,
    residual_min_exponent={"oneOf": [_RAT, {"type": "null"}]},
    **{"pass": _BOOL},  # a Python keyword
)


# -- serialization helpers


def _point_json(p) -> list:
    return [rat_str(Fraction(p[0])), rat_str(Fraction(p[1]))]


def _terms_json(terms) -> list:
    return [{"coef": TEXT.rational(p, m), "monomial": dict(mono)} for mono, p, m in terms]


def _json_int(value, least: int) -> int:
    """An integer of a document, refused unless it is an int >= least."""
    if type(value) is not int or value < least:
        raise ValueError(f"expected an integer >= {least}, got {value!r}")
    return value


def _poly_from_json(entries) -> ParamPoly:
    terms: dict = {}
    for entry in entries:
        mono = tuple(
            sorted((name, _json_int(exp, 1)) for name, exp in entry["monomial"].items())
        )
        if mono in terms:
            raise ValueError(f"repeated monomial {entry['monomial']!r}")
        if not (coef := parse_rat(entry["coef"])):
            raise ValueError(f"zero coefficient of {entry['monomial']!r}")
        terms[mono] = coef
    return ParamPoly(terms)


def _tpoly_json(beta: TPoly, power_key: str) -> list:
    return [{power_key: d, "coeff": _terms_json(terms)} for d, terms in beta.terms_by_degree()]


def _tpoly_from_json(entries) -> TPoly:
    """A beta from its {t_power, coeff} entries, at a cost per entry."""
    powers = [_json_int(e["t_power"], 0) for e in entries]
    if not powers or not all(e["coeff"] for e in entries):
        raise ValueError("empty coeff list" if powers else "empty beta")
    if any(a <= b for a, b in zip(powers, powers[1:])):
        raise ValueError(f"t_powers repeated or not descending: {powers}")
    return TPoly({d: _poly_from_json(e["coeff"]) for d, e in zip(powers, entries)})


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
        "c": _terms_json(_param_terms(c)),
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
    """Rebuild the series of an `expand` JSON document exactly.  What
    `expansion_json` never writes raises ValueError (README lists it) and is
    never repaired; a power of t or of a parameter of 2^31 or more raises
    ResourceLimitError."""
    return PowerLogSeries(
        parse_rat(doc["q"]),
        [(parse_rat(term["k"]), _tpoly_from_json(term["beta"])) for term in doc["terms"]],
        base_shift=(_poly_from_json(doc["c"]), parse_rat(doc["r"])),
    )


# -- shared input handling


def _split_params(text: str) -> list:
    """The --params list; argparse applies it to the default "" as well."""
    return [p.strip() for p in text.split(",") if p.strip()]


def _load_equation(args) -> QPolynomial:
    with open(args.eq, encoding="utf-8") as file:
        text = file.read()
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
    # "(q1,q2)" or two such points joined by "-", with or without spaces
    halves = re.split(r"(?<=\))\s*-\s*(?=\()", selector.strip(), maxsplit=1)
    points = [_parse_point_text(half) for half in halves]
    if len(points) == 2 and points[0] == points[1]:
        raise ValueError(f"bad edge {selector!r}; an edge needs two distinct endpoints")
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
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"bad assignment {chunk!r}; expected name=p/m")
        if name in out:
            raise ValueError(f"duplicate assigned name {name!r}")
        out[name] = parse_rat(value.strip())
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


def _log_var(args):
    """(display variable, j with q = base^j) of --log-base, or None for base
    q.  Checked before any algebra: the base must be a valid q in every
    format, and in text and LaTeX one that q is a rational power of."""
    if args.log_base is None:
        return None
    try:
        base = check_q(parse_rat(args.log_base))
    except (ValueError, InvalidQError):
        raise ValueError(f"--log-base {args.log_base!r}: not a positive rational != 1") from None
    if args.format == "json":
        return None
    q = check_q(parse_rat(args.q))
    j = q_log(base, q)
    if j is None:
        raise ValueError(f"q={rat_str(q)} is not a rational power of base {rat_str(base)}")
    return f"log_{{{rat_str(base)}}}(x)", j


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


# json.dumps's escapes in ASCII: these seven short ones, and \uXXXX (a
# surrogate pair above U+FFFF) for any other character outside space..~.
_SHORT_ESCAPES = {c: "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _escape_char(char: str) -> str:
    if char in _SHORT_ESCAPES or " " <= char <= "~":
        return _SHORT_ESCAPES.get(char, char)
    n = ord(char)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _quote(text: str) -> str:
    """text as a JSON string literal in ASCII, as json.dumps writes it; a
    key that is not a str fails `str.isascii` with TypeError."""
    if str.isascii(text) and text.isprintable():  # only " and \ to escape
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    else:
        text = "".join(map(_escape_char, text))
    return f'"{text}"'


def json_text(doc) -> str:
    """json.dumps(doc, indent=2), in one pass over a document of strs, ints,
    bools, None, str-keyed dicts and lists; anything else raises TypeError."""
    chunks: list = []
    put = chunks.append

    def write(value, newline: str, prefix: str) -> None:
        if isinstance(value, str):
            put(prefix + _quote(value))
        elif type(value) is dict:
            inner, sep = newline + "  ", prefix + "{" + newline + "  "
            for key, item in value.items():
                write(item, inner, sep + _quote(key) + ": ")
                sep = "," + inner
            put(newline + "}" if value else prefix + "{}")
        elif type(value) is list:
            inner, sep = newline + "  ", prefix + "[" + newline + "  "
            for item in value:
                write(item, inner, sep)
                sep = "," + inner
            put(newline + "]" if value else prefix + "[]")
        elif value is None or value is True or value is False:
            put(prefix + ("null" if value is None else "true" if value else "false"))
        else:  # int.__repr__, as str.isascii in _quote, refuses any other type
            put(prefix + int.__repr__(value))

    write(doc, "\n", "")
    return "".join(chunks)


def _print_json(doc) -> None:
    print(json_text(doc))


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
                "c": _terms_json(_param_terms(ts.c)),
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
    log_var = _log_var(args)
    _, k_max, result = _expand_pipeline(args)
    q = result.series.q
    if args.format == "json":
        _print_json(expansion_json(result))
        return EXIT_OK
    var, j = log_var or (f"log_{{{rat_str(q)}}}(x)", Fraction(1))
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
    with open(args.svg, "w", encoding="utf-8") as file:
        file.write(render_svg(polygon))
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and then reused:
    `parse_args` returns a fresh namespace each time."""
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
    # Integers of any length are legal input and output, so CPython's limit
    # on int <-> str conversion (3.10.7+) is lifted while a command runs.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except QDulacError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return QDulacError.exit_code
    except (OSError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if lift:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
