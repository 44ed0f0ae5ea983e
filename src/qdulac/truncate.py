"""Truncated equations on polygon faces and their solutions y = c*x^r.

A face of the Newton polygon selects the sub-sum of the equation whose
exponent points lie on that face.  Substituting y = c*x^r into the
sub-sum factors it:

  vertex (q1, q2):  chi(w) * c^q2 * x^(q1 + r*q2)     with w = q^r,
  edge with slope r: (det poly in c)  * x^(common power),

so a vertex contributes solutions through the rational roots w of chi
(then r = log_q w, filtered by the normal cone, with c free), and an edge
fixes r and determines c through the roots of its determining polynomial.
One collector sums the sub-sum's terms by shift weight, y-degree or
x-power, so a face polynomial holds only its nonzero terms, of degree
below 2^31 in w or c.
`analyze_face` treats both kinds of face alike: it turns the roots into
one ordered list of proposals (c, r, provenance), appends the user's
value last, and keeps each proposal that solves the truncated sum as a
`TruncatedSolution`, which keeps the q it was verified at.  Both records
are named tuples; a `TruncatedSolution` is copied only through its checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import NamedTuple

from .algebra import (
    _EXP_LIMIT,
    ParamPoly,
    TPoly,
    _as_rat,
    check_q,
    fresh_names,
    q_log,
    q_pow,
    rat_str,
    rational_roots,
)
from .errors import (
    EmptySupportError,
    InconsistentEdgeError,
    IrrationalQPowerError,
    NotAVertexError,
    ResourceLimitError,
    TruncatedSolutionError,
)
from .polygon import Face
from .qexpr import QPolynomial


class _TruncatedSolution(NamedTuple):
    c: ParamPoly
    r: Fraction
    q: Fraction
    face: Face
    provenance: str  # "vertex-root" | "edge-root" | "user-supplied"


class TruncatedSolution(_TruncatedSolution):
    """A verified leading-order solution y = c * x^r on a face, at base q.

    Built, copied by `_replace` and remade by `_make` through one check:
    c an exact nonzero value, r exact and q a valid base."""

    __slots__ = ()

    def __new__(cls, c: ParamPoly | int | Fraction, r, q, face: Face, provenance: str):
        if (c := ParamPoly.coerce(c)).is_zero():
            raise TruncatedSolutionError("leading coefficient c must be nonzero")
        return super().__new__(cls, c, _as_rat(r), check_q(q), face, provenance)

    @classmethod
    def _make(cls, values) -> TruncatedSolution:
        return cls(*values)


def truncated_sum(f: QPolynomial, face: Face) -> QPolynomial:
    """Terms of f whose exponent point lies in the face's boundary subset."""
    wanted = set(face.points)
    return QPolynomial._trusted({(t.x_exp, t.sigma_powers): t.coeff
                                 for t in f.terms if t.q_point in wanted})


def _collect(terms, key, value) -> dict:
    """{key(t): sum of value(t)} over the terms, zero sums dropped."""
    out: dict = {}
    for t in terms:
        k = key(t)
        out[k] = out[k] + value(t) if k in out else value(t)
    return {k: v for k, v in out.items() if not v.is_zero()}


def _face_poly(coeffs: dict, var: str) -> TPoly:
    """The TPoly in `var` of collected {degree: coefficient} terms."""
    if max(coeffs, default=0) >= _EXP_LIMIT:
        raise ResourceLimitError(f"exponent of {var} reaches 2^31")
    return TPoly(coeffs)


def _substitute(g: QPolynomial, ts: TruncatedSolution) -> dict:
    """The nonzero terms of g(x, c*x^r) by power of x; needs q^{r*weight} in Q."""
    c, r, q = ts.c, ts.r, ts.q
    return _collect(g.terms, lambda t: t.x_exp + r * t.y_degree,
                    lambda t: t.coeff * c**t.y_degree * q_pow(q, r * t.shift_weight))


def verify_truncated(ts: TruncatedSolution, f: QPolynomial) -> bool:
    """True iff the face's truncated sum vanishes identically at y = c*x^r."""
    return not _substitute(truncated_sum(f, ts.face), ts)


def vertex_char_poly(g: QPolynomial) -> TPoly:
    """Characteristic polynomial chi(w) of a single-vertex truncation.

    Substituting y = c*x^r sends each term to coeff * w^weight modulo the
    common factor c^q2 * x^(q1 + r*q2), so chi collects coefficients by
    shift weight.  chi does not depend on q; only the back-conversion
    r = log_q w does.
    """
    terms = g.terms
    if not terms:
        raise EmptySupportError("empty truncation has no characteristic polynomial")
    points = {t.q_point for t in terms}
    if len(points) != 1:
        raise NotAVertexError(
            f"terms span {len(points)} exponent points; a vertex has one"
        )
    return _face_poly(_collect(terms, lambda t: t.shift_weight, lambda t: t.coeff), "w")


def determining_poly(g: QPolynomial, r, q) -> TPoly:
    """Determining polynomial in c of an edge truncation at its slope r."""
    terms = g.terms
    if not terms:
        raise EmptySupportError("empty truncation has no determining polynomial")
    r, q = _as_rat(r), check_q(q)
    powers = {t.x_exp + r * t.y_degree for t in terms}
    if len(powers) != 1:
        raise InconsistentEdgeError(
            f"substitution leaves {len(powers)} distinct x-powers; "
            f"r={rat_str(r)} is not this edge's slope"
        )
    by_degree = _collect(terms, lambda t: t.y_degree,
                         lambda t: t.coeff * q_pow(q, r * t.shift_weight))
    return _face_poly(by_degree, "c")


class FaceAnalysis(NamedTuple):
    """Everything the pipeline learns from one face."""

    face: Face
    truncated: QPolynomial
    poly: TPoly | None
    roots: tuple  # ((value, multiplicity), ...) rational roots of poly
    candidates: tuple  # TruncatedSolution, ...
    diagnostics: tuple  # str, ...

    @property
    def variable(self) -> str:
        """The variable of `poly`: w (= q^r) for a vertex, c for an edge."""
        return "w" if self.face.dim == 0 else "c"


def analyze_face(
    f: QPolynomial,
    face: Face,
    q,
    c_override: ParamPoly | None = None,
    r_override=None,
) -> FaceAnalysis:
    """Truncated sum, its vertex/edge polynomial, roots, and candidates.

    `c_override` and `r_override` inject user-supplied values where root
    finding cannot decide (parameter coefficients, free vertex c); every
    candidate, supplied or found, is verified before it is returned.
    """
    q = check_q(q)
    if c_override is not None:
        c_override = ParamPoly.coerce(c_override)
        if c_override.is_zero():
            raise TruncatedSolutionError("leading coefficient c must be nonzero")
    if r_override is not None:
        r_override = _as_rat(r_override)
    g = truncated_sum(f, face)
    vertex = face.dim == 0
    diagnostics: list[str] = []
    if vertex:
        poly = vertex_char_poly(g)
    else:
        if face.r is None:
            return FaceAnalysis(face, g, None, (), (),
                                ("edge does not face x -> 0; no admissible r",))
        if r_override is not None and r_override != face.r:
            diagnostics.append(
                f"--r {rat_str(r_override)} ignored: this edge fixes "
                f"r={rat_str(face.r)}"
            )
        try:
            poly = determining_poly(g, face.r, q)
        except IrrationalQPowerError as err:
            return FaceAnalysis(face, g, None, (), (), (str(err),))

    # Proposals (c, r, provenance): roots first, the user's value last.
    user = "user-supplied"
    free_c = c_override
    if free_c is None and (vertex or poly.is_zero()):
        taken = (name for t in f.terms for name in t.coeff.symbols())
        free_c = ParamPoly.symbol(next(fresh_names(taken, (f"c{i or ''}" for i in count()))))
    free_provenance = user if c_override is not None else (
        "vertex-root" if vertex else "edge-root"
    )
    proposals: list[tuple[ParamPoly, Fraction, str]] = []
    roots: tuple = ()
    terms = poly.rational_terms()
    if terms is None:
        diagnostics.append(
            "characteristic polynomial has parameter coefficients; "
            "supply --r (and --c) to choose a solution"
            if vertex else "parameter-dependent determining equation; needs --c"
        )
    elif not terms:
        diagnostics.append(
            "truncated sum vanishes for every c and r (zero characteristic "
            "polynomial)" if vertex else
            "truncated sum vanishes for every c (zero determining polynomial)"
        )
        if not vertex:
            proposals.append((free_c, face.r, free_provenance))
    else:
        roots = tuple(rational_roots(terms))
        for value, _mult in roots:
            if value == 0:
                diagnostics.append(
                    "root w=0 excluded (q^r is never 0)" if vertex
                    else "root c=0 discarded (c must be nonzero)"
                )
            elif not vertex:
                proposals.append((ParamPoly.const(value), face.r, "edge-root"))
            elif (k := q_log(q, value)) is None:
                diagnostics.append(f"root w={rat_str(value)}: non-rational exponent, skipped")
            else:
                proposals.append((free_c, k, free_provenance))
    if not vertex and c_override is not None:
        proposals.append((c_override, face.r, user))
    if vertex and r_override is not None and all(r != r_override for _c, r, _p in proposals):
        proposals.append((free_c, r_override, user))

    candidates: list[TruncatedSolution] = []
    for c, r, provenance in proposals:
        if not face.admits(r):
            diagnostics.append(f"r={rat_str(r)} lies outside this vertex's normal cone; skipped")
        elif not any(s.c == c and s.r == r for s in candidates):
            ts = TruncatedSolution(c, r, q, face, provenance)
            if _substitute(g, ts):
                diagnostics.append(
                    f"y = ({c})*x^{rat_str(ts.r)} does not solve the "
                    f"truncated equation of face {face.label()}"
                )
            else:
                candidates.append(ts)
    return FaceAnalysis(face, g, poly, roots, tuple(candidates), tuple(diagnostics))
