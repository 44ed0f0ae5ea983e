"""Truncated equations on polygon faces and their solutions y = c*x^r.

A face of the Newton polygon selects the sub-sum of the equation whose
exponent points lie on that face.  Substituting y = c*x^r into the
sub-sum factors it:

  vertex (q1, q2):  chi(w) * c^q2 * x^(q1 + r*q2)     with w = q^r,
  edge with slope r: (det poly in c)  * x^(common power),

so a vertex contributes solutions through the rational roots w of chi
(then r = log_q w, filtered by the normal cone, with c free), and an edge
fixes r and determines c through the roots of its determining polynomial.
`analyze_face` treats both kinds of face alike: it turns the roots into
one ordered list of proposals (c, r, provenance), appends the user's
value last, and verifies each proposal against the truncated sum when it
constructs the solution; each solution keeps the q it was verified at.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ParamPoly,
    TPoly,
    _as_rat,
    check_q,
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
    TruncatedSolutionError,
)
from .polygon import Face
from .qexpr import QPolynomial


@dataclass(frozen=True)
class TruncatedSolution:
    """A verified leading-order solution y = c * x^r on a face, at base q."""

    c: ParamPoly
    r: Fraction
    q: Fraction
    face: Face
    provenance: str  # "vertex-root" | "edge-root" | "user-supplied"

    def __post_init__(self):
        if self.c.is_zero():
            raise TruncatedSolutionError("leading coefficient c must be nonzero")
        object.__setattr__(self, "r", _as_rat(self.r))
        object.__setattr__(self, "q", check_q(self.q))

    @classmethod
    def create(
        cls,
        f: QPolynomial,
        face: Face,
        c: ParamPoly,
        r,
        q,
        provenance: str,
    ) -> "TruncatedSolution":
        ts = cls(ParamPoly.coerce(c), r, q, face, provenance)
        if not verify_truncated(ts, f):
            raise TruncatedSolutionError(
                f"y = ({c})*x^{rat_str(ts.r)} does not solve the "
                f"truncated equation of face {face.label()}"
            )
        return ts


def truncated_sum(f: QPolynomial, face: Face) -> QPolynomial:
    """Terms of f whose exponent point lies in the face's boundary subset."""
    wanted = set(face.points)
    return QPolynomial([t for t in f.terms if t.q_point in wanted])


def _power_substitution(g: QPolynomial, c: ParamPoly, r: Fraction, q: Fraction):
    """Exponent -> coefficient map of g(x, c*x^r); needs q^{r*weight} in Q."""
    out: dict[Fraction, ParamPoly] = {}
    for term in g.terms:
        exponent = term.x_exp + r * term.y_degree
        value = term.coeff * c**term.y_degree * q_pow(q, r * term.shift_weight)
        out[exponent] = out.get(exponent, ParamPoly.zero()) + value
    return {e: v for e, v in out.items() if not v.is_zero()}


def verify_truncated(ts: TruncatedSolution, f: QPolynomial) -> bool:
    """True iff the face's truncated sum vanishes identically at y = c*x^r."""
    g = truncated_sum(f, ts.face)
    if g.is_zero():
        return True
    return not _power_substitution(g, ts.c, ts.r, ts.q)


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
    top = max(t.shift_weight for t in terms)
    coeffs = [ParamPoly.zero()] * (top + 1)
    for t in terms:
        coeffs[t.shift_weight] = coeffs[t.shift_weight] + t.coeff
    return TPoly(coeffs)


def determining_poly(g: QPolynomial, r, q) -> TPoly:
    """Determining polynomial in c of an edge truncation at its slope r."""
    terms = g.terms
    if not terms:
        raise EmptySupportError("empty truncation has no determining polynomial")
    r = _as_rat(r)
    q = check_q(q)
    powers = {t.x_exp + r * t.y_degree for t in terms}
    if len(powers) != 1:
        raise InconsistentEdgeError(
            f"substitution leaves {len(powers)} distinct x-powers; "
            f"r={rat_str(r)} is not this edge's slope"
        )
    top = max(t.y_degree for t in terms)
    coeffs = [ParamPoly.zero()] * (top + 1)
    for t in terms:
        value = t.coeff * q_pow(q, r * t.shift_weight)
        coeffs[t.y_degree] = coeffs[t.y_degree] + value
    return TPoly(coeffs)


@dataclass(frozen=True)
class FaceAnalysis:
    """Everything the pipeline learns from one face."""

    face: Face
    truncated: QPolynomial
    variable: str  # "w" for a vertex, "c" for an edge
    poly: TPoly | None
    roots: tuple  # ((value, multiplicity), ...) rational roots of poly
    candidates: tuple  # TruncatedSolution, ...
    diagnostics: tuple  # str, ...


def _fresh_symbol(f: QPolynomial) -> str:
    taken = set()
    for term in f.terms:
        taken |= term.coeff.symbols()
    if "c" not in taken:
        return "c"
    i = 1
    while f"c{i}" in taken:
        i += 1
    return f"c{i}"


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
            return FaceAnalysis(
                face, g, "c", None, (),
                (), ("edge does not face x -> 0; no admissible r",),
            )
        if r_override is not None and r_override != face.r:
            diagnostics.append(
                f"--r {rat_str(r_override)} ignored: this edge fixes "
                f"r={rat_str(face.r)}"
            )
        try:
            poly = determining_poly(g, face.r, q)
        except IrrationalQPowerError as err:
            return FaceAnalysis(face, g, "c", None, (), (), (str(err),))

    # Proposals (c, r, provenance): roots first, the user's value last.
    user = "user-supplied"
    free_c = c_override
    if free_c is None and (vertex or poly.is_zero()):
        free_c = ParamPoly.symbol(_fresh_symbol(f))
    free_provenance = user if c_override is not None else (
        "vertex-root" if vertex else "edge-root"
    )
    proposals: list[tuple[ParamPoly, Fraction, str]] = []
    roots: tuple = ()
    if not all(c.is_constant() for c in poly.coeffs):
        diagnostics.append(
            "characteristic polynomial has parameter coefficients; "
            "supply --r (and --c) to choose a solution"
            if vertex else "parameter-dependent determining equation; needs --c"
        )
    elif poly.is_zero():
        diagnostics.append(
            "truncated sum vanishes for every c and r (zero characteristic "
            "polynomial)" if vertex else
            "truncated sum vanishes for every c (zero determining polynomial)"
        )
        if not vertex:
            proposals.append((free_c, face.r, free_provenance))
    else:
        roots = tuple(rational_roots(poly.rational_coeffs()))
        for value, _mult in roots:
            if value == 0:
                diagnostics.append(
                    "root w=0 excluded (q^r is never 0)" if vertex
                    else "root c=0 discarded (c must be nonzero)"
                )
            elif not vertex:
                proposals.append((ParamPoly.const(value), face.r, "edge-root"))
            elif (k := q_log(q, value)) is None:
                diagnostics.append(
                    f"root w={rat_str(value)}: non-rational exponent, skipped"
                )
            else:
                proposals.append((free_c, k, free_provenance))
    if not vertex and c_override is not None:
        proposals.append((c_override, face.r, user))
    if vertex and r_override is not None and all(
        r != r_override for _c, r, _p in proposals
    ):
        proposals.append((free_c, r_override, user))

    candidates: list[TruncatedSolution] = []
    for c, r, provenance in proposals:
        if not face.admits(r):
            diagnostics.append(
                f"r={rat_str(r)} lies outside this vertex's normal cone; skipped"
            )
        elif not any(s.c == c and s.r == r for s in candidates):
            try:
                candidates.append(
                    TruncatedSolution.create(f, face, c, r, q, provenance)
                )
            except TruncatedSolutionError as err:
                diagnostics.append(str(err))
    return FaceAnalysis(
        face=face,
        truncated=g,
        variable="w" if vertex else "c",
        poly=poly,
        roots=roots,
        candidates=tuple(candidates),
        diagnostics=tuple(diagnostics),
    )
