"""Newton polygon of a support set: hull, faces, normal cones, SVG.

The polygon is the convex hull of the (rational) exponent points of a
q-difference sum.  Its faces are vertices (dim 0) and edges (dim 1), each
carrying its boundary subset: all support points lying on the face,
including collinear interior points of an edge.

For the direction x -> 0 the relevant normal directions are the rays
lambda * (-1, -r).  An edge admits exactly one such r (when its outward
normal points into the half-plane p1 < 0); a vertex admits an open
interval of r values.  All predicates are exact rational arithmetic; the
degenerate hulls (single point, segment) use the same Face vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import _as_rat, rat_str

Point = tuple  # (Fraction, Fraction)


def _pt(p) -> Point:
    return (_as_rat(p[0]), _as_rat(p[1]))


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dot(a: Point, b: Point) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _between(a: Point, b: Point, s: Point) -> bool:
    """s on the closed segment [a,b], assuming a, b, s collinear."""
    d = (b[0] - a[0], b[1] - a[1])
    t = _dot((s[0] - a[0], s[1] - a[1]), d)
    return 0 <= t <= _dot(d, d)


@dataclass(frozen=True)
class Face:
    """A vertex (dim 0) or edge (dim 1) with its boundary subset.

    `points` lists every support point on the face; `endpoints` the hull
    vertex (one) or the two hull endpoints.  For edges `r` is the unique
    value with (-1, -r) in the edge's normal cone, or None when the edge
    does not face x -> 0.  Vertices always store r = None; their admissible
    r values form the open interval `r_range` = (lo, hi) with None for an
    unbounded end, empty when `admissible` is false.
    """

    dim: int
    points: tuple
    endpoints: tuple
    r: Fraction | None
    r_range: tuple | None

    @property
    def admissible(self) -> bool:
        """True when some r with (-1,-r) in the normal cone exists."""
        if self.dim == 1:
            return self.r is not None
        if self.r_range is None:
            return False
        lo, hi = self.r_range
        return lo is None or hi is None or lo < hi

    def admits(self, r: Fraction) -> bool:
        """True when (-1,-r) is in the normal cone: r is the edge's own r,
        or r lies in the vertex's open interval `r_range`."""
        if self.r_range is None:  # an edge, or a vertex facing away (r None)
            return r == self.r
        lo, hi = self.r_range
        return (lo is None or lo < r) and (hi is None or r < hi)

    def label(self) -> str:
        pts = "-".join(
            f"({rat_str(p[0])},{rat_str(p[1])})" for p in self.endpoints
        )
        return pts


@dataclass(frozen=True)
class NewtonPolygon:
    support: tuple
    hull_vertices: tuple  # counterclockwise
    faces: tuple


def _monotone_chain(points: list) -> list:
    """Counterclockwise hull with strict turns (collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _vertex_r_range(v: Point, support: Iterable[Point]):
    """Open interval of r with (-1,-r) strictly maximal at v, or None.

    The constraint from another support point s is
    (s1 - v1) + r (s2 - v2) > 0.
    """
    lo = None
    hi = None
    for s in support:
        if s == v:
            continue
        num = v[0] - s[0]
        den = s[1] - v[1]
        if den == 0:
            if s[0] <= v[0]:
                return None
            continue
        bound = num / den
        if den > 0:
            if lo is None or bound > lo:
                lo = bound
        else:
            if hi is None or bound < hi:
                hi = bound
    if lo is not None and hi is not None and lo >= hi:
        return None
    return (lo, hi)


def _edge_r(a: Point, b: Point, subset: tuple, support: tuple) -> Fraction | None:
    """The unique r with (-1,-r) normal to edge ab and outward, if any."""
    d2 = b[1] - a[1]
    if d2 == 0:
        return None
    r = -(b[0] - a[0]) / d2
    p = (Fraction(-1), -r)
    face_val = _dot(p, a)
    for s in support:
        if s in subset:
            continue
        if _dot(p, s) >= face_val:
            return None
    return r


def build_polygon(support) -> NewtonPolygon:
    """Exact convex hull of a nonempty support with all faces annotated."""
    pts = sorted({_pt(p) for p in support})
    if not pts:
        raise ValueError("empty support")
    hull = _monotone_chain(pts)
    faces: list[Face] = []
    for v in hull:
        faces.append(
            Face(
                dim=0,
                points=(v,),
                endpoints=(v,),
                r=None,
                r_range=_vertex_r_range(v, pts),
            )
        )
    support_t = tuple(pts)
    edge_pairs: list = []
    if len(hull) == 2:
        edge_pairs = [(hull[0], hull[1])]
    elif len(hull) >= 3:
        edge_pairs = [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
    for a, b in edge_pairs:
        subset = tuple(
            s for s in pts if _cross(a, b, s) == 0 and _between(a, b, s)
        )
        r = _edge_r(a, b, subset, support_t)
        faces.append(
            Face(dim=1, points=subset, endpoints=(a, b), r=r, r_range=None)
        )
    return NewtonPolygon(
        support=support_t, hull_vertices=tuple(hull), faces=tuple(faces)
    )


def _face_sort_key(face: Face):
    # An r-bound orders as (0,) for -inf, (1, v) for a finite v and (2,)
    # for +inf, so the key stays exact.
    if face.dim == 1:
        return ((1, face.r), (1, face.r), 1)
    lo, hi = face.r_range
    return ((0,) if lo is None else (1, lo), (2,) if hi is None else (1, hi), 0)


def faces_for_x_to_zero(polygon: NewtonPolygon) -> list:
    """Faces whose normal cone meets {p1 < 0}, ordered by increasing r."""
    out = [f for f in polygon.faces if f.admissible]
    out.sort(key=_face_sort_key)
    return out


def find_face(polygon: NewtonPolygon, endpoints) -> Face | None:
    """Face with the given endpoint set (one point: vertex; two: edge)."""
    want = frozenset(_pt(p) for p in endpoints)
    for face in polygon.faces:
        if frozenset(face.endpoints) == want and face.dim == len(want) - 1:
            return face
    return None


# ---------------------------------------------------------------------------
# SVG rendering

_VIEW = 400
_MARGIN = 48


def _fmt(v: Fraction) -> str:
    """v rounded half-even to two decimals, exactly."""
    cents = round(v * 100)
    whole, part = divmod(abs(cents), 100)
    return f"{'-' if cents < 0 else ''}{whole}.{part:02d}"


def render_svg(polygon: NewtonPolygon) -> str:
    """Deterministic 400x400 picture: dots, hull, integer-labeled axes."""
    xs = [p[0] for p in polygon.support]
    ys = [p[1] for p in polygon.support]
    x_lo = min(math.floor(min(xs)), 0)
    x_hi = max(math.ceil(max(xs)), x_lo + 1)
    y_lo = min(math.floor(min(ys)), 0)
    y_hi = max(math.ceil(max(ys)), y_lo + 1)
    span = Fraction(_VIEW - 2 * _MARGIN)
    sx = span / (x_hi - x_lo)
    sy = span / (y_hi - y_lo)

    def px(p: Point) -> tuple[str, str]:
        return (
            _fmt(_MARGIN + (p[0] - x_lo) * sx),
            _fmt(_VIEW - _MARGIN - (p[1] - y_lo) * sy),
        )

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" '
        f'height="{_VIEW}" viewBox="0 0 {_VIEW} {_VIEW}">',
        f'<rect width="{_VIEW}" height="{_VIEW}" fill="white"/>',
    ]
    axis_y = _fmt(Fraction(_VIEW - _MARGIN))
    axis_x = _fmt(Fraction(_MARGIN))
    out.append(
        f'<line x1="{axis_x}" y1="{axis_y}" x2="{_fmt(Fraction(_VIEW - _MARGIN))}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{axis_x}" y1="{_fmt(Fraction(_MARGIN))}" x2="{axis_x}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for i in range(x_lo, x_hi + 1):
        gx, _ = px((Fraction(i), Fraction(y_lo)))
        out.append(
            f'<text x="{gx}" y="{_fmt(Fraction(_VIEW - _MARGIN + 18))}" '
            f'font-size="12" text-anchor="middle">{i}</text>'
        )
    for j in range(y_lo, y_hi + 1):
        _, gy = px((Fraction(x_lo), Fraction(j)))
        out.append(
            f'<text x="{_fmt(Fraction(_MARGIN - 10))}" y="{gy}" '
            f'font-size="12" text-anchor="end" dominant-baseline="middle">{j}</text>'
        )
    if len(polygon.hull_vertices) >= 2:
        coords = " ".join(
            ",".join(px(v)) for v in polygon.hull_vertices
        )
        shape = "polygon" if len(polygon.hull_vertices) >= 3 else "polyline"
        out.append(
            f'<{shape} points="{coords}" fill="#dde8f8" fill-opacity="0.6" '
            f'stroke="#245" stroke-width="2"/>'
        )
    for face in polygon.faces:
        if face.dim == 1 and face.r is not None:
            a, b = face.endpoints
            mx = (a[0] + b[0]) / 2
            my = (a[1] + b[1]) / 2
            gx, gy = px((mx, my))
            out.append(
                f'<text x="{gx}" y="{gy}" font-size="12" fill="#245" '
                f'text-anchor="start" dx="6">r={rat_str(face.r)}</text>'
            )
    for p in polygon.support:
        gx, gy = px(p)
        out.append(f'<circle cx="{gx}" cy="{gy}" r="4" fill="#203040"/>')
        out.append(
            f'<text x="{gx}" y="{gy}" font-size="11" dx="7" dy="-5" '
            f'fill="#203040">({rat_str(p[0])},{rat_str(p[1])})</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
