"""Newton polygon of a q-difference sum: hull, faces, normal cones, SVG.

The polygon is the convex hull of the (rational) exponent points of a
q-difference sum, its support.  Its faces are vertices (dim 0) and edges
(dim 1), each carrying its boundary subset: all support points lying on
the face, including collinear interior points of an edge.

For the direction x -> 0 the relevant normal directions are the rays
lambda * (-1, -r).  An edge admits exactly one such r, read off its
direction (when its outward normal points into the half-plane p1 < 0); a
vertex admits an open interval of r values, bounded by its two hull
neighbours.  The predicates run on the sum's own integer grid, a term
x^(e/D)*y^d at (e, d), which keeps order, turn signs and collinearity;
only the stored points, r values and r-range bounds are formed as exact
Fractions, each once.  The degenerate hulls (single point, segment) use
the same Face vocabulary; a `Face` and the `NewtonPolygon` are named
tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import _as_rat, rat_str
from .errors import EmptySupportError
from .qexpr import QPolynomial, _grid_points

Point = tuple  # (Fraction, Fraction); on the grid (int, int)


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class Face(NamedTuple):
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
        return "-".join(f"({rat_str(x)},{rat_str(y)})" for x, y in self.endpoints)


class NewtonPolygon(NamedTuple):
    support: tuple
    hull_vertices: tuple  # counterclockwise
    faces: tuple


def _chain(grid) -> list:
    """Counterclockwise hull of sorted distinct grid points by the monotone
    chain, strict turns only."""
    if len(grid) <= 2:
        return list(grid)

    def half(order) -> list:
        out: list = []
        for p in order:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(grid) + half(reversed(grid))


def _grid_rat(ratio: tuple, scale: int) -> Fraction:
    """The r that a grid ratio (dx, dy) names: -dx / (dy*D)."""
    return Fraction(-ratio[0], ratio[1] * scale)


def _vertex_r_range(v: Point, neighbours, scale: int):
    """Open interval of r with (-1,-r) strictly maximal at v, or None.

    A hull vertex that beats its two hull neighbours beats every point, so
    each neighbour s gives the constraint (s1 - v1) + r (s2 - v2) > 0; each
    bound is kept as the grid ratio of s - v, its second entry positive.
    """
    lo = hi = None
    for s in neighbours:
        d = (s[0] - v[0], s[1] - v[1])
        if d[1] == 0:
            if d[0] < 0:  # s == v, a one-point hull, gives d = (0, 0)
                return None
        elif d[1] > 0:
            if lo is None or d[0] * lo[1] < lo[0] * d[1]:
                lo = d
        elif hi is None or d[0] * hi[1] < hi[0] * d[1]:
            hi = (-d[0], -d[1])
    if lo is not None and hi is not None and lo[0] * hi[1] <= hi[0] * lo[1]:
        return None
    return tuple(None if b is None else _grid_rat(b, scale) for b in (lo, hi))


def build_polygon(f: QPolynomial) -> NewtonPolygon:
    """Exact convex hull of f's support with all faces annotated; the zero
    sum raises EmptySupportError."""
    scale, _, points = _grid_points(f)
    if not points:
        raise EmptySupportError("zero polynomial has no support")
    grid = {p: (Fraction(p[0], scale), Fraction(p[1])) for p in sorted(points)}
    hull = _chain(grid)
    n = len(hull)
    faces = [
        Face(0, (grid[v],), (grid[v],), None,
             _vertex_r_range(v, (hull[i - 1], hull[(i + 1) % n]), scale))
        for i, v in enumerate(hull)
    ]
    for a, b in [(hull[i], hull[(i + 1) % n]) for i in range(n if n >= 3 else n - 1)]:
        # The hull turns strictly counterclockwise: no point of the line ab
        # lies outside [a,b] and every other point lies left of it, so (-1,-r)
        # is outward when b is below a, or not level with it on a segment.
        d = (b[0] - a[0], b[1] - a[1])
        r = _grid_rat(d, scale) if d[1] < 0 or (n == 2 and d[1]) else None
        subset = tuple(grid[s] for s in grid if _cross(a, b, s) == 0)
        faces.append(Face(1, subset, (grid[a], grid[b]), r, None))
    return NewtonPolygon(
        tuple(grid.values()), tuple(grid[v] for v in hull), tuple(faces)
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
    pts = sorted((_as_rat(x), _as_rat(y)) for x, y in endpoints)
    want = tuple(pts[:1] + [p for a, p in zip(pts, pts[1:]) if p != a])  # distinct, unhashed
    dim, back = len(want) - 1, want[::-1]
    for face in polygon.faces:
        if face.dim == dim and (face.endpoints == want or face.endpoints == back):
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
