import random
from fractions import Fraction

from oracles import brute_force_hull, random_point_set
from qdulac.parser import parse_equation
from qdulac.polygon import (
    build_polygon,
    cone_contains,
    faces_for_x_to_zero,
    find_face,
    render_svg,
)
from qdulac.qexpr import support

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)


def main_polygon():
    return build_polygon(support(parse_equation(EQ_MAIN, ["a3", "a4"])))


def selects_r(face, r) -> bool:
    """(-1,-r) lies in a selected face's cone: the edge's own r, or the
    open interval r_range of a vertex."""
    if face.dim == 1:
        return face.r == r
    lo, hi = face.r_range
    return (lo is None or lo < r) and (hi is None or r < hi)


def test_main_equation_hull():
    poly = main_polygon()
    assert set(poly.hull_vertices) == {(0, 2), (0, 3), (2, 3), (2, 2)}
    assert len(poly.hull_vertices) == 4
    edges = [f for f in poly.faces if f.dim == 1]
    assert len(edges) == 4
    left = find_face(poly, [(0, 2), (0, 3)])
    assert left is not None
    assert set(left.points) == {(0, 2), (0, 3)}
    assert left.r == 0


def test_main_equation_cone_examples():
    poly = main_polygon()
    left = find_face(poly, [(0, 2), (0, 3)])
    assert cone_contains(left, poly.support, 0)
    assert not cone_contains(left, poly.support, 1)
    v02 = find_face(poly, [(0, 2)])
    assert cone_contains(v02, poly.support, 1)
    assert not cone_contains(v02, poly.support, 0)
    assert v02.r_range == (F(0), None)
    v03 = find_face(poly, [(0, 3)])
    assert v03.r_range == (None, F(0))


def test_main_equation_x_to_zero_faces():
    poly = main_polygon()
    sel = faces_for_x_to_zero(poly)
    keys = [tuple(sorted(f.endpoints)) for f in sel]
    assert keys == [
        ((F(0), F(3)),),
        ((F(0), F(2)), (F(0), F(3))),
        ((F(0), F(2)),),
    ]
    right = find_face(poly, [(2, 2), (2, 3)])
    assert right.r is None
    assert right not in sel


def test_single_point_polygon():
    poly = build_polygon([(1, 1)])
    assert poly.hull_vertices == ((1, 1),)
    assert len(poly.faces) == 1
    assert poly.faces[0].dim == 0
    sel = faces_for_x_to_zero(poly)
    assert sel == [poly.faces[0]]
    assert sel[0].r_range == (None, None)
    assert selects_r(sel[0], F(-7, 3))


def test_horizontal_segment_polygon():
    poly = build_polygon([(0, 1), (1, 1)])
    assert poly.hull_vertices == ((0, 1), (1, 1))
    edges = [f for f in poly.faces if f.dim == 1]
    assert len(edges) == 1
    assert edges[0].r is None
    sel = faces_for_x_to_zero(poly)
    assert [f.endpoints for f in sel] == [((F(0), F(1)),)]


def test_vertical_segment_polygon():
    poly = build_polygon([(0, 0), (0, 2), (0, 1)])
    edges = [f for f in poly.faces if f.dim == 1]
    assert len(edges) == 1
    assert set(edges[0].points) == {(0, 0), (0, 1), (0, 2)}
    assert edges[0].r == 0


def test_collinear_points_join_edge_subset():
    pts = [(0, 0), (1, 1), (2, 2), (2, 0)]
    poly = build_polygon(pts)
    assert set(poly.hull_vertices) == {(0, 0), (2, 2), (2, 0)}
    diag = find_face(poly, [(0, 0), (2, 2)])
    assert set(diag.points) == {(0, 0), (1, 1), (2, 2)}


def test_hull_matches_brute_force():
    rng = random.Random(20260815)
    for _ in range(300):
        pts = random_point_set(rng)
        ours = list(build_polygon(pts).hull_vertices)
        expected = brute_force_hull(pts)
        assert ours == expected, (pts, ours, expected)


def test_hull_idempotence():
    rng = random.Random(77)
    for _ in range(50):
        pts = random_point_set(rng)
        poly = build_polygon(pts)
        again = build_polygon(poly.hull_vertices)
        assert again.hull_vertices == poly.hull_vertices


def test_cone_separation_invariant():
    rng = random.Random(5)
    for _ in range(50):
        pts = random_point_set(rng, max_size=8)
        poly = build_polygon(pts)
        for face in poly.faces:
            probes = []
            if face.dim == 1 and face.r is not None:
                probes = [face.r]
            elif face.dim == 0 and face.admissible:
                lo, hi = face.r_range
                if lo is None and hi is None:
                    probes = [F(0)]
                elif lo is None:
                    probes = [hi - 1]
                elif hi is None:
                    probes = [lo + 1]
                else:
                    probes = [(lo + hi) / 2]
            for r in probes:
                assert cone_contains(face, poly.support, r)
                p = (F(-1), -r)
                face_val = p[0] * face.points[0][0] + p[1] * face.points[0][1]
                for s in poly.support:
                    val = p[0] * s[0] + p[1] * s[1]
                    if s in face.points:
                        assert val == face_val
                    else:
                        assert val < face_val


def test_cone_partition_property():
    rng = random.Random(15)
    for _ in range(30):
        pts = random_point_set(rng, max_size=8)
        poly = build_polygon(pts)
        sel = faces_for_x_to_zero(poly)
        for num in range(-12, 13):
            r = F(num, 3)
            holders = [f for f in sel if selects_r(f, r)]
            assert len(holders) == 1, (pts, r)


def test_svg_deterministic_and_structured():
    poly = main_polygon()
    one = render_svg(poly)
    two = render_svg(build_polygon(support(parse_equation(EQ_MAIN, ["a3", "a4"]))))
    assert one == two
    assert one.startswith("<svg ")
    assert one.rstrip().endswith("</svg>")
    assert one.count("<circle") == 6
    assert "polygon points=" in one
    assert "r=0" in one


def test_svg_degenerate():
    svg = render_svg(build_polygon([(1, 1)]))
    assert svg.count("<circle") == 1
    assert "polygon" not in svg.replace("svg", "")
