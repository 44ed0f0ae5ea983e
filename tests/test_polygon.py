import random
from fractions import Fraction

from oracles import brute_force_hull, cone_contains, random_point_set, reference_polygon
from qdulac.parser import parse_equation
from qdulac.polygon import (
    build_polygon,
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
    assert left.admits(0)
    assert not left.admits(1)
    v02 = find_face(poly, [(0, 2)])
    assert v02.admits(1)
    assert not v02.admits(0)
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
    assert sel[0].admits(F(-7, 3))


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


def _fields(poly):
    # repr tells an int from an equal Fraction
    faces = [(f.dim, f.points, f.endpoints, f.r, f.r_range) for f in poly.faces]
    return repr((poly.support, poly.hull_vertices, faces))


def _affine_draw(rng):
    """A random draw moved by a 20-digit affine map with positive scales,
    which keeps duplicates, collinear runs and every face."""
    sx, ux, vy = (rng.randint(10**19, 10**20) for _ in range(3))
    dy = F(rng.randint(10**19, 10**20), rng.randint(10**19, 10**20))
    return [(x * sx + ux, y / dy - F(vy, 7)) for x, y in random_point_set(rng)]


def test_polygon_matches_fraction_reference():
    rng = random.Random(20261019)
    draws = [random_point_set(rng) for _ in range(2000)]
    draws += [_affine_draw(rng) for _ in range(40)]
    draws += [
        [
            (F(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20)),
             F(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20)))
            for _ in range(rng.randint(1, 9))
        ]
        for _ in range(40)
    ]
    kinds = set()
    for pts in draws:
        poly, expected = build_polygon(pts), reference_polygon(pts)
        assert _fields(poly) == _fields(expected), pts
        kinds |= {
            (f.dim, len(f.points), f.admissible) for f in poly.faces
        }
    # vertices, plain edges and edges with interior points, both facing
    # x -> 0 and not
    assert {(0, 1, True), (0, 1, False), (1, 2, True), (1, 2, False)} <= kinds
    assert {(1, 3, True), (1, 3, False)} <= kinds


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
                assert face.admits(r)
                p = (F(-1), -r)
                face_val = p[0] * face.points[0][0] + p[1] * face.points[0][1]
                for s in poly.support:
                    val = p[0] * s[0] + p[1] * s[1]
                    if s in face.points:
                        assert val == face_val
                    else:
                        assert val < face_val


def _admits_probes(face):
    """Each finite end of the face's r-range (an edge: its r), with one
    point just inside and one just outside it."""
    lo, hi = (face.r, face.r) if face.dim == 1 else face.r_range or (None, None)
    step = F(1, 1000)
    if lo is not None and hi is not None and lo < hi:
        step = (hi - lo) / 1000
    probes = set()
    for end, inward in ((lo, step), (hi, -step)):
        if end is not None:
            probes |= {end, end + inward, end - inward}
    return probes


def test_face_admits_matches_support_scan():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        poly = build_polygon(random_point_set(rng, max_size=8))
        probes = {F(0)}.union(*map(_admits_probes, poly.faces))
        for face in poly.faces:
            for r in probes:
                admitted = face.admits(r)
                assert admitted == cone_contains(face, poly.support, r), (face, r)
                seen.add((face.dim, admitted))
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


def _large_grid_draw(rng, shape):
    """300 to 1,000 points on a small integer grid: spread over the plane
    with binomial coordinates (a ragged hull, collinear runs, points level
    with each other), strung along one line, or one point repeated."""
    n = rng.randint(300, 1000)

    def coord():
        return rng.randint(-4, 4) + rng.randint(-4, 4)

    if shape == "plane":
        tilt = rng.randint(-1, 1)
        return [(F(u), F(coord() + tilt * u)) for u in (coord() for _ in range(n))]
    a = (coord(), coord())
    if shape == "point":
        return [tuple(map(F, a))] * n
    d = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)])
    steps = (rng.randint(0, 8) for _ in range(n))
    return [(F(a[0] + j * d[0]), F(a[1] + j * d[1])) for j in steps]


def test_cones_at_scale_match_support_scans(deadline):
    rng = random.Random(20261020)
    shapes = ["plane"] * 8 + ["line"] * 5 + ["point"] * 2
    draws = [_large_grid_draw(rng, shape) for shape in shapes]
    with deadline(2):
        polys = [build_polygon(pts) for pts in draws]
    seen = set()
    for pts, poly in zip(draws, polys):
        assert _fields(poly) == _fields(reference_polygon(pts)), pts
        for face in poly.faces:
            for r in _admits_probes(face) | {F(0)}:
                assert face.admits(r) == cone_contains(face, poly.support, r), (face, r)
        edges = [f for f in poly.faces if f.dim == 1]
        seen.add(min(len(poly.hull_vertices), 3))
        seen |= {"collinear run" for f in edges if len(f.points) > 2}
        seen |= {"level edge" for f in edges if f.endpoints[0][1] == f.endpoints[1][1]}
    assert seen == {1, 2, 3, "collinear run", "level edge"}


def test_cone_partition_property():
    rng = random.Random(15)
    for _ in range(30):
        pts = random_point_set(rng, max_size=8)
        poly = build_polygon(pts)
        sel = faces_for_x_to_zero(poly)
        for num in range(-12, 13):
            r = F(num, 3)
            holders = [f for f in sel if f.admits(r)]
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
