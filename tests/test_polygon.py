"""The Newton polygon of a sum, against Fraction references.

Point-set draws become sums through `oracles.point_sum`, which maps the
y of each point by an increasing affine map onto a y-degree; each
polygon is compared with the brute-force hull or `reference_polygon` of
the mapped points, read back by `oracles.support`.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

from oracles import (
    brute_force_hull,
    cone_contains,
    point_sum,
    random_edge_equation,
    random_point_set,
    reference_polygon,
    support,
)
from qdulac.parser import parse_equation
from qdulac.polygon import (
    build_polygon,
    faces_for_x_to_zero,
    find_face,
    render_svg,
)

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)


def main_polygon():
    return build_polygon(parse_equation(EQ_MAIN, ["a3", "a4"]))


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
    poly = build_polygon(parse_equation("x*y"))
    assert poly.hull_vertices == ((1, 1),)
    assert len(poly.faces) == 1
    assert poly.faces[0].dim == 0
    sel = faces_for_x_to_zero(poly)
    assert sel == [poly.faces[0]]
    assert sel[0].r_range == (None, None)
    assert sel[0].admits(F(-7, 3))


def test_horizontal_segment_polygon():
    poly = build_polygon(parse_equation("y + x*y"))
    assert poly.hull_vertices == ((0, 1), (1, 1))
    edges = [f for f in poly.faces if f.dim == 1]
    assert len(edges) == 1
    assert edges[0].r is None
    sel = faces_for_x_to_zero(poly)
    assert [f.endpoints for f in sel] == [((F(0), F(1)),)]


def test_vertical_segment_polygon():
    poly = build_polygon(parse_equation("1 + y^2 + y"))
    edges = [f for f in poly.faces if f.dim == 1]
    assert len(edges) == 1
    assert set(edges[0].points) == {(0, 0), (0, 1), (0, 2)}
    assert edges[0].r == 0


def test_collinear_points_join_edge_subset():
    poly = build_polygon(parse_equation("1 + x*y + x^2*y^2 + x^2"))
    assert set(poly.hull_vertices) == {(0, 0), (2, 2), (2, 0)}
    diag = find_face(poly, [(0, 0), (2, 2)])
    assert set(diag.points) == {(0, 0), (1, 1), (2, 2)}


def test_hull_matches_brute_force():
    rng = random.Random(20260815)
    for _ in range(300):
        f = point_sum(random_point_set(rng))
        ours = list(build_polygon(f).hull_vertices)
        expected = brute_force_hull(support(f))
        assert ours == expected, (f, ours, expected)


def _fields(poly):
    # repr tells an int from an equal Fraction
    faces = [(f.dim, f.points, f.endpoints, f.r, f.r_range) for f in poly.faces]
    return repr((poly.support, poly.hull_vertices, faces))


def _affine_draw(rng):
    """A random draw moved on x by a 20-digit affine map with a positive
    scale, which keeps duplicates, collinear runs and every face.  Large
    values go on x: a y-degree is an int below 2^31."""
    sx = F(rng.randint(10**19, 10**20), rng.randint(10**19, 10**20))
    ux = F(rng.randint(10**19, 10**20), 7)
    return [(x * sx - ux, y) for x, y in random_point_set(rng)]


def test_polygon_matches_fraction_reference():
    rng = random.Random(20261019)
    draws = [random_point_set(rng) for _ in range(2000)]
    draws += [_affine_draw(rng) for _ in range(40)]
    draws += [
        [
            (F(rng.randint(-(10**20), 10**20), rng.randint(1, 10**20)),
             F(rng.randint(-8, 8), rng.randint(1, 4)))
            for _ in range(rng.randint(1, 9))
        ]
        for _ in range(40)
    ]
    kinds = set()
    for pts in draws:
        f = point_sum(pts)
        poly, expected = build_polygon(f), reference_polygon(support(f))
        assert _fields(poly) == _fields(expected), pts
        kinds |= {
            (f.dim, len(f.points), f.admissible) for f in poly.faces
        }
    # vertices, plain edges and edges with interior points, both facing
    # x -> 0 and not
    assert {(0, 1, True), (0, 1, False), (1, 2, True), (1, 2, False)} <= kinds
    assert {(1, 3, True), (1, 3, False)} <= kinds


def test_polygon_of_real_sums_matches_fraction_reference():
    # the golden inputs, planted-edge sums and sums of two such, one moved
    # onto another x-grid; repr tells an int from an equal Fraction
    params = {"main": ["a3", "a4"], "param": ["a"]}
    sums = [parse_equation(path.read_text(encoding="utf-8"), params.get(path.stem, []))
            for path in sorted(GOLDEN.glob("*.qde"))]
    assert len(sums) == 4
    rng = random.Random(20261022)
    for _ in range(150):
        f, g = random_edge_equation(rng)[0], random_edge_equation(rng)[0]
        sums += [f, f + g.shift_x(F(rng.randint(-6, 6), rng.choice([1, 2, 3, 5])))]
    levels, grids = set(), set()
    for f in sums:
        assert _fields(build_polygon(f)) == _fields(reference_polygon(support(f))), str(f)
        levels |= {level for t in f.terms for level, _ in t.sigma_powers}
        grids.add(len({t.x_exp.denominator for t in f.terms}))
    # shift levels 0 to 2; sums on one x-grid and on two and three mixed
    assert levels == {0, 1, 2} and {1, 2, 3} <= grids


def test_hull_idempotence():
    rng = random.Random(77)
    for _ in range(50):
        poly = build_polygon(point_sum(random_point_set(rng)))
        # the least y is 0 at a hull vertex, so `point_sum` keeps the hull
        again = build_polygon(point_sum(poly.hull_vertices))
        assert again.hull_vertices == poly.hull_vertices


def test_find_face_by_endpoints_in_either_order():
    rng = random.Random(11)
    for _ in range(300):
        poly = build_polygon(point_sum(random_point_set(rng)))
        for face in poly.faces:
            assert find_face(poly, face.endpoints) is face
            assert find_face(poly, face.endpoints[::-1]) is face
        for v in poly.support:
            vertex = find_face(poly, [v, v])
            assert vertex is find_face(poly, [v])
            if v in poly.hull_vertices:
                assert vertex.dim == 0 and vertex.endpoints == (v,)
            else:
                assert vertex is None
        edges = {frozenset(face.endpoints) for face in poly.faces if face.dim == 1}
        for a, b in itertools.combinations(poly.support, 2):
            if frozenset((a, b)) not in edges:
                assert find_face(poly, [a, b]) is None
                assert find_face(poly, [b, a]) is None


def test_cone_separation_invariant():
    rng = random.Random(5)
    for _ in range(50):
        poly = build_polygon(point_sum(random_point_set(rng, max_size=8)))
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
        poly = build_polygon(point_sum(random_point_set(rng, max_size=8)))
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
    sums = [point_sum(_large_grid_draw(rng, shape)) for shape in shapes]
    with deadline(2):
        polys = [build_polygon(f) for f in sums]
    seen = set()
    for f, poly in zip(sums, polys):
        assert _fields(poly) == _fields(reference_polygon(support(f))), f
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
        poly = build_polygon(point_sum(random_point_set(rng, max_size=8)))
        sel = faces_for_x_to_zero(poly)
        for num in range(-12, 13):
            r = F(num, 3)
            holders = [f for f in sel if f.admits(r)]
            assert len(holders) == 1, (poly.support, r)


def test_svg_deterministic_and_structured():
    poly = main_polygon()
    one = render_svg(poly)
    two = render_svg(build_polygon(parse_equation(EQ_MAIN, ["a3", "a4"])))
    assert one == two
    assert one.startswith("<svg ")
    assert one.rstrip().endswith("</svg>")
    assert one.count("<circle") == 6
    assert "polygon points=" in one
    assert "r=0" in one


def test_svg_degenerate():
    svg = render_svg(build_polygon(parse_equation("x*y")))
    assert svg.count("<circle") == 1
    assert "polygon" not in svg.replace("svg", "")
