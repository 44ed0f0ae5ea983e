import random
from fractions import Fraction

import pytest

from oracles import random_edge_equation, y_degree
from qdulac.algebra import ParamPoly, TPoly
from qdulac.cli import main
from qdulac.errors import (
    InconsistentEdgeError,
    InvalidQError,
    NotAVertexError,
    ResourceLimitError,
    TruncatedSolutionError,
)
from qdulac.parser import parse_equation
from qdulac.polygon import Face, build_polygon, faces_for_x_to_zero, find_face
from qdulac.qexpr import QPolynomial
from qdulac.truncate import (
    TruncatedSolution,
    analyze_face,
    determining_poly,
    truncated_sum,
    verify_truncated,
    vertex_char_poly,
)

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)


def setup_main():
    f = parse_equation(EQ_MAIN, ["a3", "a4"])
    poly = build_polygon(f)
    return f, poly


def test_truncated_sum_left_edge():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    g = truncated_sum(f, left)
    assert g.terms == parse_equation(
        "S^2(y)*y^2 - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
    ).terms


def test_truncated_sum_vertex():
    f, poly = setup_main()
    v = find_face(poly, [(0, 2)])
    g = truncated_sum(f, v)
    assert g.terms == parse_equation("-S^2(y)*y + (1/2)*S(y)^2").terms


def test_truncated_sum_whole_support_face():
    f, poly = setup_main()
    whole = Face(
        dim=1,
        points=poly.support,
        endpoints=((F(0), F(2)), (F(2), F(3))),
        r=None,
        r_range=None,
    )
    assert truncated_sum(f, whole).terms == f.terms


def test_vertex_char_poly_main_vertex():
    f, poly = setup_main()
    v = find_face(poly, [(0, 2)])
    chi = vertex_char_poly(truncated_sum(f, v))
    assert chi == TPoly([0, 0, F(-1, 2)])


def test_vertex_char_poly_single_monomial():
    chi = vertex_char_poly(parse_equation("x*y^2"))
    assert chi == TPoly([1])


def test_vertex_char_poly_shift_example():
    chi = vertex_char_poly(parse_equation("S(y)*y - 2*y^2"))
    assert chi == TPoly([-2, 1])


def test_vertex_char_poly_rejects_mixed_points():
    with pytest.raises(NotAVertexError):
        vertex_char_poly(parse_equation("y + x*y"))


def test_determining_poly_left_edge():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    g = truncated_sum(f, left)
    det = determining_poly(g, 0, F(1, 2))
    assert det == TPoly([0, 0, F(-1, 2), F(-1, 2)])
    # identical for any valid q because r = 0
    assert determining_poly(g, 0, F(7, 5)) == det


def test_determining_poly_wrong_r():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    with pytest.raises(InconsistentEdgeError):
        determining_poly(truncated_sum(f, left), 1, F(1, 2))


def test_determining_poly_parameter_coefficients():
    g = parse_equation("a3*x*y^2 + x*y^2", ["a3"])
    det = determining_poly(g, F(-1, 3), F(1, 2))
    assert det.coeffs[2] == ParamPoly.symbol("a3") + 1


def test_verify_truncated_examples():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    good = TruncatedSolution(ParamPoly.const(-1), F(0), F(1, 2), left, "edge-root")
    assert verify_truncated(good, f)
    bad = TruncatedSolution(ParamPoly.const(1), F(0), F(1, 2), left, "user-supplied")
    assert not verify_truncated(bad, f)
    assert verify_truncated(good, QPolynomial())


def test_truncated_solution_refuses_zero_c():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    with pytest.raises(TruncatedSolutionError):
        TruncatedSolution(ParamPoly.zero(), F(0), F(1, 2), left, "edge-root")


def test_truncated_solution_checks_q():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    ts = TruncatedSolution(ParamPoly.const(-1), F(0), 4, left, "edge-root")
    assert ts.q == F(4) and type(ts.q) is Fraction
    for q in (1, F(1), 0, F(-1, 2)):
        with pytest.raises(InvalidQError):
            TruncatedSolution(ParamPoly.const(-1), F(0), q, left, "edge-root")
    with pytest.raises(TypeError):
        TruncatedSolution(ParamPoly.const(-1), F(0), 0.5, left, "edge-root")


def test_analyze_face_candidates_carry_q():
    f, poly = setup_main()
    for q in (F(1, 2), F(1, 4), F(3)):
        candidates = [
            ts
            for face in faces_for_x_to_zero(poly)
            for ts in analyze_face(f, face, q).candidates
        ]
        assert candidates and all(ts.q == q for ts in candidates)


def test_analyze_left_edge():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    analysis = analyze_face(f, left, F(1, 2))
    assert analysis.variable == "c"
    assert analysis.poly == TPoly([0, 0, F(-1, 2), F(-1, 2)])
    assert analysis.roots == ((F(-1), 1), (F(0), 2))
    assert len(analysis.candidates) == 1
    ts = analysis.candidates[0]
    assert ts.c == ParamPoly.const(-1)
    assert ts.r == 0
    assert ts.provenance == "edge-root"
    assert any("c=0 discarded" in d for d in analysis.diagnostics)


@pytest.mark.parametrize("params, free", [(["c"], "c1"), (["c", "c1"], "c2")])
def test_free_c_avoids_parameter_names(params, free):
    # vertex (0,1) at q = 4: chi(w) = w - 2, so r = 1/2 with c free
    f = parse_equation(f"({' + '.join(params)})*x*y^2 + S(y) - 2*y + x", params)
    vertex = find_face(build_polygon(f), [(0, 1)])
    (ts,) = analyze_face(f, vertex, F(4)).candidates
    assert (ts.c, ts.r, ts.provenance) == (ParamPoly.symbol(free), F(1, 2), "vertex-root")


def test_analyze_vertex_no_admissible_roots():
    f, poly = setup_main()
    v = find_face(poly, [(0, 2)])
    analysis = analyze_face(f, v, F(1, 2))
    assert analysis.variable == "w"
    assert analysis.candidates == ()
    assert any("w=0 excluded" in d for d in analysis.diagnostics)


def test_analyze_vertex_with_free_coefficient():
    f = parse_equation("S(y)*y - 2*y^2 + x*y^3")
    poly = build_polygon(f)
    v = find_face(poly, [(0, 2)])
    analysis = analyze_face(f, v, F(1, 4))
    assert analysis.poly == TPoly([-2, 1])
    assert len(analysis.candidates) == 1
    ts = analysis.candidates[0]
    assert ts.r == F(-1, 2)
    assert ts.c == ParamPoly.symbol("c")
    assert ts.provenance == "vertex-root"


def test_analyze_vertex_irrational_log_skipped():
    f = parse_equation("S(y)*y - 2*y^2 + x*y^3")
    poly = build_polygon(f)
    v = find_face(poly, [(0, 2)])
    analysis = analyze_face(f, v, F(1, 3))
    assert analysis.candidates == ()
    assert any("non-rational exponent" in d for d in analysis.diagnostics)


def test_analyze_vertex_root_outside_cone():
    f = parse_equation("S(y)*y - 2*y^2 + x*y^3")
    poly = build_polygon(f)
    v = find_face(poly, [(0, 2)])
    # q = 1/2 puts r = -1 exactly on the adjacent edge, outside the cone
    analysis = analyze_face(f, v, F(1, 2))
    assert analysis.candidates == ()
    assert any("outside" in d for d in analysis.diagnostics)


@pytest.mark.parametrize(
    "eq, params, vertex, r, expected, note",
    [
        # a supplied r equal to a root adds no second candidate
        ("S(y) - 4*y + x", [], (0, 1), -2, [(-2, "vertex-root")], None),
        ("S(y) - 4*y + x", [], (0, 1), 0, [(-2, "vertex-root")], "does not solve"),
        ("S(y) - a*y + x", ["a"], (0, 1), -2, [], "does not solve"),
        ("y*S^2(y) - S(y)^2 + x", [], (0, 2), -1, [(-1, "user-supplied")], None),
        # (1/2)^(1/2) is irrational: the proposal is noted, the root kept
        ("S(y) - 4*y + x", [], (0, 1), F(1, 2), [(-2, "vertex-root")],
         "y = (c)*x^1/2 cannot be checked (irrational q-power: (1/2)^(1/2)) on face (0,1)"),
    ],
    ids=["root", "extra", "parameter_chi", "zero_chi", "irrational"],
)
def test_analyze_vertex_r_override(eq, params, vertex, r, expected, note):
    f = parse_equation(eq, params)
    poly = build_polygon(f)
    analysis = analyze_face(f, find_face(poly, [vertex]), F(1, 2), None, r)
    assert [(ts.r, ts.provenance) for ts in analysis.candidates] == expected
    notes = [d for d in analysis.diagnostics if d.startswith("y = ")]
    assert [note in d for d in notes] == ([] if note is None else [True])


def test_analyze_edge_user_supplied_c():
    f, poly = setup_main()
    left = find_face(poly, [(0, 2), (0, 3)])
    analysis = analyze_face(f, left, F(1, 2), c_override=ParamPoly.const(-1))
    assert len(analysis.candidates) == 1
    assert analysis.candidates[0].c == ParamPoly.const(-1)
    bad = analyze_face(f, left, F(1, 2), c_override=ParamPoly.const(3))
    assert len(bad.candidates) == 1  # the enumerated root -1 still stands
    assert all(ts.c != ParamPoly.const(3) for ts in bad.candidates)
    assert any("does not solve" in d for d in bad.diagnostics)


def test_analyze_edge_needs_c():
    f = parse_equation("a3*y^2 + a3*y", ["a3"])
    poly = build_polygon(f)
    edge = find_face(poly, [(0, 1), (0, 2)])
    analysis = analyze_face(f, edge, F(1, 2))
    assert analysis.candidates == ()
    assert any("needs --c" in d for d in analysis.diagnostics)
    with_c = analyze_face(
        f, edge, F(1, 2), c_override=ParamPoly.const(-1)
    )
    assert len(with_c.candidates) == 1
    assert with_c.candidates[0].provenance == "user-supplied"


def test_planted_edge_equations():
    rng = random.Random(20260815)
    found_planted = 0
    for _ in range(50):
        eq, q, c, r, endpoints = random_edge_equation(rng)
        poly = build_polygon(eq)
        face = find_face(poly, endpoints)
        assert face is not None and face.dim == 1
        assert face.r == r
        analysis = analyze_face(eq, face, q)
        for ts in analysis.candidates:
            assert ts.q == q
            assert verify_truncated(ts, eq)
        if any(
            ts.c == ParamPoly.const(c) and ts.r == r
            for ts in analysis.candidates
        ):
            found_planted += 1
    assert found_planted == 50


def test_truncation_attains_minimal_exponent():
    # along any admissible direction, the truncated terms sit strictly
    # below all others: e(term) = x_exp + r*deg is minimal exactly on the face
    rng = random.Random(9)
    cases = [parse_equation(EQ_MAIN, ["a3", "a4"])]
    for _ in range(20):
        cases.append(random_edge_equation(rng)[0])
    for f in cases:
        poly = build_polygon(f)
        for face in faces_for_x_to_zero(poly):
            if face.dim == 1:
                probes = [face.r]
            else:
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
                values = {}
                for term in f.terms:
                    e = term.x_exp + r * y_degree(term)
                    values.setdefault(e, set()).add((term.x_exp, y_degree(term)))
                low = min(values)
                on_face = set(face.points)
                assert values[low] <= on_face
                for e, pts in values.items():
                    if e != low:
                        assert not (pts & on_face)


def test_face_polynomials_keep_only_their_terms(deadline):
    # a face polynomial has no more terms than its face, whatever its degree
    with deadline(1):
        lacunary = parse_equation("y^1000000000 - x")
        shifted = parse_equation("S^100000(y) - 2*y + x")
        assert vertex_char_poly(parse_equation("S^100000(y) - 2*y")) == TPoly({100000: 1, 0: -2})
        assert vertex_char_poly(parse_equation("S^1000000000(y) - 2*y")) == TPoly(
            {10**9: 1, 0: -2}
        )
        assert vertex_char_poly(parse_equation("y^1000000000")) == TPoly([1])
        assert determining_poly(lacunary, F(1, 10**9), F(1, 2)) == TPoly({10**9: 1, 0: -1})
        assert determining_poly(shifted, 1, F(1, 2)) == TPoly({1: F(1, 2**100000) - 2, 0: 1})
        edge = find_face(build_polygon(lacunary), [(0, 10**9), (1, 0)])
        analysis = analyze_face(lacunary, edge, F(1, 2))
        assert analysis.roots == ((F(-1), 1), (F(1), 1))
        assert [(ts.c, ts.r) for ts in analysis.candidates] == [
            (ParamPoly.const(c), F(1, 10**9)) for c in (-1, 1)
        ]


def test_lacunary_trinomial_edge_is_never_made_dense(deadline):
    # Delta(c) = (c^500000000 - 1)^2 has its degrees on the lattice
    # 500000000*Z: its roots are those of (u - 1)^2 at u = c^500000000
    with deadline(1):
        f = parse_equation("y^1000000000 - 2*x^500000000*y^500000000 + x^1000000000")
        edge = find_face(build_polygon(f), [(0, 10**9), (10**9, 0)])
        analysis = analyze_face(f, edge, F(1, 2))
        assert analysis.roots == ((F(-1), 2), (F(1), 2))
        assert [(ts.c, ts.r) for ts in analysis.candidates] == [
            (ParamPoly.const(c), F(1)) for c in (-1, 1)
        ]


@pytest.mark.parametrize(
    "text, q, var",
    [
        ("S^2000000000(y)^2 - y + x", "1/2", "w"),  # chi(w) = w^(4*10^9) on (0,2)
        ("S(y)^2000000000*y^2000000000 - x", "1/4", "c"),  # c^(4*10^9)/2 - 1
    ],
)
def test_face_polynomial_degree_limit(tmp_path, capsys, deadline, text, q, var):
    # the degree of chi(w) or of the determining polynomial in c reaches
    # 2^31 although no power of y or shift level does
    path = tmp_path / "eq.qde"
    path.write_text(text + "\n", encoding="utf-8")
    with deadline(1):
        code = main(["truncate", "--eq", str(path), "--q", q])
    assert code == ResourceLimitError.exit_code == 3
    assert capsys.readouterr().err == f"error: exponent of {var} reaches 2^31\n"
