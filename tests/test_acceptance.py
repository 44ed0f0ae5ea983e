"""End-to-end acceptance checks, one test per shipped guarantee.

Every comparison is exact (Fraction or symbolic equality); there are no
numeric tolerances anywhere.  Each test prints a single PASS line when it
succeeds, so `pytest -s` gives a one-line-per-guarantee report.
"""

import json
import random
from fractions import Fraction

import jsonschema

from oracles import (
    brute_force_hull,
    dense_difference_solve,
    random_edge_equation,
    point_sum,
    random_linear_part,
    random_point_set,
    support,
)
from qdulac.algebra import ParamPoly, TPoly
from qdulac.cli import (
    EXIT_OK,
    EXPAND_SCHEMA,
    POLYGON_SCHEMA,
    TRUNCATE_SCHEMA,
    VERIFY_SCHEMA,
    main,
)
from qdulac.errors import IrrationalQPowerError
from qdulac.expand import (
    LinearPart,
    apply_difference_operator,
    constant_namer,
    degree_bound,
    expand_solution,
    extract_linear_part,
    solve_poly_difference,
    verify_residual,
)
from qdulac.parser import parse_equation, parse_param_expr
from qdulac.polygon import build_polygon, faces_for_x_to_zero, find_face
from qdulac.qexpr import substitute_shift
from qdulac.truncate import analyze_face, verify_truncated

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)

EQ_SHIFTED = (
    "-a3*x*y^3 + 4*a3*x*y^2 - 5*a3*x*y + 2*a3*x"
    " - a4*x^2*y^3 + 2*a4*x^2*y^2 - a4*x^2*y"
    " + S^2(y)*y^2 - y^2 - (3/2)*S(y)^2*y + 3*S(y)*y - 3*S^2(y)*y"
    " + (3/2)*y + 2*S(y)^2 - 4*S(y) + 2*S^2(y)"
)

PARAMS = ["a3", "a4"]


def main_equation():
    return parse_equation(EQ_MAIN, PARAMS)


def left_edge_solution(f, q):
    polygon = build_polygon(f)
    edge = find_face(polygon, ((F(0), F(2)), (F(0), F(3))))
    (ts,) = analyze_face(f, edge, q).candidates
    return ts


def test_criterion_1_logarithmic_expansion_exact():
    f = main_equation()
    q = F(1, 2)
    result = expand_solution(f, left_edge_solution(f, q), 1)
    series = result.series
    assert series.q == q
    assert series.base_shift == (ParamPoly.const(-1), F(0))
    assert series.terms == ((F(1), TPoly([ParamPoly.symbol("C1"), 2 * ParamPoly.symbol("a3")])),)
    assert result.constants_introduced == (("C1", F(1)),)
    assert result.log_free is False
    print("ACCEPTANCE 1 PASS: q=1/2 expansion equals -1 + (2*a3*t + C1)*x exactly")


def test_criterion_2_log_free_expansion_exact():
    f = main_equation()
    q = F(1, 4)
    result = expand_solution(f, left_edge_solution(f, q), 1)
    beta_half = result.series.coefficient(F(1, 2))
    beta_one = result.series.coefficient(F(1))
    assert beta_half == TPoly([ParamPoly.symbol("C1")])
    expected_one = parse_param_expr("-16/5*a3 - 2/5*C1^2", ["a3", "C1"])
    assert beta_one == TPoly([expected_one])
    deep = expand_solution(f, left_edge_solution(f, q), 3)
    assert deep.log_free is True
    assert all(beta.degree() == 0 for _, beta in deep.series.terms)
    print(
        "ACCEPTANCE 2 PASS: q=1/4 gives beta_1/2=C1, beta_1=-16/5*a3-2/5*C1^2,"
        " log-free through k_max=3"
    )


def test_criterion_3_intermediate_objects_exact():
    f = main_equation()
    shifted = substitute_shift(f, -1, 0, F(1, 2))
    assert shifted.terms == parse_equation(EQ_SHIFTED, PARAMS).terms
    assert set(shifted.terms) == set(parse_equation(EQ_SHIFTED, PARAMS).terms)

    L, _ = extract_linear_part(shifted)
    assert L.coeffs == (F(3, 2), F(-4), F(2))

    polygon = build_polygon(f)
    edge = find_face(polygon, ((F(0), F(2)), (F(0), F(3))))
    candidates = analyze_face(f, edge, F(1, 2)).candidates
    assert [(ts.c, ts.r) for ts in candidates] == [(ParamPoly.const(-1), F(0))]

    for q, crits, half_steps in ((F(1, 2), [F(1)], 1), (F(1, 4), [F(1, 2)], 2)):
        result = expand_solution(f, left_edge_solution(f, q), 5)
        assert [k for k, _, _ in result.critical_report] == crits
        assert result.skipped_irrational == (F(3, 2),)
        expected_k = tuple(F(n, half_steps) for n in range(1, 5 * half_steps + 1))
        assert result.k_set == expected_k
    print(
        "ACCEPTANCE 3 PASS: shifted equation, linear part (3/2,-4,2), root -1,"
        " criticals {1}/{1/2} (3/2 irrational), K sets through 5 all exact"
    )


def test_criterion_4_residual_vanishes_to_order():
    f = main_equation()
    assignment = {"a3": 1, "a4": 1, "C1": 1}
    for q in (F(1, 2), F(1, 4)):
        for n in (1, 2, 3):
            result = expand_solution(f, left_edge_solution(f, q), n)
            tail = verify_residual(f, result, assignment, n + 3)
            assert tail is None or tail > n, (q, n, tail)
    print(
        "ACCEPTANCE 4 PASS: order-N residual exponent > N for N in {1,2,3},"
        " both q values, a3=a4=C1=1"
    )


def test_criterion_5_solver_matches_dense_oracle():
    rng = random.Random(51423)
    for _ in range(200):
        q = rng.choice([F(1, 2), F(1, 4), F(2, 3)])
        k = F(rng.randint(-2, 4))
        coeffs, mu = random_linear_part(rng, q, k)
        L = LinearPart(tuple(coeffs))
        theta_coeffs = [F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        theta = TPoly(theta_coeffs)
        beta, names = solve_poly_difference(L, q, k, theta, constant_namer(set()))
        assert (apply_difference_operator(L, q, k, beta) + theta).is_zero()
        assert len(names) == mu
        binding = {name: F(rng.randint(-3, 3)) for name in names}
        bound = beta.evaluate_coeffs(binding)
        dense = TPoly(dense_difference_solve(coeffs, q, k, theta_coeffs, mu))
        diff = bound + TPoly([-c for c in dense.coeffs])
        assert diff.is_zero() or diff.degree() < mu
    print(
        "ACCEPTANCE 5 PASS: 200 random solver instances satisfy the difference"
        " equation exactly and match the dense solve up to kernel"
    )


def test_criterion_6_log_degree_bound():
    f = main_equation()
    q = F(1, 2)
    result = expand_solution(f, left_edge_solution(f, q), 5)
    assert min(result.k_set) == F(1)
    for k, beta in result.series.terms:
        assert beta.degree() <= 2 * k, (k, beta.degree())
    assert degree_bound(result) is True
    print("ACCEPTANCE 6 PASS: deg beta_k <= 2k for every term through k_max=5")


def test_criterion_7_hull_matches_brute_force():
    rng = random.Random(31415)
    for _ in range(500):
        f = point_sum(random_point_set(rng))
        ours = list(build_polygon(f).hull_vertices)
        assert ours == brute_force_hull(support(f)), f
    hull = build_polygon(main_equation()).hull_vertices
    assert set(hull) == {(0, 2), (0, 3), (2, 3), (2, 2)}
    print(
        "ACCEPTANCE 7 PASS: hull agrees with brute force on 500 random sets;"
        " main hull vertices {(0,2),(0,3),(2,3),(2,2)}"
    )


def test_criterion_8_truncated_solutions_vanish():
    f = main_equation()
    polygon = build_polygon(f)
    emitted = 0
    for q in (F(1, 2), F(1, 4)):
        for face in faces_for_x_to_zero(polygon):
            for ts in analyze_face(f, face, q).candidates:
                assert verify_truncated(ts, f)
                emitted += 1
    assert emitted > 0

    rng = random.Random(2718)
    for _ in range(50):
        eq, q, c, r, endpoints = random_edge_equation(rng)
        poly = build_polygon(eq)
        planted_face = find_face(poly, endpoints)
        planted = analyze_face(eq, planted_face, q).candidates
        assert (ParamPoly.const(c), r) in [(ts.c, ts.r) for ts in planted]
        for face in faces_for_x_to_zero(poly):
            try:
                analysis = analyze_face(eq, face, q)
            except IrrationalQPowerError:
                continue
            for ts in analysis.candidates:
                assert verify_truncated(ts, eq)
                emitted += 1
    assert emitted >= 50
    print(
        "ACCEPTANCE 8 PASS: every emitted truncated solution zeroes its face"
        " sum (main equation + 50 planted equations)"
    )


def test_criterion_9_cli_contract(tmp_path, capsys):
    path = tmp_path / "main.qde"
    path.write_text(EQ_MAIN + " = 0\n", encoding="utf-8")
    base = ["--eq", str(path), "--params", "a3,a4"]

    def run_json(argv, schema):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == EXIT_OK
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        return doc

    run_json(["polygon", *base, "--format", "json"], POLYGON_SCHEMA)
    run_json(["truncate", *base, "--q", "1/2", "--format", "json"], TRUNCATE_SCHEMA)
    run_json(
        ["expand", *base, "--q", "1/4", "--kmax", "2", "--format", "json"],
        EXPAND_SCHEMA,
    )
    run_json(
        [
            "verify",
            *base,
            "--q",
            "1/2",
            "--kmax",
            "2",
            "--assign",
            "a3=1,a4=1,C1=1",
            "--format",
            "json",
        ],
        VERIFY_SCHEMA,
    )

    f = main_equation()
    printed = str(f)
    again = parse_equation(printed, PARAMS)
    assert again.terms == f.terms
    assert str(again) == printed

    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    for target in (first, second):
        assert main(["plot", *base, "--svg", str(target)]) == EXIT_OK
        capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    print(
        "ACCEPTANCE 9 PASS: JSON validates against schemas, parse/print"
        " fixpoint holds, plot output byte-identical"
    )
