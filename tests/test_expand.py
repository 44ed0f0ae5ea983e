import math
import random
from fractions import Fraction

import pytest

from oracles import (
    dense_difference_solve,
    monomial_sum,
    random_edge_equation,
    random_k_lattice_input,
    random_linear_part,
    reference_expansion,
    reference_k_lattice,
    reference_solve,
    support,
    verified_solution,
)
from qdulac import expand as expand_module
from qdulac.algebra import ParamPoly, TPoly, q_pow
from qdulac.errors import (
    ExponentOrderError,
    IrrationalQPowerError,
    LinearCoefficientError,
    LinearVertexError,
    QDulacError,
)
from qdulac.expand import (
    LinearPart,
    apply_difference_operator,
    check_exponent_order,
    constant_namer,
    critical_numbers,
    degree_bound,
    expand_solution,
    extract_linear_part,
    k_lattice,
    solve_poly_difference,
    verify_residual,
)
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, faces_for_x_to_zero, find_face
from qdulac.qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    substitute_shift,
)
from qdulac.truncate import TruncatedSolution, analyze_face

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

L_MAIN = LinearPart((F(3, 2), F(-4), F(2)))


def main_eq():
    return parse_equation(EQ_MAIN, ["a3", "a4"])


def main_ts(q=F(1, 2)):
    f = main_eq()
    polygon = build_polygon(f)
    edge = next(
        face
        for face in faces_for_x_to_zero(polygon)
        if face.dim == 1 and face.r == 0
    )
    return f, verified_solution(f, edge, -1, 0, q)


def a3():
    return ParamPoly.symbol("a3")


# -- extract_linear_part


def test_extract_linear_part_shifted_equation():
    ft = parse_equation(EQ_SHIFTED, ["a3", "a4"])
    L, h = extract_linear_part(ft)
    assert L.coeffs == (F(3, 2), F(-4), F(2))
    assert L.order == 2
    assert len(h.terms) == 13
    assert (F(0), F(1)) not in build_polygon(h).support
    at_01 = [t for t in ft.terms if build_polygon(QPolynomial([t])).support == ((0, 1),)]
    assert (h + QPolynomial(at_01)).terms == ft.terms


def test_extract_linear_part_matches_substitution():
    f = main_eq()
    ft = substitute_shift(f, -1, 0, F(1, 2))
    L, _ = extract_linear_part(ft)
    assert L.coeffs == (F(3, 2), F(-4), F(2))


def test_extract_trivial():
    L, h = extract_linear_part(parse_equation("y - x"))
    assert L.coeffs == (F(1),)
    assert h.terms == parse_equation("-x").terms


def test_extract_no_linear_point():
    with pytest.raises(LinearVertexError):
        extract_linear_part(parse_equation("x*y + x^2"))


def test_extract_linear_point_not_vertex():
    # (0,1) sits inside the vertical hull edge from (0,0) to (0,2)
    with pytest.raises(LinearVertexError):
        extract_linear_part(parse_equation("1 + y + y^2"))


def test_extract_parameter_coefficient():
    with pytest.raises(LinearCoefficientError):
        extract_linear_part(parse_equation("a3*y + x", ["a3"]))


def test_extract_names_the_lowest_nonconstant_level():
    f = parse_equation("a4*S^2(y) + y + a3*S(y) + x", ["a3", "a4"])
    with pytest.raises(LinearCoefficientError, match=r"constant: a3$"):
        extract_linear_part(f)


def test_extract_zero_equation():
    with pytest.raises(LinearVertexError):
        extract_linear_part(QPolynomial())


def test_linear_part_trims_and_rejects_zero():
    assert LinearPart((F(1), F(0))).coeffs == (F(1),)
    assert LinearPart((0, 1, 0)).order == 1
    with pytest.raises(ValueError):
        LinearPart((0,))


# -- nu and critical numbers


def nu(L, q, k):
    """nu(k) = sum_j a_j q^{jk}: L(q^k T) applied to the constant 1."""
    value = apply_difference_operator(L, q, k, TPoly.const(1))
    return (value.coeffs or (ParamPoly.zero(),))[0].constant_value()


def test_nu_examples():
    assert nu(L_MAIN, F(1, 2), 1) == 0
    assert nu(L_MAIN, F(1, 4), 1) == F(5, 8)
    assert nu(L_MAIN, F(1, 4), 0) == F(3, 2) - 4 + 2
    assert nu(LinearPart((1, 1, 1)), F(7, 3), 0) == 3


def test_nu_is_symbol_value():
    rng = random.Random(20260815)
    for _ in range(100):
        coeffs = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        if all(c == 0 for c in coeffs):
            coeffs[0] = F(1)
        L = LinearPart(tuple(coeffs))
        q = rng.choice([F(1, 2), F(1, 4), F(2, 3), F(3)])
        k = F(rng.randint(-3, 3))
        w = q_pow(q, k)
        horner = F(0)
        for a in reversed(L.coeffs):
            horner = horner * w + a
        assert nu(L, q, k) == horner


def test_critical_numbers_case1():
    data = critical_numbers(L_MAIN, F(1, 2), 0)
    assert data.eigen_rational == ((F(1), 1),)
    assert data.criticals() == ((F(1), 1),)
    assert data.skipped_irrational == (F(3, 2),)
    assert data.unresolved == 0


def test_critical_numbers_case2():
    data = critical_numbers(L_MAIN, F(1, 4), 0)
    assert data.criticals() == ((F(1, 2), 1),)
    assert data.skipped_irrational == (F(3, 2),)


def test_critical_numbers_double_root():
    L = LinearPart((1, -2, 1))
    data = critical_numbers(L, F(1, 2), 0)
    assert data.eigen_rational == ((F(0), 2),)
    assert data.criticals() == ()
    assert critical_numbers(L, F(1, 2), -1).criticals() == ((F(0), 2),)


def test_critical_numbers_negative_and_unresolved():
    data = critical_numbers(LinearPart((1, 1)), F(1, 2), 0)
    assert data.eigen_rational == ()
    assert data.skipped_irrational == (F(-1),)
    data = critical_numbers(LinearPart((1, 0, 0, 1)), F(1, 2), 0)
    assert data.skipped_irrational == (F(-1),)
    assert data.unresolved == 2


# -- k_lattice


def shifted_h():
    ft = parse_equation(EQ_SHIFTED, ["a3", "a4"])
    _, h = extract_linear_part(ft)
    return h


def test_k_lattice_integer_case():
    ks = k_lattice(shifted_h(), [F(1)], 0, 5)
    assert ks == [F(1), F(2), F(3), F(4), F(5)]


def test_k_lattice_half_integer_case():
    ks = k_lattice(shifted_h(), [F(1, 2)], 0, 3)
    assert ks == [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(3)]


def test_k_lattice_no_seeds():
    assert k_lattice(parse_equation("x*y^2"), [], 0, 5) == []


def test_k_lattice_matches_reference_enumerator():
    rng = random.Random(2024)
    raised = 0
    for _ in range(3000):
        points, *rest = random_k_lattice_input(rng)
        h = monomial_sum(points)
        assert support(h) == set(points)
        try:
            expected = reference_k_lattice(support(h), *rest)
        except TypeError:
            with pytest.raises(TypeError):
                k_lattice(h, *rest)
            raised += 1
            continue
        assert k_lattice(h, *rest) == expected, (points, *rest)
    assert raised


def test_k_lattice_quintic_matches_reference_enumerator():
    # the quintic on its edge (0,1)-(1,0): y = 2/3 x + z, no critical numbers
    f = parse_equation("S(y) - 2*y + x + x*y^5 + x*y^4 + x*y^3")
    ft = substitute_shift(f, ParamPoly.const(F(2, 3)), F(1), F(1, 2))
    _, h = extract_linear_part(ft.shift_x(-ft.min_x_exponent()))
    for k_max in (5, 20):
        ks = k_lattice(h, [], 1, k_max)
        assert ks == reference_k_lattice(support(h), [], 1, k_max)
        assert ks == [F(k) for k in range(4, k_max + 1)]


def test_k_lattice_closure_property():
    rng = random.Random(7)
    for _ in range(40):
        r = F(rng.randint(-2, 2), rng.choice([1, 2]))
        k_max = r + F(rng.randint(2, 12), 2)
        points = set()
        for _ in range(rng.randint(1, 5)):
            q2 = rng.randint(0, 3)
            lo = r - r * q2 if q2 >= 2 else r - r * q2 + F(1, 2)
            q1 = lo + F(rng.randint(0, 6), 2)
            points.add((q1, F(q2)))
        crits = {r + F(rng.randint(1, 6), 2) for _ in range(rng.randint(0, 2))}
        ks = k_lattice(monomial_sum(points), sorted(crits), r, k_max)
        assert ks == sorted(ks)
        assert all(r < k <= k_max for k in ks)
        # closed under one more generation round
        pool = set(ks) | {k for k in crits if k <= k_max}
        pool |= {q1 for q1, q2 in points if q2 == 0 and q1 <= k_max}
        import itertools

        for q1, q2 in points:
            d = int(q2)
            if d == 0:
                if r < q1 <= k_max:
                    assert q1 in ks
                continue
            for combo in itertools.combinations_with_replacement(sorted(pool), d):
                k = q1 + sum(combo)
                if r < k <= k_max:
                    assert k in ks, (q1, q2, combo)


# -- solve_poly_difference


def test_solve_case1_log_term():
    namer = constant_namer({"a3", "a4"})
    theta = TPoly.const(a3() * 2)
    beta, names = solve_poly_difference(L_MAIN, F(1, 2), 1, theta, namer)
    assert names == ["C1"]
    assert beta == TPoly([ParamPoly.symbol("C1"), a3() * 2])


def test_solve_case2_free_constant():
    namer = constant_namer(set())
    beta, names = solve_poly_difference(L_MAIN, F(1, 4), F(1, 2), TPoly.zero(), namer)
    assert names == ["C1"]
    assert beta == TPoly([ParamPoly.symbol("C1")])


def test_solve_case2_forced_constant():
    namer = constant_namer({"a3", "C1"})
    c1 = ParamPoly.symbol("C1")
    theta = TPoly.const(a3() * 2 + c1 * c1 * F(1, 4))
    beta, names = solve_poly_difference(L_MAIN, F(1, 4), 1, theta, namer)
    assert names == []
    assert beta == TPoly.const(a3() * F(-16, 5) + c1 * c1 * F(-2, 5))


def test_solve_trivial_zero():
    namer = constant_namer(set())
    beta, names = solve_poly_difference(L_MAIN, F(1, 4), 1, TPoly.zero(), namer)
    assert beta.is_zero() and names == []


def test_solve_double_root_kernel():
    L = LinearPart((1, -2, 1))
    namer = constant_namer(set())
    beta, names = solve_poly_difference(L, F(1, 2), 0, TPoly.zero(), namer)
    assert names == ["C1", "C2"]
    assert beta == TPoly([ParamPoly.symbol("C1"), ParamPoly.symbol("C2")])
    beta, names = solve_poly_difference(L, F(1, 2), 0, TPoly.const(1), namer)
    assert names == ["C3", "C4"]
    # m_2 = 2, particular -t^2/2, fresh constants on top
    assert beta.coeffs[2] == ParamPoly.const(F(-1, 2))
    assert beta.coeffs[1] == ParamPoly.symbol("C4")
    check = apply_difference_operator(L, F(1, 2), 0, beta) + TPoly.const(1)
    assert check.is_zero()


def test_solve_verbatim_identity_random():
    rng = random.Random(99)
    for _ in range(60):
        q = rng.choice([F(1, 2), F(1, 4), F(2, 3)])
        k = F(rng.randint(-2, 4))
        coeffs, mu = random_linear_part(rng, q, k)
        L = LinearPart(tuple(coeffs))
        theta = TPoly(
            [F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 5))]
        )
        namer = constant_namer(set())
        beta, names = solve_poly_difference(L, q, k, theta, namer)
        assert len(names) == mu
        assert (apply_difference_operator(L, q, k, beta) + theta).is_zero()


def test_moment_criterion():
    rng = random.Random(4242)
    for _ in range(120):
        q = rng.choice([F(1, 2), F(1, 4), F(2, 3), F(5, 2)])
        k = F(rng.randint(-2, 3))
        coeffs, mu = random_linear_part(rng, q, k)
        L = LinearPart(tuple(coeffs))
        w = q_pow(q, k)
        assert L.root_multiplicity(w) == mu
        moments = [
            sum((a * F(j) ** i * w**j for j, a in enumerate(L.coeffs)), F(0))
            for i in range(mu + 1)
        ]
        assert all(m == 0 for m in moments[:mu])
        assert moments[mu] != 0


def test_solver_matches_dense_oracle():
    rng = random.Random(20260815)
    for _ in range(60):
        q = rng.choice([F(1, 2), F(1, 4), F(2, 3)])
        k = F(rng.randint(-2, 4))
        coeffs, mu = random_linear_part(rng, q, k)
        L = LinearPart(tuple(coeffs))
        theta_coeffs = [F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 5))]
        theta = TPoly(theta_coeffs)
        namer = constant_namer(set())
        beta, names = solve_poly_difference(L, q, k, theta, namer)
        zeroed = beta.evaluate_coeffs({name: 0 for name in names})
        dense = dense_difference_solve(coeffs, q, k, theta_coeffs, mu)
        assert zeroed == TPoly(dense)


def _random_param_poly(rng, dens):
    """A ParamPoly in a and b of up to four terms, denominators from dens."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = tuple((name, e) for name, e in (("a", rng.randint(0, 2)), ("b", rng.randint(0, 2))) if e)
        terms[mono] = F(rng.randint(-9, 9), rng.choice(dens))
    return ParamPoly(terms)


def test_solver_matches_reference_solve():
    """The int back-substitution against the ParamPoly one it replaced:
    equal (beta, names) for parametric thetas of degree 0-6 and theta = 0,
    with q^k a root of multiplicity 0, 1 and 2, at q = 1/2, 2/3 and 1/p
    for a 12-digit prime p."""
    rng = random.Random(2611)
    p = 999999999989
    for case in range(240):
        q = (F(1, 2), F(2, 3), F(1, p))[case % 3]
        mu = case // 3 % 3
        k = F(rng.randint(-2, 3))
        coeffs, _ = random_linear_part(rng, q, k, mu)
        L = LinearPart(tuple(coeffs))
        dens = (1, 2, 3, 7, p) if q.denominator == p else (1, 2, 3, 7)
        theta = TPoly([_random_param_poly(rng, dens) for _ in range(rng.randint(0, 7))])
        got = solve_poly_difference(L, q, k, theta, constant_namer({"a", "b"}))
        want = reference_solve(L, q, k, theta, constant_namer({"a", "b"}))
        assert got == want, (case, coeffs, str(theta))
        assert len(got[1]) == mu


def test_constant_namer_skips_taken():
    namer = constant_namer({"C1", "C3"})
    assert [namer() for _ in range(3)] == ["C2", "C4", "C5"]


# -- exponent-order check


def test_exponent_order_examples():
    h = QPolynomial([QTerm(ParamPoly.const(1), F(2), ((0, 3),))])
    check_exponent_order(h, -1)  # 2 + (-1)(3-1) = 0, q2 >= 2: allowed
    check_exponent_order(QPolynomial(), 5)
    with pytest.raises(ExponentOrderError):
        check_exponent_order(QPolynomial.constant(1), 0)  # (0,0), needs q1 > r
    with pytest.raises(ExponentOrderError):
        check_exponent_order(parse_equation("x^(1/2)"), 1)


def test_exponent_order_names_the_least_offending_point():
    # at r = 2, (0,1) and (1,0) both break the order and (3,2) keeps it;
    # (0,1) is named, though (1,0) breaks it further
    h = parse_equation("x + x^3*y^2 + y")
    with pytest.raises(ExponentOrderError) as err:
        check_exponent_order(h, 2)
    assert str(err.value) == (
        "support point (0,1) breaks the exponent ordering for r=2: q1 + r*(q2-1) = 0"
    )


def test_expand_rejects_descending_exponents():
    f = parse_equation("y + y^2 - 2 + x^-1")
    face = build_polygon(f).faces[0]
    ts = TruncatedSolution(ParamPoly.const(1), F(0), F(1, 2), face, "user-supplied")
    with pytest.raises(ExponentOrderError):
        expand_solution(f, ts, 3)


# -- expansion driver


def test_expand_case1_kmax1():
    f, ts = main_ts()
    result = expand_solution(f, ts, 1)
    assert result.linear_part.coeffs == (F(3, 2), F(-4), F(2))
    assert result.k_set == (F(1),)
    beta1 = TPoly([ParamPoly.symbol("C1"), a3() * 2])
    assert result.series.terms == ((F(1), beta1),)
    assert result.series.base_shift == (ParamPoly.const(-1), F(0))
    assert result.constants_introduced == (("C1", F(1)),)
    assert result.log_free is False
    assert result.critical_report == ((F(1), 1, False),)
    assert result.skipped_irrational == (F(3, 2),)


def test_expand_case2_kmax1():
    f, ts = main_ts(F(1, 4))
    result = expand_solution(f, ts, 1)
    c1 = ParamPoly.symbol("C1")
    assert result.k_set == (F(1, 2), F(1))
    assert result.series.terms == (
        (F(1, 2), TPoly([c1])),
        (F(1), TPoly([a3() * F(-16, 5) + c1 * c1 * F(-2, 5)])),
    )
    assert result.log_free is True
    assert result.constants_introduced == (("C1", F(1, 2)),)
    assert result.critical_report == ((F(1, 2), 1, True),)


def test_expand_case1_kmax3():
    f, ts = main_ts()
    result = expand_solution(f, ts, 3)
    assert result.k_set == (F(1), F(2), F(3))
    ks = [k for k, _ in result.series.terms]
    assert ks == [F(1), F(2), F(3)]
    for k, beta in result.series.terms:
        assert beta.degree() <= 2 * k
    assert degree_bound(result)
    assert result.log_free is False


def test_expand_case2_kmax3_log_free():
    f, ts = main_ts(F(1, 4))
    result = expand_solution(f, ts, 3)
    assert result.k_set == tuple(F(n, 2) for n in range(1, 7))
    assert result.log_free is True
    assert all(beta.degree() == 0 for _, beta in result.series.terms)


def test_expand_verbatim_difference_equations():
    f, ts = main_ts()
    q = F(1, 2)
    result = expand_solution(f, ts, 3)
    ft = substitute_shift(f, ts.c, ts.r, q)
    L = result.linear_part
    for k, beta in result.series.terms:
        below = PowerLogSeries(
            q, [(kk, bb) for kk, bb in result.series.terms if kk < k]
        )
        theta = evaluate_on_series(ft, below, k).coefficient(k)
        assert (apply_difference_operator(L, q, k, beta) + theta).is_zero()
        window = evaluate_on_series(ft, below, k, k)
        assert window.coefficient(k) == theta
        assert all(kk == k for kk, _ in window.terms)


def test_expansion_matches_fresh_loop_on_golden_equations(monkeypatch, tmp_path):
    """Each expansion of the golden CLI cases equals the loop that
    evaluates theta_k afresh: series, constants, K and critical report."""
    from test_golden import CASES, run_case

    from qdulac import cli

    seen = []

    def recording(f, ts, k_max):
        seen.append((f, ts, k_max, expand_solution(f, ts, k_max)))
        return seen[-1][-1]

    monkeypatch.setattr(cli, "expand_solution", recording)
    for argv in CASES.values():
        if argv[0] in ("expand", "verify"):
            run_case(argv, tmp_path)
    assert len(seen) >= 20
    for f, ts, k_max, result in seen:
        assert result == reference_expansion(f, ts, k_max)


def test_expansion_matches_fresh_loop_on_planted_edges():
    """Seeded planted edges (r in -2..2 and halves) that pass the structural
    hypotheses expand as the fresh loop does; the rest are refused alike."""
    rng = random.Random(2026)
    compared = 0
    for _ in range(80):
        eq, q, c, r, endpoints = random_edge_equation(rng)
        face = find_face(build_polygon(eq), endpoints)
        ts = verified_solution(eq, face, c, r, q)
        k_max = r + F(rng.randint(2, 12), 2)
        try:
            want = reference_expansion(eq, ts, k_max)
        except QDulacError as err:
            with pytest.raises(type(err)):
                expand_solution(eq, ts, k_max)
            continue
        assert expand_solution(eq, ts, k_max) == want, (str(eq), q, c, r, k_max)
        compared += 1
    assert compared >= 20


def test_expand_remark2_log_free_implication():
    for q in (F(1, 4), F(1, 2)):
        f, ts = main_ts(q)
        result = expand_solution(f, ts, 3)
        assert result.series.q == ts.q == q
        if all(mu == 1 and ok for _, mu, ok in result.critical_report):
            assert result.log_free


def test_expand_base_still_truncated_solution():
    from qdulac.truncate import verify_truncated

    f, ts = main_ts()
    result = expand_solution(f, ts, 2)
    c, r = result.series.base_shift
    rebuilt = TruncatedSolution(c, r, result.series.q, ts.face, "user-supplied")
    assert verify_truncated(rebuilt, f)


def test_expand_exactness_gate():
    f = parse_equation("y - x + x^(3/2)")
    polygon = build_polygon(f)
    edge = next(
        face for face in faces_for_x_to_zero(polygon) if face.dim == 1
    )
    assert edge.r == 1
    ts = verified_solution(f, edge, 1, 1, F(1, 2))
    with pytest.raises(IrrationalQPowerError):
        expand_solution(f, ts, 3)
    ts = verified_solution(f, edge, 1, 1, F(1, 4))
    result = expand_solution(f, ts, 3)
    assert result.series.terms == ((F(3, 2), TPoly.const(-1)),)
    assert verify_residual(f, result, {}, 10) is None


def test_exactness_gate_reads_only_k():
    # r = 1/2 at q = 2: q^r is irrational, but the loop needs only q^k for
    # k in K = {1}, and substitute_shift takes q^(2r) = 2 before the gate.
    f = parse_equation("S^2(y) - 4*y + 2*x^(1/2)")
    edge = find_face(build_polygon(f), [(0, 1), (F(1, 2), 0)])
    (ts,) = analyze_face(f, edge, 2).candidates
    assert (ts.c, ts.r) == (ParamPoly.const(1), F(1, 2))
    result = expand_solution(f, ts, 2)
    assert result.k_set == (1,)
    assert str(result.series) == "x^(1/2) + C1*x"
    for value in (1, F(5, 7)):
        assert verify_residual(f, result, {"C1": value}, 2) is None


def test_expansion_runs_at_the_q_of_its_truncated_solution():
    # S(y) - 4*y + x: the vertex (0,1) gives r = log_q 4 (none at q = 3),
    # the edge to (1,0) gives r = 1 with c = 1/(1 - 4/q).
    f = parse_equation("S(y) - 4*y + x = 0")
    polygon = build_polygon(f)
    leads = set()
    for q in (F(1, 2), F(1, 4), F(3)):
        for face in faces_for_x_to_zero(polygon):
            for ts in analyze_face(f, face, q).candidates:
                result = expand_solution(f, ts, ts.r + 3)
                assert ts.q == result.series.q == q
                names = ts.c.symbols() | {n for n, _ in result.constants_introduced}
                bound = {name: 1 for name in names}
                assert verify_residual(f, result, bound, ts.r + 3) is None
                leads.add((q, ts.r))
    assert leads == {(F(1, 2), -2), (F(1, 2), 1), (F(1, 4), -1), (F(1, 4), 1), (3, 1)}


def test_expand_kmax_must_exceed_r():
    f, ts = main_ts()
    with pytest.raises(ValueError):
        expand_solution(f, ts, 0)


# -- verify_residual


def test_residual_case1_vanishes_to_order():
    f, ts = main_ts()
    result = expand_solution(f, ts, 1)
    assignment = {"a3": 1, "a4": 1, "C1": 1}
    assert verify_residual(f, result, assignment, 1) is None
    tail = verify_residual(f, result, assignment, 5)
    assert tail is None or tail > 1


def test_residual_of_bare_base():
    f, ts = main_ts()
    result = expand_solution(f, ts, 1)
    bare = result._replace(
        series=PowerLogSeries(F(1, 2), [], base_shift=(ParamPoly.const(-1), F(0))),
    )
    assert verify_residual(f, bare, {"a3": 1, "a4": 1}, 5) == 1


def test_vertex_residual_with_c_bound_to_zero():
    # The vertex (0,1) of S(y) - 2*y + x^3 + x*y^2 at q=2 leaves c free.
    # Cut after beta_3: with c = 0, y = -x^3/6 leaves x*y^2 = x^7/36; with
    # c = 1, y = x - x^3/3 leaves -2/3*x^5 first.
    f = parse_equation("S(y) - 2*y + x^3 + x*y^2 = 0")
    polygon = build_polygon(f)
    face = find_face(polygon, [(0, 1)])
    (ts,) = analyze_face(f, face, 2).candidates
    result = expand_solution(f, ts, 9)
    cut = result._replace(
        series=PowerLogSeries(
            2, result.series.terms[:1], base_shift=result.series.base_shift
        ),
    )
    for c, cut_exponent in ((0, 7), (1, 5)):
        assert verify_residual(f, result, {"c": c}, 9) is None
        assert verify_residual(f, cut, {"c": c}, 9) == cut_exponent


def test_residual_zero_equation():
    f, ts = main_ts()
    result = expand_solution(f, ts, 1)
    assert (
        verify_residual(
            QPolynomial(), result, {"a3": 1, "a4": 1, "C1": 1}, 5
        )
        is None
    )


def test_bound_equation_drops_the_terms_that_bind_to_zero(monkeypatch):
    # at a3 = a4 = 0 four terms of the paper's cubic vanish; the equation
    # that `verify_residual` evaluates must not keep them as zero terms
    f, ts = main_ts()
    result = expand_solution(f, ts, 4)
    seen = []
    evaluate = expand_module.evaluate_on_series
    monkeypatch.setattr(expand_module, "evaluate_on_series",
                        lambda g, *args: seen.append(g) or evaluate(g, *args))
    assert verify_residual(f, result, {"a3": 0, "a4": 0, "C1": 0}, 4) is None
    want = parse_equation("S^2(y)*y^2 - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2")
    assert seen == [want] and hash(seen[0]) == hash(want)


def test_residual_property_random_assignments():
    rng = random.Random(20260815)
    for q in (F(1, 2), F(1, 4)):
        f, ts = main_ts(q)
        for n in (1, 2, 3):
            result = expand_solution(f, ts, n)
            for _ in range(5):
                assignment = {
                    name: F(rng.randint(-6, 6), rng.randint(1, 4))
                    for name in ("a3", "a4", "C1")
                }
                exp = verify_residual(f, result, assignment, 6)
                assert exp is None or exp > n


# -- degree bound


def test_degree_bound_case1():
    f, ts = main_ts()
    result = expand_solution(f, ts, 3)
    assert degree_bound(result)
    beta1 = result.series.coefficient(1)
    assert beta1.degree() == 1 <= 2


def test_degree_bound_case2_trivial():
    f, ts = main_ts(F(1, 4))
    result = expand_solution(f, ts, 3)
    assert degree_bound(result)


def test_degree_bound_negative_control():
    f, ts = main_ts()
    result = expand_solution(f, ts, 1)
    t5 = TPoly([0, 0, 0, 0, 0, 1])
    fake = result._replace(
        series=PowerLogSeries(
            F(1, 2), [(F(1), t5)], base_shift=result.series.base_shift
        ),
    )
    assert degree_bound(fake) is False


def test_a_path_deeper_than_the_recursion_limit(deadline):
    """x*y^3000 puts a chain of 3,000 factors y into the evaluator's tree,
    deeper than the recursion limit; its nodes are formed deepest first,
    with no recursion.  The expansion (K is empty through k_max 3) equals
    the fresh loop's and verifies, and on y = 1 + x, whose lowest exponent
    0 keeps every node of the chain in its window, x*y^3000 is
    x*(1 + x)^3000 through x^4."""
    f = parse_equation("S(y) - 2*y + x + x*y^3000")
    face = find_face(build_polygon(f), [(0, 1), (1, 0)])
    (ts,) = analyze_face(f, face, F(1, 2)).candidates
    with deadline(3):
        result = expand_solution(f, ts, 3)
        assert verify_residual(f, result, {}, 3) is None
        one_plus_x = PowerLogSeries(F(1, 2), [(0, TPoly.const(1)), (1, TPoly.const(1))])
        got = evaluate_on_series(parse_equation("x*y^3000"), one_plus_x, 4)
    assert result == reference_expansion(f, ts, 3)
    assert got.terms == tuple((F(i + 1), TPoly.const(math.comb(3000, i))) for i in range(4))
