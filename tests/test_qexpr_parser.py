import math
import random
from fractions import Fraction

import pytest

from qdulac.algebra import ParamPoly, TPoly, q_pow
from qdulac.errors import EmptySupportError, ParseError
from qdulac.parser import parse_equation, parse_param_expr
from qdulac.qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    substitute_shift,
    support,
)

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2 = 0"
)

EQ_SHIFTED = (
    "-a3*x*y^3 + 4*a3*x*y^2 - 5*a3*x*y + 2*a3*x"
    " - a4*x^2*y^3 + 2*a4*x^2*y^2 - a4*x^2*y"
    " + S^2(y)*y^2 - y^2 - (3/2)*S(y)^2*y + 3*S(y)*y - 3*S^2(y)*y"
    " + (3/2)*y + 2*S(y)^2 - 4*S(y) + 2*S^2(y)"
)


def main_eq():
    return parse_equation(EQ_MAIN, ["a3", "a4"])


def test_parse_main_equation():
    f = main_eq()
    assert len(f.terms) == 8
    assert max(t.order for t in f.terms) == 2


def test_parse_single_unknown():
    f = parse_equation("y")
    assert len(f.terms) == 1
    assert f.terms[0].q_point == (0, 1)


def test_parse_unbalanced():
    with pytest.raises(ParseError):
        parse_equation("S^2(y")


def test_parse_error_locations():
    try:
        parse_equation("y +\n b*y", ["a3"])
    except ParseError as err:
        assert err.line == 2
        assert err.col == 2
        assert "undeclared identifier" in str(err)
    else:
        pytest.fail("expected a parse error")


def test_parse_power_errors():
    with pytest.raises(ParseError, match="non-integer power"):
        parse_equation("y^1/2")
    with pytest.raises(ParseError, match="negative power"):
        parse_equation("y^-1")
    with pytest.raises(ParseError, match="negative power"):
        parse_equation("S^-1(y)")


def test_parse_misc_errors():
    with pytest.raises(ParseError, match="right-hand side"):
        parse_equation("y = 1")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_equation("1/0")
    with pytest.raises(ParseError, match="applies to y only"):
        parse_equation("S(x)")
    with pytest.raises(ParseError):
        parse_equation("2 y")  # implicit multiplication rejected
    with pytest.raises(ParseError):
        parse_equation("")


def test_parse_merges_like_terms():
    f = parse_equation("y*S(y) + 2*S(y)*y - 3*y*S(y)")
    assert f.is_zero()
    g = parse_equation("(1/2)*x*y + (1/2)*x*y")
    assert len(g.terms) == 1
    assert g.terms[0].coeff == ParamPoly.const(1)


def test_parse_comments_and_whitespace():
    f = parse_equation("y  # the unknown\n + x # trailing\n = 0")
    assert f == parse_equation("y + x")
    assert parse_equation("1 / 2") == parse_equation("1/2")


def test_support_main_equation():
    pts = support(main_eq())
    assert pts == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)}


def test_support_misc():
    f = parse_equation("a3*x^2*y", ["a3"])
    assert support(f) == {(2, 1)}
    with pytest.raises(EmptySupportError):
        support(QPolynomial.zero())


def test_q_additivity():
    rng = random.Random(31)
    for _ in range(100):
        t1 = QTerm(
            ParamPoly.const(F(rng.randint(1, 5))),
            F(rng.randint(0, 4)),
            tuple(
                (l, rng.randint(1, 3))
                for l in sorted(rng.sample(range(4), rng.randint(0, 3)))
            ),
        )
        t2 = QTerm(
            ParamPoly.const(F(rng.randint(1, 5))),
            F(rng.randint(0, 4)),
            tuple(
                (l, rng.randint(1, 3))
                for l in sorted(rng.sample(range(4), rng.randint(0, 3)))
            ),
        )
        p1 = QPolynomial([t1])
        p2 = QPolynomial([t2])
        prod = p1 * p2
        assert len(prod.terms) == 1
        q1, q2 = t1.q_point, t2.q_point
        assert prod.terms[0].q_point == (q1[0] + q2[0], q1[1] + q2[1])


def test_parse_print_parse_fixpoint():
    texts = [
        EQ_MAIN,
        EQ_SHIFTED,
        "y",
        "x^2*y - (1/3)*S(y)^2 + a3",
        "-y + x",
        "(1/2)*S^3(y)^2*x^4*y^2 - 7*x",
    ]
    for text in texts:
        f = parse_equation(text, ["a3", "a4"])
        printed = str(f)
        again = parse_equation(printed, ["a3", "a4"])
        assert again == f
        assert str(again) == printed


def test_substitute_shift_matches_hand_expansion():
    f = main_eq()
    shifted = substitute_shift(f, -1, 0, F(1, 2))
    expected = parse_equation(EQ_SHIFTED, ["a3", "a4"])
    assert shifted == expected
    assert len(shifted.terms) == 16
    assert str(shifted) == str(expected)
    # the same substitution with any valid q, since r = 0
    assert substitute_shift(f, -1, 0, F(7, 3)) == expected


def test_substitute_shift_zero_c_is_identity():
    f = main_eq()
    g = substitute_shift(f, 0, F(5, 2), F(1, 2))
    assert g == f


def test_substitute_shift_fractional_exponent():
    f = parse_equation("y^2")
    g = substitute_shift(f, 1, F(1, 2), F(1, 4))
    expected = (
        QPolynomial.unknown(0) ** 2
        + QPolynomial.x_power(F(1, 2)) * QPolynomial.unknown(0) * 2
        + QPolynomial.x_power(1)
    )
    assert g == expected


def test_substitute_shift_is_ring_homomorphism():
    rng = random.Random(41)
    c, r, q = F(2), F(1), F(1, 2)

    def rand_poly():
        terms = []
        for _ in range(rng.randint(1, 3)):
            terms.append(
                QTerm(
                    ParamPoly.const(F(rng.randint(-3, 3))),
                    F(rng.randint(0, 2)),
                    tuple(
                        (l, rng.randint(1, 2))
                        for l in sorted(rng.sample(range(3), rng.randint(0, 2)))
                    ),
                )
            )
        return QPolynomial(terms)

    for _ in range(40):
        f, g = rand_poly(), rand_poly()
        sub = lambda p: substitute_shift(p, c, r, q)
        assert sub(f * g) == sub(f) * sub(g)
        assert sub(f + g) == sub(f) + sub(g)


def _shift_by_repeated_products(f, c, r, q):
    """substitute_shift as it was first written: each (c q^{l r} x^r + S^l z)
    raised to its power by multiplying it in once per factor."""
    out = QPolynomial.zero()
    for term in f.terms:
        prod = QPolynomial([QTerm(term.coeff, term.x_exp, ())])
        for level, power in term.sigma_powers:
            factor = QPolynomial(
                [
                    QTerm(c * q_pow(q, level * r), r, ()),
                    QTerm(ParamPoly.const(1), F(0), ((level, 1),)),
                ]
            )
            for _ in range(power):
                prod = prod * factor
        out = out + prod
    return out


def test_substitute_shift_binomial_powers():
    q = F(1, 4)  # q^(l r) is rational for r = 1/2
    a = ParamPoly.symbol("a")
    c = a * F(2, 3) - 1
    coeff = a + F(1, 2)
    for r in (F(-1), F(0), F(1, 2)):
        for level in range(3):
            for power in range(8):
                sigma = ((level, power),) if power else ()
                f = QPolynomial([QTerm(coeff, F(1), sigma)])
                got = substitute_shift(f, c, r, q)
                assert got == _shift_by_repeated_products(f, c, r, q), (r, level, power)
        # several levels in one monomial, and two monomials sharing a power
        f = QPolynomial(
            [
                QTerm(coeff, F(0), ((0, 2), (1, 3), (2, 1))),
                QTerm(ParamPoly.const(3), F(2), ((1, 3),)),
            ]
        )
        assert substitute_shift(f, c, r, q) == _shift_by_repeated_products(f, c, r, q)


def test_substitute_shift_high_y_degree():
    f = parse_equation("x*y^800 + S(y) - 2*y + x")
    c, q = F(2, 3), F(1, 2)
    got = substitute_shift(f, c, 1, q)
    # x*(c x + z)^800 by the binomial theorem; the x terms of c*q*x - 2*c*x + x
    # cancel, leaving S(z) - 2*z
    want = {
        (F(1 + i), ((0, 800 - i),) if i < 800 else ()): math.comb(800, i) * c**i
        for i in range(801)
    }
    want[F(0), ((1, 1),)] = F(1)
    want[F(0), ((0, 1),)] = F(-2)
    assert len(got.terms) == 803
    assert {
        (t.x_exp, t.sigma_powers): t.coeff.constant_value() for t in got.terms
    } == want


def test_series_normalization():
    t = TPoly([0, 1])
    s = PowerLogSeries(F(1, 2), [(1, t), (0, TPoly.const(2)), (1, -t)])
    assert [k for k, _ in s.terms] == [F(0)]
    assert s.coefficient(0) == TPoly.const(2)
    assert s.coefficient(1).is_zero()


def test_series_base_flattening():
    s = PowerLogSeries(
        F(1, 2),
        [(1, TPoly.const(ParamPoly.symbol("C1")))],
        base_shift=(-1, 0),
    )
    assert [k for k, _ in s.all_terms] == [0, 1]
    assert s.all_terms[0][1] == TPoly.const(-1)
    assert s.all_terms[1:] == s.terms


@pytest.mark.parametrize(
    "terms, base",
    [
        ([(1, TPoly.const(1))], (0, 0)),
        ([(1, TPoly.const(1))], (ParamPoly.zero(), 0)),
        ([(1, TPoly.const(1))], (-1, 1)),
        ([(1, TPoly.const(1))], (-1, 2)),
        ([(F(-1, 2), TPoly([0, 1])), (1, TPoly.const(1))], (2, 0)),
    ],
    ids=["zero_c", "zero_c_poly", "r_at_term", "r_above_term", "r_above_first"],
)
def test_series_base_pair_refused(terms, base):
    with pytest.raises(ValueError):
        PowerLogSeries(F(1, 2), terms, base_shift=base)


def test_series_base_pair_without_terms():
    s = PowerLogSeries(F(1, 2), [], base_shift=(3, 5))
    assert s.terms == ()
    assert s.all_terms == ((F(5), TPoly.const(3)),)


def test_series_bind_parameters():
    beta = TPoly([ParamPoly.symbol("C1"), ParamPoly.symbol("a3") * 2])
    s = PowerLogSeries(F(1, 2), [(1, beta)], base_shift=(-1, 0))
    bound = s.bind_parameters({"C1": 5, "a3": F(1, 2)})
    assert bound.coefficient(1) == TPoly([5, 1])


def test_sigma_action_on_single_term():
    f = parse_equation("S(y)")
    t = TPoly([0, 1])
    s = PowerLogSeries(F(1, 2), [(2, t)])
    out = evaluate_on_series(f, s, 5)
    assert [k for k, _ in out.terms] == [F(2)]
    assert out.coefficient(2) == t.shift(1) * TPoly.const(F(1, 4))
    for k_min in (-3, 2, F(3, 2)):
        assert evaluate_on_series(f, s, 5, k_min) == out
    assert evaluate_on_series(f, s, 2, 2) == out
    for k_min in (F(5, 2), 5, 6):
        assert not evaluate_on_series(f, s, 5, k_min).terms
    for k_min in (2.0, 0.5, "2"):
        with pytest.raises(TypeError):
            evaluate_on_series(f, s, 5, k_min)


def test_evaluate_constant_series_on_main_equation():
    f = main_eq()
    s = PowerLogSeries(F(1, 2), [], base_shift=(-1, 0))
    out = evaluate_on_series(f, s, 10)
    assert [k for k, _ in out.terms] == [F(1)]
    assert out.coefficient(1) == TPoly.const(ParamPoly.symbol("a3") * 2)
    assert evaluate_on_series(f, s, 10, 1) == out
    assert evaluate_on_series(f, s, 1, 1) == out
    assert not evaluate_on_series(f, s, 10, 2).terms
    assert not evaluate_on_series(f, s, 0).terms


def test_evaluate_first_order_partial_sum_cancels():
    f = main_eq()
    beta1 = TPoly([ParamPoly.symbol("C"), ParamPoly.symbol("a3") * 2])
    s = PowerLogSeries(F(1, 2), [(1, beta1)], base_shift=(-1, 0))
    out = evaluate_on_series(f, s, 1)
    assert not out.all_terms


def test_evaluate_respects_negative_exponents():
    f = parse_equation("y^2")
    s = PowerLogSeries(F(1, 2), [(-1, TPoly.const(1)), (1, TPoly.const(1))])
    out = evaluate_on_series(f, s, 0)
    assert [k for k, _ in out.terms] == [F(-2), F(0)]
    assert out.coefficient(0) == TPoly.const(2)
    assert evaluate_on_series(f, s, 0, -2) == out
    assert evaluate_on_series(f, s, 2, -2).coefficient(2) == TPoly.const(1)
    assert [k for k, _ in evaluate_on_series(f, s, 0, -1).terms] == [F(0)]
    assert [k for k, _ in evaluate_on_series(f, s, -2, -2).terms] == [F(-2)]
    assert [k for k, _ in evaluate_on_series(f, s, 2, 0).terms] == [F(0), F(2)]
    assert not evaluate_on_series(f, s, -1, -1).terms
    assert not evaluate_on_series(f, s, -2, 0).terms


def test_evaluate_is_multiplicative():
    rng = random.Random(53)
    q = F(1, 2)
    t = TPoly([0, 1])
    s = PowerLogSeries(q, [(1, t), (2, TPoly.const(3))], base_shift=(2, 0))
    for _ in range(30):
        def rand_poly():
            terms = []
            for _ in range(rng.randint(1, 3)):
                terms.append(
                    QTerm(
                        ParamPoly.const(F(rng.randint(-3, 3))),
                        F(rng.randint(0, 2)),
                        tuple(
                            (l, rng.randint(1, 2))
                            for l in sorted(rng.sample(range(3), rng.randint(0, 2)))
                        ),
                    )
                )
            return QPolynomial(terms)

        f, g = rand_poly(), rand_poly()
        k_max = F(6)
        lhs = evaluate_on_series(f * g, s, k_max)
        fa = evaluate_on_series(f, s, k_max)
        gb = evaluate_on_series(g, s, k_max)
        prod = {}
        for k1, b1 in fa.terms:
            for k2, b2 in gb.terms:
                if k1 + k2 <= k_max:
                    prod[k1 + k2] = prod.get(k1 + k2, TPoly.zero()) + b1 * b2
        rhs = PowerLogSeries(q, list(prod.items()))
        assert lhs == rhs
        sum_lhs = evaluate_on_series(f + g, s, k_max)
        sum_rhs = PowerLogSeries(q, list(fa.terms) + list(gb.terms))
        assert sum_lhs == sum_rhs


def test_parse_param_expr():
    c = parse_param_expr("-1")
    assert c == ParamPoly.const(-1)
    c2 = parse_param_expr("a3^2 + 1/2", ["a3"])
    assert c2 == ParamPoly.symbol("a3") ** 2 + F(1, 2)
    with pytest.raises(ParseError):
        parse_param_expr("x + 1")
    with pytest.raises(ParseError):
        parse_param_expr("y")


def test_qpolynomial_helpers():
    f = main_eq()
    assert f.min_x_exponent() == 0
    g = f.shift_x(2)
    assert g.min_x_exponent() == 2
    assert g.shift_x(-2) == f
