import math
import random
import re
from fractions import Fraction

import pytest

from oracles import (
    random_edge_equation,
    reference_add,
    reference_mul,
    reference_parse_equation,
    reference_power,
    reference_qpolynomial,
)
from qdulac.algebra import ParamPoly, TPoly, q_pow
from qdulac.errors import EmptySupportError, ParseError, ResourceLimitError
from qdulac.parser import parse_equation, parse_param_expr
from qdulac.polygon import build_polygon
from qdulac.qexpr import (
    PowerLogSeries,
    QPolynomial,
    QTerm,
    evaluate_on_series,
    substitute_shift,
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
    assert max(l for t in f.terms for l, _ in t.sigma_powers) == 2


def test_parse_single_unknown():
    f = parse_equation("y")
    assert len(f.terms) == 1
    assert build_polygon(f).support == ((0, 1),)


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
    assert f.terms == parse_equation("y + x").terms
    assert parse_equation("1 / 2").terms == parse_equation("1/2").terms


def test_support_main_equation():
    pts = build_polygon(main_eq()).support
    assert set(pts) == {(0, 2), (0, 3), (1, 2), (1, 3), (2, 2), (2, 3)}


def test_support_misc():
    f = parse_equation("a3*x^2*y", ["a3"])
    assert build_polygon(f).support == ((2, 1),)
    with pytest.raises(EmptySupportError, match="zero polynomial has no support"):
        build_polygon(QPolynomial())


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
        (q1,), (q2,) = build_polygon(p1).support, build_polygon(p2).support
        assert build_polygon(prod).support == ((q1[0] + q2[0], q1[1] + q2[1]),)


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
        assert again.terms == f.terms
        assert str(again) == printed


def test_substitute_shift_matches_hand_expansion():
    f = main_eq()
    shifted = substitute_shift(f, -1, 0, F(1, 2))
    expected = parse_equation(EQ_SHIFTED, ["a3", "a4"])
    assert shifted.terms == expected.terms
    assert len(shifted.terms) == 16
    assert str(shifted) == str(expected)
    # the same substitution with any valid q, since r = 0
    assert substitute_shift(f, -1, 0, F(7, 3)).terms == expected.terms


def test_substitute_shift_zero_c_is_identity():
    f = main_eq()
    g = substitute_shift(f, 0, F(5, 2), F(1, 2))
    assert g is f


def test_substitute_shift_fractional_exponent():
    f = parse_equation("y^2")
    g = substitute_shift(f, 1, F(1, 2), F(1, 4))
    assert g.terms == parse_equation("y^2 + 2*x^(1/2)*y + x").terms


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
        assert sub(f * g).terms == (sub(f) * sub(g)).terms
        assert sub(f + g).terms == (sub(f) + sub(g)).terms


def _shift_by_repeated_products(f, c, r, q):
    """substitute_shift as it was first written: each (c q^{l r} x^r + S^l z)
    raised to its power by multiplying it in once per factor."""
    out = QPolynomial()
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
    c = a * F(2, 3) + -1
    coeff = a + F(1, 2)
    for r in (F(-1), F(0), F(1, 2)):
        for level in range(3):
            for power in range(8):
                sigma = ((level, power),) if power else ()
                f = QPolynomial([QTerm(coeff, F(1), sigma)])
                got = substitute_shift(f, c, r, q)
                want = _shift_by_repeated_products(f, c, r, q)
                assert got.terms == want.terms, (r, level, power)
        # several levels in one monomial, and two monomials sharing a power
        f = QPolynomial(
            [
                QTerm(coeff, F(0), ((0, 2), (1, 3), (2, 1))),
                QTerm(ParamPoly.const(3), F(2), ((1, 3),)),
            ]
        )
        want = _shift_by_repeated_products(f, c, r, q)
        assert substitute_shift(f, c, r, q).terms == want.terms


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


def test_series_checks_its_terms():
    t = TPoly([0, 1])
    s = PowerLogSeries(F(1, 2), [(0, TPoly.const(2)), (F(1, 2), TPoly.zero()), (1, t)])
    assert [k for k, _ in s.terms] == [F(0), F(1)]  # the zero beta is dropped
    assert s.coefficient(F(1, 2)).is_zero()
    with pytest.raises(ValueError, match="0 after 1"):
        PowerLogSeries(F(1, 2), [(1, t), (0, TPoly.const(2))])
    with pytest.raises(ValueError, match="1 after 1"):
        PowerLogSeries(F(1, 2), [(1, t), (1, -t)])
    with pytest.raises(TypeError, match="not a TPoly: 3"):
        PowerLogSeries(F(1, 2), [(1, 3)])


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
        assert evaluate_on_series(f, s, 5, k_min).terms == out.terms
    assert evaluate_on_series(f, s, 2, 2).terms == out.terms
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
    assert evaluate_on_series(f, s, 10, 1).terms == out.terms
    assert evaluate_on_series(f, s, 1, 1).terms == out.terms
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
    assert evaluate_on_series(f, s, 0, -2).terms == out.terms
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
        prod, total = {}, {}
        for k1, b1 in fa.terms:
            for k2, b2 in gb.terms:
                if k1 + k2 <= k_max:
                    prod[k1 + k2] = prod.get(k1 + k2, TPoly.zero()) + b1 * b2
        for k, b in fa.terms + gb.terms:
            total[k] = total.get(k, TPoly.zero()) + b
        assert lhs.terms == PowerLogSeries(q, sorted(prod.items())).terms
        want = PowerLogSeries(q, sorted(total.items()))
        assert evaluate_on_series(f + g, s, k_max).terms == want.terms


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
    assert g.shift_x(-2).terms == f.terms


# -- the one-pass parser against the parser as first written

_GAPS = ("", "", " ", "  ", "\t", "\n", " # a comment\n", "\r\n")
_ATOMS = (
    "x", "y", "a", "b", "S(y)", "S^2(y)", "S^0(y)", "x^2", "x^-1", "x^(3/2)",
    "x^(-1/2)", "x^(0/5)", "y^0", "y^3", "0", "1", "7", "3/2", "2/4",
    "12345678901234567890", "a^3", "a^0", "(a-1)^2", "(y+1)", "(1/2)", "(-x)",
    "(y-y)", "(y-y)^0", "S(y)^2",
)
_BAD_ATOMS = ("c", "t", "S(x)", "S^-1(y)", "x^1/2", "y^-1", "y^1/2", "1/0", "1/00", "2 y")
_SOUP = (
    "x", "y", "S", "a", "b", "c", "t", "0", "1", "2", "00", "3/2", "(", ")", "(",
    ")", "+", "-", "*", "^", "/", "=", "$", "#", "\n", "\t", " ", "٣", ".",
)
_EDGES = (
    "(" * 100 + "y" + ")" * 100,
    "y + (" * 101 + "y" + ")" * 101,
    "y\n  + ((\t$",
    "1/٣ + ٣*y",
    "a^2147483647",
    "a^2147483648",
    "a^2147483647*a",
    "0*a^2147483647*a",
    "a^2147483647*0*a",
    "a^2147483647*b^2147483647*a*b",
    "(a^2147483647)*a*)",
    "(a^2147483647 + 1)*a*)",
    "(a^1073741824)^2",
    "(a + b)^2*a^2147483646",
    "b*(a + b)^2*a^2147483646",
    "(a^2147483647 - 1)*(a + 1) - y",
    "(a + b^2)^2147483647*b",
)


def _random_expr(rng, depth=0):
    terms = []
    for i in range(rng.randint(1, 4)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            if depth < 3 and rng.random() < 0.15:
                inner = f"({_random_expr(rng, depth + 1)})"
                factors.append(inner + (f"^{rng.randint(0, 3)}" if rng.random() < 0.3 else ""))
            else:
                factors.append(rng.choice(_BAD_ATOMS if rng.random() < 0.03 else _ATOMS))
        body = (rng.choice(_GAPS) + "*" + rng.choice(_GAPS)).join(factors)
        sign = rng.choice(("+", "-")) if i else rng.choice(("", "", "-"))
        terms.append(sign + rng.choice(_GAPS) + body)
    return rng.choice(_GAPS).join(terms)


def _random_equation(rng):
    if rng.random() < 0.3:
        return "".join(rng.choice(_SOUP) for _ in range(rng.randint(0, 14)))
    text = _random_expr(rng) + rng.choice(("", "", " = 0", "= 0\n", " = 0", " = 1", "=", " = y"))
    if rng.random() < 0.15:  # a stray character, a lost or an extra parenthesis
        # (no "^": before the long literal it would ask for a giant power)
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice("$()*+/=#\n") + text[at + 1:]
    return text


def _outcome(parse, text):
    try:
        return "terms", parse(text, ["a", "b"]).terms
    except Exception as err:  # each failure compared by kind and place
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)


def test_parser_matches_reference():
    rng = random.Random(2200)
    texts = list(_EDGES) + [_random_equation(rng) for _ in range(4000)]
    kinds = set()
    for text in texts:
        want, got = _outcome(reference_parse_equation, text), _outcome(parse_equation, text)
        if want[0] is ZeroDivisionError:
            # a denominator written as several zeros: the reference divides
            # by it, the parser names it
            assert got[0] is ParseError and got[1].startswith("zero denominator"), text
        else:
            assert got == want, text
        kinds.add(want[0])
    assert {"terms", ParseError, ResourceLimitError, ZeroDivisionError} <= kinds


def _random_coeff(rng):
    """A small fraction, a 60-digit one, or a sum in a and b whose exponents
    may be near 2^31, so that a product of two can reach it."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    if kind == 1:
        return F(rng.choice((-1, 1)) * rng.randrange(10**59, 10**60), rng.randrange(1, 10**60))
    a, b = ParamPoly.symbol("a"), ParamPoly.symbol("b")
    tops = (1, 2, 3) if kind == 2 else (2**30 - 1, 2**30, 2**31 - 2)
    scale = F(rng.randint(1, 3), rng.randint(1, 3))
    return scale * a ** rng.choice(tops) + -(b ** rng.choice(tops))


def _random_sum(rng):
    """QTerms with fractional x-exponents, levels 0-3 (a level may repeat),
    and like terms that cancel in full or in part."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        sigma = [(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        term = QTerm(_random_coeff(rng), F(rng.randint(-3, 3), rng.randint(1, 3)), tuple(sigma))
        terms.append(term)
        if rng.random() < 0.3:  # a like term that cancels it, or half of it
            terms.append(term._replace(coeff=-term.coeff * rng.choice((1, F(1, 2)))))
    rng.shuffle(terms)
    return terms


def _top(f, name):
    """The largest exponent of the parameter `name` in f's coefficients."""
    return max((e for c in f._terms.values() for mono, _ in c.items()
                for n, e in mono if n == name), default=0)


def _merged_alike(op, reference, args, reach=lambda name: True):
    """op(*args) equals reference(*args), or both raise the same type; a
    ResourceLimitError names a symbol whose exponent reaches 2^31."""
    outcomes = []
    for fn in (op, reference):
        try:
            outcomes.append(fn(*args))
        except (ResourceLimitError, ValueError, TypeError) as err:
            outcomes.append(err)
    got, want = outcomes
    if isinstance(want, Exception):
        assert type(got) is type(want), (args, got, want)
        named = re.match(r"exponent of (\w+) reaches 2\^31", str(got))
        assert named is None or reach(named.group(1)), (args, got)
    else:
        assert got == want, args


def test_merge_matches_incremental_reference():
    """`QPolynomial(terms)`, `+`, `*` and `**`, which form each output term
    in one pass, against the merge that adds one product per pair of terms."""
    rng = random.Random(3800)
    for i in range(300):
        if i % 3:
            f, g = (QPolynomial(_random_sum(rng)) for _ in range(2))
        else:
            f, g = (random_edge_equation(rng)[0] for _ in range(2))
        _merged_alike(QPolynomial, reference_qpolynomial, (f.terms + g.terms,))
        _merged_alike(QPolynomial.__add__, reference_add, (f, g))
        _merged_alike(QPolynomial.__sub__, lambda f, g: reference_add(f, -g), (f, g))
        _merged_alike(QPolynomial.__mul__, reference_mul, (f, g),
                      lambda name: _top(f, name) + _top(g, name) >= 2**31)
        n = rng.randint(0, 3)
        _merged_alike(QPolynomial.__pow__, reference_power, (f, n),
                      lambda name: _top(f, name) * n >= 2**31)
        terms = _random_sum(rng)
        _merged_alike(QPolynomial, reference_qpolynomial, (terms,))
        assert QPolynomial(terms) == QPolynomial(terms[::-1])


def test_parsed_powers_of_sums_match_incremental_reference():
    """Powers and products of printed sums, parsed: each output term formed
    in one pass equals the sum built one product per pair of terms."""
    rng = random.Random(3801)
    texts = [f"(y + 1)^{n}" for n in (2, 17, 40)] + ["(y - S(y))^3*(y + S(y))^3 + x^(1/2)"]
    for _ in range(60):
        f, g = (QPolynomial(_random_sum(rng)) for _ in range(2))
        n, m = rng.randint(0, 3), rng.randint(1, 2)
        texts += [f"({f})^{n}", f"({f})^{n}*({g}) - ({g})^{m}"]
        _merged_alike(lambda: parse_equation(f"({f})^{n}", ["a", "b"]),
                      lambda: reference_power(f, n), (),
                      lambda name: _top(f, name) * n >= 2**31)
    for text in texts:
        _merged_alike(parse_equation, reference_parse_equation, (text, ["a", "b"]))


def _long_equation(n):
    return " + ".join(f"{i + 1}*x^{i + 1}*y^{1 + i % 3}" for i in range(n)) + " + S(y) - 2*y + x"


def test_long_equation_parses_and_shifts_in_linear_time(deadline):
    # summing the terms by repeated `+` copied the whole dict per term:
    # 7 s to parse these 4,000 terms and 23 s to shift them on a 2-core VM
    with deadline(2):
        f = parse_equation(_long_equation(4000))
        g = substitute_shift(f, F(2, 3), 1, F(1, 2))
    assert len(f.terms) == 4003
    assert len(g.terms) == 12001
    assert all(t.sigma_powers or t.x_exp > 1 for t in g.terms)  # c*q*x - 2*c*x + x = 0


def test_a_product_refuses_a_power_of_y_that_reaches_the_limit():
    # `**` and the constructor refused y^(2^31); `*` returned it
    for level in (0, 2):
        p = QPolynomial([QTerm(1, 0, ((level, 2**30),))])
        for op in (lambda: p * p, lambda: p**2, lambda: QPolynomial(reference_mul(p, p).terms)):
            with pytest.raises(ResourceLimitError) as err:
                op()
            assert str(err.value) == "power of y or S^l(y) reaches 2^31"
    q = QPolynomial([QTerm(1, 0, ((0, 2**30 - 1),))])
    assert (q * q).terms == (QTerm(ParamPoly.const(1), F(0), ((0, 2**31 - 2),)),)


def test_power_of_a_sum_is_refused_before_it_is_expanded(deadline):
    # the squarings of (a + b^2) built ever larger sums before the kernel's guard could fire
    with deadline(2):
        for text, name in [("(a + b^2)^2147483647*b", "b"), ("(a^3 + b)^715827883", "a"),
                           ("(a^2 + b)^1073741824 + y", "a")]:
            with pytest.raises(ResourceLimitError, match=f"exponent of {name} reaches 2"):
                parse_equation(text, ["a", "b"])
    assert parse_equation("(a^1073741823 + b)^2", ["a", "b"]).terms == parse_equation(
        "a^2147483646 + 2*a^1073741823*b + b^2", ["a", "b"]
    ).terms
