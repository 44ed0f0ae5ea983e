"""The notation of printed expressions, in text and in LaTeX.

The golden CLI cases pin most printed forms; the fixed cases below add
those no golden case reaches: a grouped part with no tail (a constant
term of a q-difference sum, the x^0 term of a series), a grouped
log-polynomial inside a series term, and the forms a TPoly takes as the
printers read it from its store (`TPoly.terms_by_degree`): the zero
polynomial, no constant term, a negative one-term coefficient, a
several-term coefficient at t^0 (not grouped) and at t^d (grouped), and
constant betas inside a series.

The text notation also reads back through the parser: every `ParamPoly`
and every `QPolynomial`, printed and parsed with the same parameter names,
gives back the identical canonical value.  Those cases are seeded random
sums with signed rational coefficients, several symbols (some with digit
suffixes), powers up to 3, shift levels up to 2 and x exponents that are
negative, zero, positive, integer or fractional, so grouped coefficients,
negative leads, bare unit coefficients, shifted powers such as S^2(y)^3
and x powers such as x^-2 and x^(-3/2) all occur.
"""

import random
from fractions import Fraction

import pytest

from qdulac.algebra import LATEX, ParamPoly, TPoly
from qdulac.parser import parse_equation, parse_param_expr
from qdulac.qexpr import PowerLogSeries, QPolynomial, QTerm

NAMES = ("a", "b", "a3", "C12")
_A, _B = ParamPoly.symbol("a"), ParamPoly.symbol("b3")


def test_grouped_parts_without_tail():
    a = ParamPoly.symbol("a3")
    f = parse_equation("(a3+1) - (a3 - 1)*y + x^2*S^2(y)", ["a3"])
    assert str(f) == "(1 + a3) + (1 - a3)*y + x^2*S^2(y)"
    s = PowerLogSeries(
        Fraction(1, 2),
        [(1, TPoly([-2])), (Fraction(3, 2), TPoly([0, 1 + -a]))],
        base_shift=(1 + a, 0),
    )
    assert str(s) == "(1 + a3) - 2*x + ((1 - a3)*t)*x^(3/2)"
    assert LATEX.series(s, "t") == (
        "\\left(1 + a_{3}\\right) - 2 \\, x"
        " + \\left(\\left(1 - a_{3}\\right) t\\right) x^{3/2}"
    )
    b = TPoly([a + -1, -a, Fraction(1, 3), 2 * a * a])
    assert b.to_string("w") == "2*a3^2*w^3 + 1/3*w^2 - a3*w - 1 + a3"
    assert LATEX.tpoly(b, "w") == (
        "2 a_{3}^{2} \\, w^{3} + \\frac{1}{3} \\, w^{2} - a_{3} \\, w - 1 + a_{3}"
    )


@pytest.mark.parametrize(
    "beta, text, latex",
    [
        (TPoly(), "0", "0"),
        (
            TPoly([0, _A, Fraction(-2, 5)]),
            "-2/5*t^2 + a*t",
            "-\\frac{2}{5} \\, t^{2} + a \\, t",
        ),
        (TPoly([1, 0, -3 * _A * _B]), "-3*a*b3*t^2 + 1", "-3 a b_{3} \\, t^{2} + 1"),
        (TPoly([0, -1]), "-t", "-t"),
        (
            TPoly([_A * _B + -2, 0, 1 + Fraction(1, 2) * _A * _A]),
            "(1 + 1/2*a^2)*t^2 - 2 + a*b3",
            "\\left(1 + \\frac{1}{2} a^{2}\\right) t^{2} - 2 + a b_{3}",
        ),
    ],
    ids=["zero", "no_constant_term", "negative_one_term", "negative_unit", "multi_term"],
)
def test_tpoly_forms(beta, text, latex):
    # a t^d coefficient of several terms is grouped, the constant term is not
    assert beta.to_string("t") == text
    assert LATEX.tpoly(beta, "t") == latex


def test_constant_betas_in_a_series():
    s = PowerLogSeries(
        Fraction(1, 2),
        [
            (Fraction(1, 2), TPoly.const(_A + -1)),
            (1, TPoly([0, -_B])),
            (2, TPoly.const(Fraction(-3, 4) * _B)),
        ],
        base_shift=(-_A, 0),
    )
    assert str(s) == "-a + (-1 + a)*x^(1/2) + (-b3*t)*x - 3/4*b3*x^2"
    assert LATEX.series(s, "\\ell") == (
        "-a + \\left(-1 + a\\right) x^{1/2} + \\left(-b_{3} \\, \\ell\\right) x"
        " - \\frac{3}{4} b_{3} \\, x^{2}"
    )


def rand_rat(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))


def rand_param_poly(rng, max_terms):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        names = rng.sample(NAMES, rng.randint(0, 3))
        mono = tuple(sorted((name, rng.randint(1, 3)) for name in names))
        terms[mono] = rng.choice((Fraction(1), Fraction(-1), rand_rat(rng)))
    return ParamPoly(terms)


def rand_qpoly(rng):
    terms = []
    for _ in range(rng.randint(0, 4)):
        levels = rng.sample(range(3), rng.randint(0, 3))
        sigma = tuple((level, rng.randint(1, 3)) for level in levels)
        coeff = rand_param_poly(rng, 3)
        x_exp = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        terms.append(QTerm(coeff, x_exp, sigma))
    return QPolynomial(terms)


def test_param_poly_text_round_trips():
    rng = random.Random(20261018)
    for _ in range(300):
        p = rand_param_poly(rng, 5)
        assert parse_param_expr(str(p), NAMES) == p, str(p)


def test_qpolynomial_text_round_trips():
    rng = random.Random(20261019)
    for _ in range(300):
        f = rand_qpoly(rng)
        assert parse_equation(str(f), NAMES).terms == f.terms, str(f)
