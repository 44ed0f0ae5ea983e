"""QPolynomial's int exponent grid against Fraction-keyed references.

A QPolynomial stores each x-exponent as an int over one grid, the
coarsest one.  tests/oracles.py merges like terms keyed by Fraction
exponents (`reference_qpolynomial`, `reference_add`, `reference_mul`,
`reference_power`); here the store's results, its sorted view, the
support `build_polygon` reads, least exponent, equality and hash must
agree with them on seeded sums whose exponents have denominators 1 to 6,
are negative, and cancel so that a grid collapses.
"""

import math
import random
from fractions import Fraction

import pytest

from oracles import reference_add, reference_mul, reference_power, reference_qpolynomial, y_degree
from qdulac.algebra import ParamPoly
from qdulac.errors import EmptySupportError
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon
from qdulac.qexpr import QPolynomial, QTerm

F = Fraction
A = ParamPoly.symbol("a")


def _random_terms(rng):
    """QTerms with x-exponents n/d for d in 1..6 and n in -9..9, levels 0-2,
    and like terms that cancel in full, so a sum's lcm grid can shrink."""
    terms = []
    for _ in range(rng.randint(1, 5)):
        sigma = {}
        for _ in range(rng.randint(0, 2)):
            level = rng.randint(0, 2)
            sigma[level] = sigma.get(level, 0) + 1
        coeff = rng.choice([F(1), F(-2), F(3, 5), A, A + ParamPoly.const(-1)])
        term = QTerm(coeff, F(rng.randint(-9, 9), rng.randint(1, 6)), tuple(sorted(sigma.items())))
        terms.append(term)
        if rng.random() < 0.3:
            terms.append(term._replace(coeff=-term.coeff))
    rng.shuffle(terms)
    return terms


def _check_view(f):
    """The sorted view, support and least exponent on Fractions, and the
    store on the coarsest grid: the lcm of the view's denominators."""
    keys = [(t.x_exp, y_degree(t), t.sigma_powers) for t in f.terms]
    assert keys == sorted(keys)
    assert all(type(t.x_exp) is Fraction for t in f.terms)
    assert f._grid == math.lcm(*(t.x_exp.denominator for t in f.terms))
    if f.is_zero():
        for probe in (build_polygon, QPolynomial.min_x_exponent):
            with pytest.raises(EmptySupportError):
                probe(f)
    else:
        points = build_polygon(f).support
        assert set(points) == {(t.x_exp, y_degree(t)) for t in f.terms}
        assert list(points) == sorted(points)
        assert all(type(x) is type(y) is Fraction for x, y in points)
        least = f.min_x_exponent()
        assert type(least) is Fraction and least == min(t.x_exp for t in f.terms)
    rebuilt = QPolynomial(f.terms)
    assert rebuilt == f and hash(rebuilt) == hash(f)


def _agree(got, want):
    assert got == want and hash(got) == hash(want), (str(got), str(want))
    assert got.terms == want.terms
    _check_view(got)


def test_grid_store_matches_fraction_keyed_reference():
    rng = random.Random(4000)
    collapsed = 0
    for _ in range(300):
        t1, t2 = _random_terms(rng), _random_terms(rng)
        if rng.random() < 0.5:  # g cancels some of f's terms in f + g
            t2 += [t._replace(coeff=-t.coeff) for t in rng.sample(t1, rng.randint(1, len(t1)))]
        f, g = QPolynomial(t1), QPolynomial(t2)
        _check_view(f)
        _agree(QPolynomial(t1 + t2), reference_qpolynomial(t1 + t2))
        _agree(f + g, reference_add(f, g))
        _agree(f - g, reference_add(f, -g))
        _agree(f * g, reference_mul(f, g))
        n = rng.randint(0, 3)
        _agree(f**n, reference_power(f, n))
        delta = F(rng.randint(-7, 7), rng.randint(1, 6))
        _agree(f.shift_x(delta), reference_qpolynomial(
            [t._replace(x_exp=t.x_exp + delta) for t in f.terms]))
        collapsed += (f + g)._grid < math.lcm(f._grid, g._grid)
    assert collapsed >= 20  # sums do reach a coarser grid


def test_equal_sums_on_other_grids_are_equal():
    x = parse_equation("x")
    half = parse_equation("x^(1/2)")
    cases = [
        half * half,
        parse_equation("x^(1/2)*x^(1/2)"),
        parse_equation("x^(1/2) + x - x^(1/2)"),
        parse_equation("x^(1/3)").shift_x(F(2, 3)),
        QPolynomial([QTerm(1, F(5, 6), ()), QTerm(1, 1, ()), QTerm(-1, F(5, 6), ())]),
        QPolynomial([QTerm(1, F(2, 2), ())]),
        (half + 1) ** 2 - 2 * half - 1,
    ]
    for f in cases:
        assert f == x and hash(f) == hash(x), str(f)
        assert f._grid == 1
        assert f.terms == (QTerm(ParamPoly.const(1), F(1), ()),)
    zero = parse_equation("x^(1/2)*y - x^(1/2)*y")
    assert zero == QPolynomial() and hash(zero) == hash(QPolynomial()) and zero._grid == 1
    assert parse_equation("x^(1/2)") != x and parse_equation("x^(1/2)*y") != parse_equation("x*y")
