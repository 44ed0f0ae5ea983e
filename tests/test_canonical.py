"""Boundary checks and the canonical form of algebra values.

Outside data is validated where it enters: the public constructors, the
parser and the number-theory entry points.  Arithmetic builds its results
directly in canonical form without re-validating; the property tests
below check that every such result equals its rebuild through the
validating constructor, stores no zero coefficient, and keeps every
monomial and shift tuple sorted.
"""

import ast
import functools
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import qdulac
from qdulac.algebra import ParamPoly, TPoly, check_q, q_pow
from qdulac.errors import ReservedSymbolError
from qdulac.expand import (
    LinearPart,
    apply_difference_operator,
    check_exponent_order,
    constant_namer,
    critical_numbers,
    expand_solution,
    k_lattice,
    solve_poly_difference,
    verify_residual,
)
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import QPolynomial, QTerm, support
from qdulac.truncate import (
    TruncatedSolution,
    analyze_face,
    determining_poly,
    truncated_sum,
)

F = Fraction

# -- floats are refused at every entry point


@functools.cache
def _case():
    """S(y) - 2*y + x^3 + x*y^2 at q=2: vertex (0,1), edge to (3,0) at r=3."""
    f = parse_equation("S(y) - 2*y + x^3 + x*y^2 = 0")
    polygon = build_polygon(support(f))
    vertex = find_face(polygon, [(0, 1)])
    (ts,) = analyze_face(f, vertex, 2).candidates
    return SimpleNamespace(
        f=f,
        vertex=vertex,
        edge=find_face(polygon, [(0, 1), (3, 0)]),
        ts=ts,
        result=expand_solution(f, ts, 5),
    )


_L = LinearPart((-2, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: ParamPoly.const(0.5),
        lambda: ParamPoly({(("a", 1),): 0.5}),
        lambda: TPoly([1, 0.5]),
        lambda: ParamPoly.symbol("a").evaluate({"a": 0.5}),
        lambda: QPolynomial([QTerm(ParamPoly.const(1), 0.5, ())]),
        lambda: QPolynomial([QTerm(1.5, F(0), ())]),
        lambda: check_q(0.5),
        lambda: q_pow(0.5, 1),
        lambda: q_pow(F(1, 4), 0.5),
        lambda: expand_solution(_case().f, _case().ts, 5.0),
        lambda: build_polygon([(0.5, 1), (0, 1)]),
        lambda: k_lattice([], [0.5], 0, 2),
        lambda: LinearPart((1.5, -1)),
        lambda: TruncatedSolution(
            ParamPoly.const(F(-1, 6)), 3.0, 2, _case().edge, "edge-root"
        ),
        lambda: verify_residual(_case().f, _case().result, {"c": 1}, 5.0),
        lambda: critical_numbers(_L, 2, 0.0),
        lambda: check_exponent_order(parse_equation("x*y^2"), 1.0),
        lambda: apply_difference_operator(_L, 2, 1.0, TPoly.const(1)),
        lambda: solve_poly_difference(
            _L, 2, 3.0, TPoly.const(1), constant_namer(())
        ),
        lambda: determining_poly(truncated_sum(_case().f, _case().edge), 3.0, 2),
        lambda: analyze_face(_case().f, _case().vertex, 2, None, 1.0),
        lambda: TruncatedSolution(
            ParamPoly.const(1), 0.5, 2, _case().vertex, "user-supplied"
        ),
        lambda: TruncatedSolution(
            ParamPoly.const(1), 0, 0.5, _case().vertex, "user-supplied"
        ),
        lambda: TruncatedSolution(1.5, 0, 2, _case().vertex, "user-supplied"),
    ],
    ids=[
        "const",
        "mapping",
        "tpoly",
        "evaluate",
        "x_power",
        "qterm_coeff",
        "check_q",
        "q_pow_base",
        "q_pow_exponent",
        "expand_solution_k_max",
        "build_polygon",
        "k_lattice",
        "linear_part",
        "truncated_solution_r",
        "verify_residual_k_max",
        "critical_numbers",
        "check_exponent_order",
        "apply_difference_operator",
        "solve_poly_difference",
        "determining_poly",
        "analyze_face_r_override",
        "truncated_solution_constructor_r",
        "truncated_solution_q",
        "truncated_solution_c",
    ],
)
def test_floats_refused(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("value", [3, F(2, 3), F(-1, 2)])
def test_exact_coefficients_coerced_at_the_boundary(value):
    term = QTerm(value, F(0), ())
    assert QPolynomial([term]) == QPolynomial.constant(value)
    assert QPolynomial([term, term]).terms == (QTerm(ParamPoly.const(2 * value), F(0), ()),)
    ts = TruncatedSolution(value, 1, F(1, 2), _case().edge, "user-supplied")
    assert ts.c == ParamPoly.const(value) and type(ts.c) is ParamPoly


def test_no_float_name_in_sources():
    # The syntax tree also sees names inside f-strings, which Python 3.11
    # tokenizes as one string token.
    for path in sorted(Path(qdulac.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "float" not in names, path.name


# -- reserved names and malformed terms


@pytest.mark.parametrize("name", ["x", "y", "t", "S"])
def test_reserved_names_refused_by_parser(name):
    with pytest.raises(ReservedSymbolError):
        parse_equation("y - x = 0", params=[name])


@pytest.mark.parametrize("name", ["x", "y", "t", "S", ""])
def test_reserved_names_refused_by_symbol(name):
    with pytest.raises(ReservedSymbolError):
        ParamPoly.symbol(name)


@pytest.mark.parametrize("name", ["2", "a b", "1x"])
def test_malformed_names_refused_by_symbol(name):
    # each would print as text the DSL reads as something else, or not at all
    with pytest.raises(ValueError, match="malformed symbol name"):
        ParamPoly.symbol(name)


def test_negative_shift_level_refused():
    term = QTerm(ParamPoly.const(1), F(0), ((-1, 1),))
    with pytest.raises(ValueError):
        QPolynomial([term])


def test_nonpositive_shift_power_refused():
    term = QTerm(ParamPoly.const(1), F(0), ((1, 0),))
    with pytest.raises(ValueError):
        QPolynomial([term])


# -- arithmetic results are canonical

SYMBOLS = ("C1", "a3", "a4")


def rand_rat(rng):
    return F(rng.randint(-3, 3), rng.randint(1, 3))


def rand_param_poly(rng, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        names = rng.sample(SYMBOLS, rng.randint(0, 2))
        mono = tuple(sorted((name, rng.randint(1, 2)) for name in names))
        terms[mono] = rand_rat(rng)
    return ParamPoly(terms)


def rand_qpoly(rng, max_terms=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        levels = rng.sample(range(3), rng.randint(0, 2))
        sigma = tuple((level, rng.randint(1, 2)) for level in levels)
        x_exp = F(rng.randint(-2, 4), rng.choice((1, 2)))
        terms.append(QTerm(rand_param_poly(rng, 2), x_exp, sigma))
    return QPolynomial(terms)


def assert_canonical_param(p: ParamPoly):
    items = list(p.items())
    assert ParamPoly(dict(items)) == p
    for mono, coef in items:
        assert isinstance(coef, Fraction) and coef != 0
        assert mono == tuple(sorted(mono))
        assert len({name for name, _ in mono}) == len(mono)
        assert all(exp >= 1 for _, exp in mono)


def assert_canonical_q(f: QPolynomial):
    assert QPolynomial(f.terms).terms == f.terms
    for term in f.terms:
        assert isinstance(term.x_exp, Fraction)
        assert not term.coeff.is_zero()
        assert_canonical_param(term.coeff)
        levels = [level for level, _ in term.sigma_powers]
        assert levels == sorted(set(levels))
        assert all(power >= 1 for _, power in term.sigma_powers)


def point(rng):
    return {name: rand_rat(rng) for name in SYMBOLS}


def test_param_poly_arithmetic_is_canonical():
    rng = random.Random(20260117)
    for _ in range(300):
        a, b = rand_param_poly(rng), rand_param_poly(rng)
        at = point(rng)
        va, vb = a.evaluate(at), b.evaluate(at)
        results = {
            "add": (a + b, va + vb),
            "neg": (-a, -va),
            "mul": (a * b, va * vb),
            "pow": (a**3, va**3),
            "scalar": (a * F(2, 3) + 1, va * F(2, 3) + 1),
        }
        for name, (result, value) in results.items():
            assert_canonical_param(result)
            assert result.evaluate(at) == value, name
        assert (a + -a).is_zero()


def test_equal_values_share_one_stored_form():
    # A ParamPoly is stored as int numerators over one positive denominator
    # with the content divided out, so one value has one form however it
    # was built; each pair below is one value reached by two routes.
    rng = random.Random(20261020)
    for _ in range(300):
        a, b = rand_param_poly(rng), rand_param_poly(rng)
        names = rng.sample(SYMBOLS, rng.randint(0, 2))
        mono = tuple(sorted((name, rng.randint(1, 2)) for name in names))
        routes = {
            "scale": ((a * 3) * F(1, 3), a),
            "add_neg": (a + b + -b, a),
            "negative_scale": (a * F(-3, 2) * F(-2, 3), a),
            "cancel": (a + -a, ParamPoly.zero()),
            "halves": (ParamPoly({mono: F(1, 2)}) * 2, ParamPoly({mono: 1})),
        }
        for name, (built, expected) in routes.items():
            assert built == expected, name
            assert hash(built) == hash(expected), name
            assert sorted(built.items()) == sorted(expected.items()), name
            for _, coef in built.items():
                assert type(coef) is Fraction and coef.denominator > 0, name
                assert math.gcd(coef.numerator, coef.denominator) == 1, name


def test_qpolynomial_arithmetic_is_canonical():
    rng = random.Random(20260118)
    half = F(1, 2)
    for _ in range(150):
        f, g = rand_qpoly(rng), rand_qpoly(rng)
        # oracles built term by term through the validating constructor
        naive_product = QPolynomial(
            QTerm(s.coeff * t.coeff, s.x_exp + t.x_exp, s.sigma_powers + t.sigma_powers)
            for s in f.terms
            for t in g.terms
        )
        negated_g = [QTerm(-t.coeff, t.x_exp, t.sigma_powers) for t in g.terms]
        shifted_f = [QTerm(t.coeff, t.x_exp - half, t.sigma_powers) for t in f.terms]
        results = {
            "add": (f + g, QPolynomial([*f.terms, *g.terms])),
            "sub": (f - g, QPolynomial([*f.terms, *negated_g])),
            "neg": (-g, QPolynomial(negated_g)),
            "mul": (f * g, naive_product),
            "pow": (f**2, f * f),
            "shift_x": (f.shift_x(-half), QPolynomial(shifted_f)),
        }
        for name, (result, expected) in results.items():
            assert_canonical_q(result)
            assert result.terms == expected.terms, name
        assert (f - f).is_zero()
