"""The expansion preamble against its Fraction-point reference.

`expand.extract_linear_part` and `expand.check_exponent_order` read the
shifted equation's exponent points as ints on one grid.  tests/oracles.py
keeps the versions that form every point as a Fraction, hull
`support(ft)` on Fractions and read L(s) from `vertex_char_poly`.  Both
must return equal results, or raise the same error type with the same
message.
"""

import random
from fractions import Fraction
from pathlib import Path

from oracles import (
    random_edge_equation,
    reference_check_exponent_order,
    reference_extract_linear_part,
)
from qdulac.algebra import ParamPoly
from qdulac.errors import (
    ExponentOrderError,
    LinearCoefficientError,
    LinearVertexError,
    QDulacError,
    ResourceLimitError,
)
from qdulac.expand import check_exponent_order, extract_linear_part
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon
from qdulac.qexpr import QPolynomial, QTerm, substitute_shift, support
from qdulac.truncate import analyze_face

F = Fraction

GOLDEN = Path(__file__).resolve().parent / "golden"
A = ParamPoly.symbol("a")
LEADS = (F(2, 3), ParamPoly.const(-1), A + 2)
ORDER_RS = (F(-1), F(0), F(1, 3), F(-2, 3), F(3, 2), F(5, 4))


def _outcome(fn, *args):
    """fn's result, or the type and message of the QDulacError it raises."""
    try:
        return fn(*args)
    except QDulacError as err:
        return type(err), str(err)


def _random_sum(rng):
    """A linear core a_0*y + a_1*S(y), a_1 sometimes a parameter, plus
    monomials of degree 0-3 at levels 0-2 with x-exponents over 1, 2 and 3."""
    core = [QTerm(F(rng.choice([-2, 3])), F(0), ((0, 1),)),
            QTerm(A if rng.random() < 0.3 else F(1), F(0), ((1, 1),))]
    terms = core[: rng.randint(0, 2)]
    for _ in range(rng.randint(1, 5)):
        sigma = {}
        for _ in range(rng.randint(0, 3)):
            level = rng.randint(0, 2)
            sigma[level] = sigma.get(level, 0) + 1
        x_exp = F(rng.randint(-2, 6), rng.choice([1, 2, 3]))
        terms.append(QTerm(F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 5])), x_exp,
                           tuple(sorted(sigma.items()))))
    return QPolynomial(terms)


def _normalised(ft):
    """ft moved down by its least x-exponent when that is positive, as
    `expand_solution` does."""
    if not ft.is_zero() and ft.min_x_exponent() > 0:
        return ft.shift_x(-ft.min_x_exponent())
    return ft


def _shifted_equations():
    """(ft, r): golden inputs and seeded planted edges shifted at each
    truncated solution and at other leads, each with and without the
    normalisation."""
    cases = []
    for name, params in (("main", ["a3", "a4"]), ("param", ["a"]), ("vertex", []),
                         ("degenerate", [])):
        f = parse_equation((GOLDEN / f"{name}.qde").read_text(encoding="utf-8"), params)
        for q in (F(1, 2), F(1, 4), F(9)):
            for face in build_polygon(support(f)).faces:
                cases += [(f, ts.c, ts.r, q) for ts in analyze_face(f, face, q).candidates]
            cases += [(f, c, r, q) for c in LEADS for r in (F(0), F(1), F(1, 2))]
    rng = random.Random(39)
    for _ in range(60):
        f, q, c, r, _ends = random_edge_equation(rng)
        cases += [(f, c, r, q), (f, rng.choice(LEADS), r, q)]
    for _ in range(60):  # x-exponents over 1, 2 and 3; q = 1/64 has 2nd and 3rd roots
        f = _random_sum(rng)
        cases += [(f, rng.choice(LEADS), r, F(1, 64)) for r in (F(0), F(1, 2), F(-2, 3))]
    for f, c, r, q in cases:
        try:
            ft = substitute_shift(f, c, r, q)
        except QDulacError:  # an irrational q-power
            continue
        yield ft, r
        yield _normalised(ft), r


SHIFTED = list(_shifted_equations())


def test_preamble_matches_the_fraction_point_reference():
    kinds, orders = set(), set()
    for ft, r in SHIFTED:
        got = _outcome(extract_linear_part, ft)
        assert got == _outcome(reference_extract_linear_part, ft), (str(ft), r)
        kinds.add(got[0] if isinstance(got[0], type) else "split")
        # h, and ft itself, whose points at (0,1) test the strict case q2 <= 1
        for g in [ft] if isinstance(got[0], type) else [ft, got[1]]:
            for rr in {r, *ORDER_RS}:
                order = _outcome(check_exponent_order, g, rr)
                assert order == _outcome(reference_check_exponent_order, g, rr), (str(g), rr)
                orders.add(order is None or order[0])
    assert kinds == {"split", LinearVertexError, LinearCoefficientError}
    assert orders == {True, ExponentOrderError}


def test_hand_made_refusals_match_the_reference():
    main = parse_equation((GOLDEN / "main.qde").read_text(encoding="utf-8"), ["a3", "a4"])
    x_inverse = QPolynomial([QTerm(1, F(-1), ())])
    vertex = "support point (0,1) is not a vertex of the Newton polygon"
    cases = [
        (QPolynomial(), LinearVertexError,
         "the substituted equation is identically zero; nothing to expand"),
        (parse_equation("y^2 + x*y + x"), LinearVertexError,
         "no terms at support point (0,1): the linear part is missing"),
        (parse_equation("1 + y + y^2"), LinearVertexError, vertex),
        # x^-1 times the paper's cubic, shifted at its edge solution: the
        # linear part sits at (-1,1), the least x-exponent -1 is not moved
        # and the terms at (0,1) lie inside the hull
        (substitute_shift(x_inverse * main, -1, 0, F(1, 2)), LinearVertexError, vertex),
        (parse_equation("a*S(y) + b*y + x", ["a", "b"]), LinearCoefficientError,
         "coefficient at (0,1) is not constant: b"),
        (QPolynomial._trusted({(F(0), ((2**31, 1),)): ParamPoly.const(1),
                               (F(0), ((0, 1),)): ParamPoly.const(-2),
                               (F(1), ()): ParamPoly.const(1)}),
         ResourceLimitError, "exponent of w reaches 2^31"),
    ]
    for ft, kind, message in cases:
        got = _outcome(extract_linear_part, ft)
        assert got == _outcome(reference_extract_linear_part, ft) == (kind, message), str(ft)
    # at r = 1/3, (0,0) and (-1/2,2) both break the order; the least is named
    h = parse_equation("1 + x^(-1/2)*y^2 + x^2")
    got = _outcome(check_exponent_order, h, F(1, 3))
    assert got == _outcome(reference_check_exponent_order, h, F(1, 3)) == (
        ExponentOrderError,
        "support point (-1/2,2) breaks the exponent ordering for r=1/3: q1 + r*(q2-1) = -1/6",
    )
