"""The leading-term substitutions against their term-by-term references.

`qexpr.substitute_shift` (y = c*x^r + z) and the face collector of
`truncate` (chi(w), the determining polynomial and the check of a
proposal y = c*x^r) form each scalar factor once and each output
coefficient in one pass.  tests/oracles.py keeps the term-by-term
versions, which build every binomial power and every face term on its
own.  Both must give equal results, or raise the same error type with
the same message: which irrational q-power is named, and a parameter
exponent of c^d reaching 2^31.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    random_edge_equation,
    reference_determining_poly,
    reference_substitute,
    reference_substitute_shift,
    reference_vertex_char_poly,
)
from qdulac.algebra import ParamPoly
from qdulac.errors import IrrationalQPowerError, QDulacError, ResourceLimitError
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import QPolynomial, QTerm, substitute_shift, support
from qdulac.truncate import (
    TruncatedSolution,
    _substitute,
    determining_poly,
    truncated_sum,
    vertex_char_poly,
)

F = Fraction

GOLDEN = Path(__file__).resolve().parent / "golden"
A = ParamPoly.symbol("a")
# a rational, a parametric and a fractional leading coefficient
LEADS = (F(2, 3), A + 2, ParamPoly.const(-1), A * F(-1, 3) + F(5, 2))


def _outcome(fn, *args):
    """fn's result, or the type and message of the QDulacError it raises."""
    try:
        return fn(*args)
    except QDulacError as err:
        return type(err), str(err)


def _random_sum(rng: random.Random) -> QPolynomial:
    """A sum whose monomials reach levels 0-4 and powers 1-5, several
    factors each, some with a parameter in the coefficient."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        levels = sorted(rng.sample(range(5), rng.randint(0, 3)))
        coeff = ParamPoly.const(F(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 2, 7])))
        if rng.random() < 0.3:
            coeff = coeff + A
        sigma = tuple((level, rng.randint(1, 5)) for level in levels)
        terms.append(QTerm(coeff, F(rng.randint(0, 6), rng.choice([1, 2])), sigma))
    return QPolynomial(terms)


def _equations():
    """(f, q, r) triples: the golden inputs, seeded planted edges and
    seeded sums with deep levels and high powers."""
    for name, params in (("main", ["a3", "a4"]), ("param", ["a"]), ("vertex", []),
                         ("degenerate", [])):
        f = parse_equation((GOLDEN / f"{name}.qde").read_text(encoding="utf-8"), params)
        for q in (F(1, 2), F(1, 4), F(2, 3), F(9)):
            for r in (F(0), F(1), F(-1), F(1, 2)):
                yield f, q, r
    rng = random.Random(37)
    for _ in range(40):
        f, q, _c, r, _ends = random_edge_equation(rng)
        yield f, q, r
        yield f, q, F(3, 2)
    for _ in range(40):
        yield _random_sum(rng), rng.choice([F(1, 4), F(4), F(1, 2), F(8, 27)]), rng.choice(
            [F(0), F(2), F(-1), F(1, 2), F(2, 3)])


EQUATIONS = list(_equations())


def test_shift_matches_the_term_by_term_reference():
    raised = 0
    for f, q, r in EQUATIONS:
        for c in LEADS:
            got = _outcome(substitute_shift, f, c, r, q)
            assert got == _outcome(reference_substitute_shift, f, c, r, q), (str(f), c, r, q)
            raised += isinstance(got, tuple)
    assert 0 < raised < len(EQUATIONS) * len(LEADS)  # both outcomes are compared


def test_shift_names_the_first_irrational_level():
    # f.terms puts S^2(y) and S^3(y) before x*y*S(y)^2, so level 1 is met last
    f = parse_equation("S^3(y) + x*y*S(y)^2 + S^2(y)")
    for r, named in ((F(1, 2), "3/2"), (F(1, 3), "2/3"), (F(1, 6), "1/3")):
        got = _outcome(substitute_shift, f, 1, r, F(2))
        assert got == _outcome(reference_substitute_shift, f, 1, r, F(2))
        assert got == (IrrationalQPowerError, f"irrational q-power: (2)^({named})")


def test_face_collector_matches_the_term_by_term_reference():
    checked = 0
    for f, q, r in EQUATIONS:
        for face in build_polygon(support(f)).faces:
            g = truncated_sum(f, face)
            if face.dim == 0:
                assert _outcome(vertex_char_poly, g) == _outcome(reference_vertex_char_poly, g)
            elif face.r is not None:
                assert (_outcome(determining_poly, g, face.r, q)
                        == _outcome(reference_determining_poly, g, face.r, q))
            for c in LEADS:
                for rr in {r, face.r or r}:
                    ts = TruncatedSolution(c, rr, q, face, "user-supplied")
                    got = _outcome(_substitute, g, ts)
                    assert got == _outcome(reference_substitute, g, ts), (str(g), c, rr, q)
                    checked += 1
    assert checked > 1000


def test_face_collector_errors_match_the_reference():
    f = parse_equation("S(y)*S^2(y) + S^3(y)^2 - 2*y^2 + x")
    vertex = find_face(build_polygon(support(f)), [(0, 2)])
    g = truncated_sum(f, vertex)
    # weights 3 and 6 need 2^(3/4) and 2^(3/2); the weight-3 term comes first
    ts = TruncatedSolution(1, F(1, 4), F(2), vertex, "user-supplied")
    got = _outcome(_substitute, g, ts)
    assert got == _outcome(reference_substitute, g, ts)
    assert got == (IrrationalQPowerError, "irrational q-power: (2)^(3/4)")
    # c^2 with c = a^(2^30) puts 2^31 in a's exponent
    ts = TruncatedSolution(ParamPoly({(("a", 2**30),): 1}), 0, F(2), vertex, "user-supplied")
    got = _outcome(_substitute, g, ts)
    assert got == _outcome(reference_substitute, g, ts)
    assert got == (ResourceLimitError, "exponent of a reaches 2^31")


def test_shift_forms_lead_powers_up_to_the_highest_power_only():
    # c^1 = a^(2^30) is legal; the term-by-term shift also formed c^2
    c = ParamPoly({(("a", 2**30),): 1})
    f = parse_equation("S(y) - 2*y + x")
    assert substitute_shift(f, c, 1, F(2)) == parse_equation("S(y) - 2*y + x")
    g = parse_equation("y^2 + x")
    with pytest.raises(ResourceLimitError, match="exponent of a reaches 2"):
        substitute_shift(g, c, 1, F(2))


def test_shift_on_mixed_grids_matches_the_reference():
    """x-exponents over 3, 4 and 5 and r in 1/4, -2/3, 5/6: the shift sums
    exponents on the lcm grid, and some keys reduce (6/12 is 1/2)."""
    rng = random.Random(3900)
    reduced, grids = 0, set()
    for _ in range(40):
        terms = []
        for _ in range(rng.randint(1, 4)):
            levels = sorted(rng.sample(range(4), rng.randint(0, 2)))
            sigma = tuple((level, rng.randint(1, 3)) for level in levels)
            x_exp = F(rng.randint(-6, 12), rng.choice([3, 4, 5]))
            terms.append(QTerm(ParamPoly.const(F(rng.choice([-2, 1, 3]), rng.choice([1, 4]))),
                               x_exp, sigma))
        f = QPolynomial(terms)
        for r in (F(1, 4), F(-2, 3), F(5, 6)):
            q = F(1, 2**12)  # every q^(l*r) is rational
            c = rng.choice(LEADS)
            got = substitute_shift(f, c, r, q)
            assert got == reference_substitute_shift(f, c, r, q), (str(f), c, r)
            dens = {t.x_exp.denominator for t in f.terms} | {r.denominator}
            grid = math.lcm(*dens)  # a key e/grid that reduces has a denominator no input has
            reduced += any(t.x_exp.denominator < grid and t.x_exp.denominator not in dens
                           for t in got.terms)
            grids.add(grid)
    assert reduced > 20 and {12, 20, 30, 60} <= grids
