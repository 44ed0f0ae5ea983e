"""Three metamorphic relations, stated on the pipeline's records.

Sums, face analyses and expansions compare by value, so each relation is
one `==` between the records of an equation and of its transform, or
between two `expand` documents.

- Term order: f's terms written in a shuffled order and parsed again give
  an equal QPolynomial, FaceAnalysis and ExpansionResult.
- Scaling: lam*f, for a rational lam != 0 of either sign, has the same
  candidates, and its expansion is f's with the linear part scaled by lam.
- Multiplying by x^j: `expand` on x^j*f, with the face (j,3)-(j,2) of the
  paper's cubic, c = -1 and q = 1/2, prints f's JSON document for j = 1, 2
  and 1/3.  The shifted x^j*f has least x-exponent j > 0, so these cases
  run the normalisation `QPolynomial.shift_x` of `expand_solution`.

The cases are seeded planted edges (`oracles.random_edge_equation`) and
the paper's cubic, tests/golden/main.qde, at q = 1/2 and q = 1/4.  An
expansion refused for f must be refused alike for the transform.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import random_edge_equation
from qdulac.cli import main
from qdulac.errors import QDulacError
from qdulac.expand import LinearPart, expand_solution
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import QPolynomial, support
from qdulac.truncate import analyze_face

F = Fraction

MAIN = (Path(__file__).resolve().parent / "golden" / "main.qde").read_text(encoding="utf-8")


def _cases():
    """(f, params, q, edge endpoints, k_max): the cubic at q = 1/2 and 1/4,
    then 60 seeded planted edges."""
    f = parse_equation(MAIN, ["a3", "a4"])
    yield f, ["a3", "a4"], F(1, 2), [(0, 3), (0, 2)], 4
    yield f, ["a3", "a4"], F(1, 4), [(0, 3), (0, 2)], 3
    rng = random.Random(36)
    for _ in range(60):
        eq, q, _c, r, endpoints = random_edge_equation(rng)
        yield eq, [], q, endpoints, r + F(rng.randint(2, 8), 2)


CASES = list(_cases())


def _expansions(f, analysis, k_max) -> list:
    """f's expansion around each candidate, or the type of its refusal."""
    out = []
    for ts in analysis.candidates:
        try:
            out.append(expand_solution(f, ts, k_max))
        except QDulacError as err:
            out.append(type(err))
    return out


def _analysis(f, q, endpoints):
    return analyze_face(f, find_face(build_polygon(support(f)), endpoints), q)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_term_order_is_irrelevant(case):
    f, params, q, endpoints, k_max = CASES[case]
    terms = [str(QPolynomial([term])) for term in f.terms]
    random.Random(case).shuffle(terms)
    g = parse_equation(" + ".join(f"({term})" for term in terms), params)
    assert g == f and hash(g) == hash(f), terms
    want = _analysis(f, q, endpoints)
    got = _analysis(g, q, endpoints)
    assert got == want and want.candidates
    assert _expansions(g, got, k_max) == _expansions(f, want, k_max)


def test_scaling_keeps_the_expansion():
    rng = random.Random(2036)
    signs, expanded = set(), 0
    for f, _params, q, endpoints, k_max in CASES:
        lam = F(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 7]))
        analysis = _analysis(f, q, endpoints)
        scaled = _analysis(lam * f, q, endpoints)
        assert scaled.candidates == analysis.candidates and analysis.candidates, (str(f), lam)
        for want, got in zip(_expansions(f, analysis, k_max),
                             _expansions(lam * f, analysis, k_max)):
            if isinstance(want, type):
                assert got is want, (str(f), lam)
                continue
            L = LinearPart([lam * a for a in want.linear_part.coeffs])
            assert got == want._replace(linear_part=L), (str(f), lam)
            expanded += 1
        signs.add(lam > 0)
    assert signs == {True, False} and expanded >= 30


def _expand_json(tmp_path, capsys, text, face):
    """(exit code, stdout) of `expand --format json` on the cubic's parameters."""
    path = tmp_path / "eq.qde"
    path.write_text(text, encoding="utf-8")
    code = main(["expand", "--eq", str(path), "--params", "a3,a4", "--q", "1/2",
                 "--face", face, "--c", "-1", "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("j", ["1", "2", "1/3"])
def test_multiplying_by_a_power_of_x_keeps_the_document(j, tmp_path, capsys):
    lhs = MAIN.split("=")[0]
    want = _expand_json(tmp_path, capsys, MAIN, "(0,3)-(0,2)")
    got = _expand_json(tmp_path, capsys, f"x^({j})*({lhs})", f"({j},3)-({j},2)")
    assert want[0] == 0 and '"terms"' in want[1]
    assert got == want
