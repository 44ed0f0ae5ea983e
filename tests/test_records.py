"""The nine record types: immutable values, copied only through their checks.

The pipeline's records are named tuples, so importing the command line
needs neither `dataclasses` (which loads `inspect`, `ast` and `dis`) nor
`json` and `pathlib`; the last test holds the import to that.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qdulac
from qdulac import expand
from qdulac.algebra import TEXT, Notation, ParamPoly
from qdulac.errors import InvalidQError, TruncatedSolutionError
from qdulac.expand import LinearPart, critical_numbers, expand_solution
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import support
from qdulac.truncate import analyze_face

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)

RECORDS = (
    "Notation", "QTerm", "Face", "NewtonPolygon", "TruncatedSolution",
    "FaceAnalysis", "LinearPart", "CriticalData", "ExpansionResult",
)


def _records() -> dict:
    """One of each record, from a fresh run on the paper's cubic at q = 1/2."""
    f = parse_equation(EQ_MAIN, ["a3", "a4"])
    polygon = build_polygon(support(f))
    analysis = analyze_face(f, find_face(polygon, [(0, 3), (0, 2)]), F(1, 2))
    (ts,) = analysis.candidates
    result = expand_solution(f, ts, 2)
    return {
        "Notation": Notation(*(str(fmt) for fmt in TEXT)),
        "QTerm": f.terms[0],
        "Face": ts.face,
        "NewtonPolygon": polygon,
        "TruncatedSolution": ts,
        "FaceAnalysis": analysis,
        "LinearPart": result.linear_part,
        "CriticalData": critical_numbers(result.linear_part, ts.q, ts.r),
        "ExpansionResult": result,
    }


@pytest.fixture(scope="module")
def two_runs():
    return _records(), _records()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_equal_by_value(two_runs, name):
    a, b = (run[name] for run in two_runs)
    assert type(a).__name__ == name and a is not b
    # sums and series compare by identity, so the two runs share theirs
    b = b._replace(**{f: getattr(a, f) for f in ("truncated", "series") if f in a._fields})
    assert a == b and hash(a) == hash(b)
    for field in (*a._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field, None))


def test_copies_of_validating_records_pass_their_checks(two_runs):
    ts = two_runs[0]["TruncatedSolution"]
    assert ts._replace(r=2).r == F(2) and type(ts._replace(r=2).r) is Fraction
    assert ts._make(ts) == ts
    with pytest.raises(TruncatedSolutionError):
        ts._replace(c=ParamPoly.zero())
    with pytest.raises(InvalidQError):
        ts._replace(q=1)
    with pytest.raises(TypeError):
        ts._make([ts.c, 0.5, ts.q, ts.face, ts.provenance])
    L = LinearPart((1, -2, 1))
    assert L._replace(coeffs=(3, 0)).coeffs == (F(3),)
    with pytest.raises(ValueError):
        L._make([(0, 0)])
    with pytest.raises(TypeError):
        L._replace(coeffs=(1.5, 1))


def test_linear_part_finds_its_roots_once(monkeypatch):
    calls = []
    real = expand.rational_roots
    monkeypatch.setattr(expand, "rational_roots", lambda cs: calls.append(cs) or real(cs))
    L = LinearPart((1, -2, 1))
    assert [L.root_multiplicity(F(w)) for w in (1, 2, 1)] == [2, 0, 2]
    assert L.roots == {F(1): 2} and len(calls) == 1


def test_cli_import_loads_no_dataclasses_inspect_json_or_pathlib():
    # -S leaves out site, which on some installs imports pathlib itself
    src = os.path.dirname(os.path.dirname(qdulac.__file__))
    code = (
        "import sys, qdulac.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'pathlib'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "[]\n"
