"""The nine record types: immutable values, copied only through their checks.

The pipeline's records are named tuples, so importing the command line
needs neither `dataclasses` (which loads `inspect`, `ast` and `dis`) nor
`json` and `pathlib`; the last test holds the import to that.  The sums
and series they hold compare and hash by value too, so two runs of the
pipeline give equal records.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qdulac
from qdulac import expand
from qdulac.algebra import TEXT, Notation, ParamPoly, TPoly
from qdulac.errors import InvalidQError, TruncatedSolutionError
from qdulac.expand import LinearPart, critical_numbers, expand_solution
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import PowerLogSeries, QPolynomial
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
    polygon = build_polygon(f)
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
    assert a == b and hash(a) == hash(b)
    for field in (*a._fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field, None))


def _golden_run() -> tuple:
    """The sum, face analysis, series and expansion of a fresh run on
    tests/golden/main.qde: q = 1/2, face (0,3)-(0,2), kmax 8."""
    text = (Path(__file__).resolve().parent / "golden" / "main.qde").read_text(encoding="utf-8")
    f = parse_equation(text, ["a3", "a4"])
    analysis = analyze_face(f, find_face(build_polygon(f), [(0, 3), (0, 2)]), F(1, 2))
    result = expand_solution(f, analysis.candidates[0], 8)
    return f, analysis, result.series, result


def test_sums_and_series_compare_and_hash_by_value():
    first, second = _golden_run(), _golden_run()
    for a, b in zip(first, second):
        assert a is not b and a == b and hash(a) == hash(b), type(a).__name__
    f, _, s, _ = first
    assert f != f + 1 and f != QPolynomial.constant(1) and f != 1
    (c, r), (k, beta) = s.base_shift, s.terms[3]
    assert PowerLogSeries(s.q, s.terms, (c, r)) == s
    changed = {
        "q": PowerLogSeries(F(1, 4), s.terms, s.base_shift),
        "c": PowerLogSeries(s.q, s.terms, (c * 2, r)),
        "r": PowerLogSeries(s.q, s.terms, (c, r - 1)),
        "beta": PowerLogSeries(
            s.q, s.terms[:3] + ((k, beta + TPoly.const(1)),) + s.terms[4:], s.base_shift
        ),
        "base pair": PowerLogSeries(s.q, s.all_terms),
    }
    for name, other in changed.items():
        assert other != s and s != other, name


def test_a_constant_param_poly_hashes_like_its_rational():
    for value in (F(1, 2), F(-7, 3), 3, 0):
        p = ParamPoly.const(value)
        assert p == value and value == p and hash(p) == hash(value), value
        assert len({p, value}) == 1 and {value: "v"}[p] == "v", value
    a = ParamPoly.symbol("a")
    assert a != 0 and a + 1 != 1 and hash(a * 0) == hash(0)
    t = TPoly.const(3)  # a TPoly equals only a TPoly
    assert t == TPoly([3]) and hash(t) == hash(TPoly([3]))
    for other in (ParamPoly.const(3), 3, F(3)):
        assert t != other and other != t, other


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
