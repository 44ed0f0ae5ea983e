import contextlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import random_edge_equation, reference_expansion_json, verified_solution

from qdulac import cli
from qdulac.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY,
    EXPAND_SCHEMA,
    POLYGON_SCHEMA,
    TRUNCATE_SCHEMA,
    VERIFY_SCHEMA,
    main,
    series_from_json,
)
from qdulac import errors
from qdulac.algebra import ParamPoly, TPoly
from qdulac.errors import QDulacError, ResourceLimitError
from qdulac.expand import expand_solution
from qdulac.parser import parse_equation
from qdulac.polygon import build_polygon, find_face
from qdulac.qexpr import PowerLogSeries, QPolynomial, QTerm, support
from qdulac.truncate import analyze_face

F = Fraction

EQ_MAIN = (
    "-a3*x*y^3 + a3*x*y^2 - a4*x^2*y^3 - a4*x^2*y^2 + S^2(y)*y^2"
    " - (3/2)*S(y)^2*y - S^2(y)*y + (1/2)*S(y)^2"
)


@pytest.fixture
def eq_main(tmp_path):
    path = tmp_path / "main.qde"
    path.write_text(EQ_MAIN + " = 0\n", encoding="utf-8")
    return str(path)


def write_eq(tmp_path, text):
    path = tmp_path / "eq.qde"
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def main_args(eq_main):
    return ["--eq", eq_main, "--params", "a3,a4"]


# -- polygon


def test_polygon_json(eq_main, capsys):
    code, out, _ = run(capsys, ["polygon", *main_args(eq_main), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, POLYGON_SCHEMA)
    assert doc["hull"] == [["0", "2"], ["2", "2"], ["2", "3"], ["0", "3"]]
    assert len(doc["support"]) == 6
    assert ["1", "3"] in doc["support"]
    edges = [f for f in doc["faces"] if f["dim"] == 1]
    assert len(edges) == 4
    left = [f for f in edges if f.get("r") == "0"]
    assert len(left) == 1
    assert left[0]["points"] == [["0", "2"], ["0", "3"]]


def test_polygon_text(eq_main, capsys):
    code, out, _ = run(capsys, ["polygon", *main_args(eq_main)])
    assert code == EXIT_OK
    assert "edge (0,3)-(0,2): r = 0" in out
    assert "vertex (0,2): r in (0, +inf)" in out
    assert "vertex (0,3): r in (-inf, 0)" in out
    assert "does not face x -> 0" in out


def test_polygon_latex(eq_main, capsys):
    code, out, _ = run(capsys, ["polygon", *main_args(eq_main), "--format", "latex"])
    assert code == EXIT_OK
    assert "\\mathrm{conv}" in out
    assert "(0, 2)" in out


def test_polygon_missing_file(capsys):
    code, _, err = run(capsys, ["polygon", "--eq", "no-such-file.qde"])
    assert code == EXIT_INPUT
    assert "error:" in err


def test_polygon_parse_error(tmp_path, capsys):
    path = write_eq(tmp_path, "y + + x = 0")
    code, _, err = run(capsys, ["polygon", "--eq", path])
    assert code == EXIT_INPUT
    assert "line 1, column 5" in err


def test_polygon_undeclared_symbol(tmp_path, capsys):
    path = write_eq(tmp_path, "a*y - x = 0")
    code, _, err = run(capsys, ["polygon", "--eq", path])
    assert code == EXIT_INPUT
    assert "a" in err


# -- truncate


def test_truncate_text(eq_main, capsys):
    code, out, _ = run(capsys, ["truncate", *main_args(eq_main), "--q", "1/2"])
    assert code == EXIT_OK
    assert "determining polynomial in c: -1/2*c^3 - 1/2*c^2" in out
    assert "c = -1, r = 0 (edge-root)" in out
    assert "no admissible roots" in out
    assert "root c=0 discarded (c must be nonzero)" in out
    assert "root w=0 excluded (q^r is never 0)" in out


def test_truncate_json(eq_main, capsys):
    code, out, _ = run(
        capsys, ["truncate", *main_args(eq_main), "--q", "1/2", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, TRUNCATE_SCHEMA)
    assert doc["q"] == "1/2"
    edge = [f for f in doc["faces"] if f["face"].get("r") == "0"]
    assert len(edge) == 1
    entry = edge[0]
    assert entry["variable"] == "c"
    assert [p["power"] for p in entry["poly"]] == [3, 2]
    assert {"value": "-1", "multiplicity": 1} in entry["roots"]
    assert len(entry["candidates"]) == 1
    cand = entry["candidates"][0]
    assert cand["r"] == "0"
    assert cand["provenance"] == "edge-root"
    assert cand["c"] == [{"coef": "-1", "monomial": {}}]


def test_truncate_strings_reparse(eq_main, capsys):
    _, out, _ = run(
        capsys, ["truncate", *main_args(eq_main), "--q", "1/2", "--format", "json"]
    )
    f = parse_equation(EQ_MAIN, ["a3", "a4"])
    for entry in json.loads(out)["faces"]:
        g = parse_equation(entry["truncated"], ["a3", "a4"])
        assert str(g) == entry["truncated"]
        assert support(g) <= support(f)


def test_truncate_single_face(eq_main, capsys):
    code, out, _ = run(
        capsys,
        ["truncate", *main_args(eq_main), "--q", "1/2", "--face", "(0,3)-(0,2)"],
    )
    assert code == EXIT_OK
    assert out.count("truncated sum:") == 1
    assert "c = -1, r = 0 (edge-root)" in out


def test_face_selector_allows_spaces_around_dash(eq_main, capsys):
    args = ["truncate", *main_args(eq_main), "--q", "1/2", "--format", "json"]
    tight = run(capsys, [*args, "--face", "(0,3)-(0,2)"])
    spaced = run(capsys, [*args, "--face", "(0, 3) - (0, 2)"])
    assert spaced == tight
    assert tight[0] == EXIT_OK and len(json.loads(tight[1])["faces"]) == 1


def test_truncate_irrational_power_note(tmp_path, capsys):
    path = write_eq(tmp_path, "y^3 - x*S(y) = 0")
    code, out, _ = run(capsys, ["truncate", "--eq", path, "--q", "1/2"])
    assert code == EXIT_OK
    assert "irrational q-power: (1/2)^(1/2)" in out
    code, out, _ = run(capsys, ["truncate", "--eq", path, "--q", "1/16"])
    assert code == EXIT_OK
    assert "c = -1/2, r = 1/2 (edge-root)" in out
    assert "c = 1/2, r = 1/2 (edge-root)" in out


def test_user_r_needing_an_irrational_q_power_is_a_note(tmp_path, capsys):
    path = write_eq(tmp_path, "S(y) - 4*y + x")
    args = ["--eq", path, "--q", "1/2", "--face", "(0,1)", "--r", "1/2"]
    note = "y = (c)*x^1/2 cannot be checked (irrational q-power: (1/2)^(1/2)) on face (0,1)"
    code, out, _ = run(capsys, ["truncate", *args])
    assert code == EXIT_OK
    assert "c = c, r = -2 (vertex-root)" in out and f"note: {note}" in out
    for command in (["expand"], ["verify", "--assign", "c=1"]):
        code, _, err = run(capsys, [*command, *args])
        assert code == EXIT_INPUT
        assert "no truncated-solution candidates" in err and note in err


def test_truncate_bad_face(eq_main, capsys):
    code, _, err = run(
        capsys, ["truncate", *main_args(eq_main), "--q", "1/2", "--face", "(9,9)"]
    )
    assert code == EXIT_INPUT
    assert "no face" in err


def test_truncate_invalid_q(eq_main, capsys):
    for bad in ["--q", "1"], ["--q", "0"], ["--q=-1/2"]:
        code, _, err = run(capsys, ["truncate", *main_args(eq_main), *bad])
        assert code == EXIT_INPUT
        assert "q must be" in err


def test_truncate_edge_away_from_zero(tmp_path, capsys):
    # this edge does not face x -> 0, so it admits no r
    path = write_eq(tmp_path, "y + x*y^3 + x^3")
    code, out, _ = run(
        capsys, ["truncate", "--eq", path, "--q", "1/2", "--face", "(3,0)-(1,3)"]
    )
    assert code == EXIT_OK
    assert "note: edge does not face x -> 0; no admissible r" in out


def test_bad_point_in_face_selector(eq_main, capsys):
    code, _, err = run(
        capsys, ["truncate", *main_args(eq_main), "--q", "1/2", "--face", "(0,1"]
    )
    assert code == EXIT_INPUT
    assert "bad point" in err


def test_edge_selector_with_equal_endpoints(tmp_path, capsys):
    eq = write_eq(tmp_path, "S(y) - 2*y + x")
    for face in ("(0,1)-(0,1)", "(0,1) - (0/3,2/2)"):
        code, out, err = run(capsys, ["expand", "--eq", eq, "--q", "1/2", "--face", face])
        assert (code, out) == (EXIT_INPUT, "")
        assert "an edge needs two distinct endpoints" in err
    # the one point alone still selects the vertex
    code, _, _ = run(capsys, ["expand", "--eq", eq, "--q", "1/2", "--face", "(0,1)"])
    assert code == EXIT_OK


def test_duplicate_parameter_name(eq_main, capsys):
    code, _, err = run(capsys, ["polygon", "--eq", eq_main, "--params", "a,a"])
    assert code == EXIT_INPUT
    assert "duplicate parameter name" in err


# -- expand


def test_expand_text_logarithmic_case(eq_main, capsys):
    code, out, _ = run(
        capsys, ["expand", *main_args(eq_main), "--q", "1/2", "--kmax", "1"]
    )
    assert code == EXIT_OK
    assert "q = 1/2, base: c = -1, r = 0" in out
    assert "K within (0, 1]: 1" in out
    assert "y = -1 + (2*a3*log_{1/2}(x) + C1)*x" in out
    assert "constants: C1 (k=1)" in out
    assert "k = 1: mu = 1, compatible: no" in out
    assert "eigenvalue roots without rational log: 3/2" in out
    assert "log-free: no" in out


def test_expand_text_log_free_case(eq_main, capsys):
    code, out, _ = run(
        capsys, ["expand", *main_args(eq_main), "--q", "1/4", "--kmax", "1"]
    )
    assert code == EXIT_OK
    assert "K within (0, 1]: 1/2, 1" in out
    assert "y = -1 + C1*x^(1/2) + (-16/5*a3 - 2/5*C1^2)*x" in out
    assert "constants: C1 (k=1/2)" in out
    assert "k = 1/2: mu = 1, compatible: yes" in out
    assert "log-free: yes" in out


def test_expand_text_unresolved_eigenvalues(tmp_path, capsys):
    # L(s) = s^2 - s - 1: both roots are irrational
    path = write_eq(tmp_path, "S^2(y) - S(y) - y + x")
    code, out, _ = run(
        capsys,
        ["expand", "--eq", path, "--q", "1/2", "--face", "(0,1)-(1,0)", "--kmax", "2"],
    )
    assert code == EXIT_OK
    assert "unresolved eigenvalues (non-rational roots): 2" in out


def test_expand_json(eq_main, capsys):
    code, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--format", "json"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, EXPAND_SCHEMA)
    assert doc["q"] == "1/2"
    assert doc["r"] == "0"
    assert doc["c"] == [{"coef": "-1", "monomial": {}}]
    assert doc["constants"] == ["C1"]
    assert doc["critical"] == [{"k": "1", "mu": 1, "compatible": False}]
    assert doc["skipped_irrational"] == ["3/2"]
    assert doc["unresolved"] == 0
    assert doc["log_free"] is False
    (term,) = doc["terms"]
    assert term["k"] == "1"
    assert [e["t_power"] for e in term["beta"]] == [1, 0]
    assert term["beta"][0]["coeff"] == [{"coef": "2", "monomial": {"a3": 1}}]
    assert term["beta"][1]["coeff"] == [{"coef": "1", "monomial": {"C1": 1}}]


def test_expand_json_log_free(eq_main, capsys):
    code, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/4", "--kmax", "3", "--format", "json"],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, EXPAND_SCHEMA)
    assert doc["log_free"] is True
    assert doc["critical"] == [{"k": "1/2", "mu": 1, "compatible": True}]
    assert [term["k"] for term in doc["terms"]] == ["1/2", "1", "3/2", "2", "5/2", "3"]
    assert all(len(term["beta"]) == 1 for term in doc["terms"])
    assert all(term["beta"][0]["t_power"] == 0 for term in doc["terms"])


def test_expand_json_round_trip(eq_main, capsys):
    f = parse_equation(EQ_MAIN, ["a3", "a4"])
    polygon = build_polygon(support(f))
    edge = find_face(polygon, ((F(0), F(2)), (F(0), F(3))))
    for q in ("1/4", "1/2"):  # log-free, and with powers of t
        _, out, _ = run(
            capsys,
            ["expand", *main_args(eq_main), "--q", q, "--kmax", "2", "--format", "json"],
        )
        rebuilt = series_from_json(json.loads(out))
        (ts,) = analyze_face(f, edge, Fraction(q)).candidates
        want = expand_solution(f, ts, 2).series
        assert rebuilt == want


def _one_term_doc(beta):
    return {
        "q": "1/2",
        "r": "0",
        "c": [{"coef": "1", "monomial": {}}],
        "terms": [{"k": "1", "beta": beta}],
    }


def _beta_entry(power, coef="5", monomial=None):
    return {"t_power": power, "coeff": [{"coef": coef, "monomial": monomial or {}}]}


@pytest.mark.parametrize(
    "change",
    [
        {"c": []},
        {"r": "1/2"},
        {"r": "1"},
        {"terms": [{"k": "1", "beta": [_beta_entry(0, c)]} for c in ("5", "7")]},
        {"terms": [{"k": k, "beta": [_beta_entry(0)]} for k in ("1", "1/2")]},
    ],
    ids=["zero_c", "r_at_first_term", "r_above_first_term", "repeated_k", "descending_k"],
)
def test_series_from_json_refuses_bad_base(eq_main, capsys, change):
    _, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/4", "--kmax", "2", "--format", "json"],
    )
    doc = json.loads(out)
    assert doc["terms"][0]["k"] == "1/2"
    series_from_json(doc)
    doc.update(change)
    with pytest.raises(ValueError):
        series_from_json(doc)


@pytest.mark.parametrize(
    "beta",
    [
        [_beta_entry(2), _beta_entry(-1, "7")],
        [_beta_entry(2), _beta_entry(2, "7")],
        [_beta_entry(1.5)],
        [_beta_entry(2, monomial={"a": 1.5})],
        [_beta_entry(2, monomial={"a": 0})],
        [
            {
                "t_power": 2,
                "coeff": [
                    {"coef": "5", "monomial": {"a": 1}},
                    {"coef": "7", "monomial": {"a": 1}},
                ],
            }
        ],
    ],
    ids=[
        "negative_t_power",
        "repeated_t_power",
        "fractional_t_power",
        "fractional_exponent",
        "zero_exponent",
        "repeated_monomial",
    ],
)
def test_series_from_json_refuses_bad_powers(beta):
    good = series_from_json(_one_term_doc([_beta_entry(2, monomial={"a": 1})]))
    assert good.coefficient(1) == TPoly([0, 0, 5 * ParamPoly.symbol("a")])
    with pytest.raises(ValueError):
        series_from_json(_one_term_doc(beta))


@pytest.mark.parametrize(
    "beta",
    [[_beta_entry(2**31)], [_beta_entry(2, monomial={"a": 2**31})]],
    ids=["t_power", "parameter_exponent"],
)
def test_series_from_json_refuses_power_of_2_31(deadline, beta):
    # refused before a coefficient list of 2^31 slots is built
    with deadline(1):
        with pytest.raises(ResourceLimitError, match=r"reaches 2\^31"):
            series_from_json(_one_term_doc(beta))


@pytest.mark.parametrize(
    "beta, named",
    [
        ([], "empty beta"),
        ([_beta_entry(2, "0")], "zero coefficient"),
        ([{"t_power": 2, "coeff": []}], "empty coeff list"),
        ([_beta_entry(1), _beta_entry(2, "7")], "not descending"),
    ],
    ids=["empty_beta", "zero_coef", "empty_coeff", "ascending_t_power"],
)
def test_series_from_json_refuses_non_canonical_entries(beta, named):
    # expansion_json never writes these; a repaired term would silently vanish
    with pytest.raises(ValueError, match=named):
        series_from_json(_one_term_doc(beta))


@pytest.mark.parametrize("power", [10**6, 2**31 - 1])
def test_series_from_json_builds_a_sparse_beta(deadline, power):
    with deadline(0.5):
        series = series_from_json(_one_term_doc([_beta_entry(power), _beta_entry(0, "-1/3")]))
        assert series.coefficient(1) == TPoly({power: 5, 0: F(-1, 3)})


def test_deep_log_document_round_trips(eq_main, capsys):
    argv = ["expand", *main_args(eq_main), "--face", "(0,3)-(0,2)", "--q", "1/2",
            "--kmax", "8", "--format", "json"]
    _, out, _ = run(capsys, argv)
    want = cli._expand_pipeline(cli.build_parser().parse_args(argv))[2].series
    rebuilt = series_from_json(json.loads(out))
    assert rebuilt == want


def test_expand_document_matches_the_fraction_builder():
    """expansion_json formats the store's ints; the oracle goes through
    Fractions and rat_str.  The cubic brings negative fractions, products
    of parameters and constants and several t-degrees, q = 1/4 t-free
    betas, and the seeded planted equations unit and integer coefficients."""
    f = parse_equation(EQ_MAIN, ["a3", "a4"])
    edge = find_face(build_polygon(support(f)), ((F(0), F(2)), (F(0), F(3))))
    results = [
        expand_solution(f, analyze_face(f, edge, q).candidates[0], 6)
        for q in (F(1, 2), F(1, 4))
    ]
    rng = random.Random(20261020)
    while len(results) < 30:
        eq, q, c, r, endpoints = random_edge_equation(rng)
        face = find_face(build_polygon(support(eq)), endpoints)
        ts = verified_solution(eq, face, c, r, q)
        with contextlib.suppress(QDulacError):
            results.append(expand_solution(eq, ts, r + F(rng.randint(2, 8), 2)))
    coefs, sizes, degrees = set(), set(), set()
    for result in results:
        doc = cli.expansion_json(result)
        assert doc == reference_expansion_json(result)
        for term in doc["terms"]:
            degrees.add(tuple(entry["t_power"] for entry in term["beta"]))
            for entry in term["beta"]:
                coefs.update(t["coef"] for t in entry["coeff"])
                sizes.update(len(t["monomial"]) for t in entry["coeff"])
    assert {"1", "-1"} <= coefs
    assert any("/" not in c and abs(int(c)) > 1 for c in coefs)
    assert any(c.startswith("-") and "/" in c for c in coefs)
    assert max(sizes) >= 2
    assert (0,) in degrees and max(map(len, degrees)) >= 3


def test_expand_json_ignores_log_base(eq_main, capsys):
    base_args = ["expand", *main_args(eq_main), "--q", "1/4", "--kmax", "1"]
    _, plain, _ = run(capsys, [*base_args, "--format", "json"])
    _, rebased, _ = run(capsys, [*base_args, "--format", "json", "--log-base", "2"])
    assert json.loads(plain) == json.loads(rebased)


def test_expand_latex(eq_main, capsys):
    code, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--format", "latex"],
    )
    assert code == EXIT_OK
    line = "y = -1 + \\left(2 a_{3} \\, \\log_{1/2}(x) + C_{1}\\right) x + \\cdots"
    assert out.strip() == line
    code, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/4", "--kmax", "1", "--format", "latex"],
    )
    assert code == EXIT_OK
    assert "C_{1} \\, x^{1/2}" in out
    assert "-\\frac{16}{5} a_{3}" in out


def test_expand_log_base_display(eq_main, capsys):
    code, out, _ = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--log-base", "2"],
    )
    assert code == EXIT_OK
    assert "y = -1 + (-2*a3*log_{2}(x) + C1)*x" in out


def test_expand_log_base_must_be_compatible(eq_main, capsys):
    code, _, err = run(
        capsys,
        ["expand", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--log-base", "1/3"],
    )
    assert code == EXIT_INPUT
    assert "not a rational power" in err


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("base", ["abc", "0", "1", "-1/2", "1/0", ""])
def test_expand_refuses_malformed_log_base_first(fmt, base, tmp_path, capsys):
    # no equation file: the base is refused before anything is read
    missing = str(tmp_path / "missing.qde")
    argv = ["expand", "--eq", missing, "--q", "1/2", "--format", fmt, f"--log-base={base}"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --log-base {base!r}: not a positive rational != 1\n"


@pytest.mark.parametrize("fmt", ["text", "latex"])
def test_expand_refuses_incompatible_log_base_first(fmt, tmp_path, capsys):
    missing = str(tmp_path / "missing.qde")
    argv = ["expand", "--eq", missing, "--q", "1/2", "--format", fmt, "--log-base", "1/3"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: q=1/2 is not a rational power of base 1/3\n"


def test_expand_explicit_face_and_root(eq_main, capsys):
    code, out, _ = run(
        capsys,
        [
            "expand",
            *main_args(eq_main),
            "--q",
            "1/2",
            "--kmax",
            "1",
            "--face",
            "(0,3)-(0,2)",
            "--c",
            "-1",
        ],
    )
    assert code == EXIT_OK
    assert "y = -1 + (2*a3*log_{1/2}(x) + C1)*x" in out


def test_expand_override_needs_face(eq_main, capsys):
    code, _, err = run(
        capsys, ["expand", *main_args(eq_main), "--q", "1/2", "--c", "-1"]
    )
    assert code == EXIT_INPUT
    assert "--c/--r need an explicit --face" in err


def test_expand_ambiguous_candidates(tmp_path, capsys):
    path = write_eq(tmp_path, "y^2 - x^2 = 0")
    code, _, err = run(capsys, ["expand", "--eq", path, "--q", "1/2"])
    assert code == EXIT_INPUT
    assert "2 candidates" in err
    assert "c=-1, r=1" in err and "c=1, r=1" in err


def test_expand_no_candidates(eq_main, capsys):
    code, _, err = run(
        capsys, ["expand", *main_args(eq_main), "--q", "1/2", "--face", "(0,2)"]
    )
    assert code == EXIT_INPUT
    assert "no truncated-solution candidates" in err
    assert "truncate command" in err


def test_expand_missing_linear_part(tmp_path, capsys):
    path = write_eq(tmp_path, "y^2 - x^2 = 0")
    code, _, err = run(
        capsys,
        ["expand", "--eq", path, "--q", "1/2", "--face", "(0,2)-(2,0)", "--c", "1"],
    )
    assert code == QDulacError.exit_code
    assert "no terms at support point (0,1)" in err


def test_expand_invalid_q(eq_main, capsys):
    code, _, err = run(capsys, ["expand", *main_args(eq_main), "--q", "1"])
    assert code == EXIT_INPUT
    assert "q must be" in err


def test_expand_small_equation(tmp_path, capsys):
    path = write_eq(tmp_path, "y - x + x*y*S(y) = 0")
    code, out, _ = run(
        capsys,
        [
            "expand",
            "--eq",
            path,
            "--q",
            "1/2",
            "--kmax",
            "5",
            "--face",
            "(0,1)-(1,0)",
        ],
    )
    assert code == EXIT_OK
    assert "y = x - 1/2*x^3 + 5/16*x^5" in out
    assert "log-free: yes" in out


# -- verify


def test_verify_pass_json(eq_main, capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            *main_args(eq_main),
            "--q",
            "1/2",
            "--kmax",
            "3",
            "--assign",
            "a3=1,a4=1,C1=1",
            "--format",
            "json",
        ],
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_SCHEMA)
    assert doc == {"k_max": "3", "residual_min_exponent": None, "pass": True}


def test_verify_pass_text(eq_main, capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            *main_args(eq_main),
            "--q",
            "1/4",
            "--kmax",
            "2",
            "--assign",
            "a3=1,a4=-2,C1=3/7",
        ],
    )
    assert code == EXIT_OK
    assert "residual: zero through k_max = 2" in out


def test_verify_unbound_symbol(eq_main, capsys):
    code, _, err = run(
        capsys,
        ["verify", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--assign", "a3=1"],
    )
    assert code == EXIT_INPUT
    assert "a4" in err or "C1" in err


def test_verify_bad_assignment(eq_main, capsys):
    code, _, err = run(
        capsys,
        ["verify", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--assign", "a3"],
    )
    assert code == EXIT_INPUT
    assert "expected name=p/m" in err


def test_verify_repeated_assignment(eq_main, capsys):
    # one value per name, as --params takes each name once
    code, _, err = run(
        capsys,
        ["verify", *main_args(eq_main), "--q", "1/2", "--kmax", "1",
         "--assign", "a3=1,a4=2,C1=3,C1=5"],
    )
    assert code == EXIT_INPUT
    assert "duplicate assigned name 'C1'" in err


def test_verify_detects_truncation_gap(eq_main, capsys, monkeypatch):
    args = [
        "verify",
        *main_args(eq_main),
        "--q",
        "1/2",
        "--kmax",
        "3",
        "--assign",
        "a3=1,a4=1,C1=1",
    ]
    pipeline = cli._expand_pipeline

    def broken_pipeline(ns):
        f, k_max, result = pipeline(ns)
        bare = result._replace(
            series=PowerLogSeries(
                result.series.q, [], base_shift=result.series.base_shift
            ),
        )
        return f, k_max, bare

    monkeypatch.setattr(cli, "_expand_pipeline", broken_pipeline)
    code, out, _ = run(capsys, [*args, "--format", "json"])
    assert code == EXIT_VERIFY
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_SCHEMA)
    assert doc == {"k_max": "3", "residual_min_exponent": "1", "pass": False}
    code, out, _ = run(capsys, args)
    assert code == EXIT_VERIFY
    assert "residual: nonzero at exponent 1 (k_max = 3)" in out


def test_verify_empty_assignment(tmp_path, capsys):
    eq = write_eq(tmp_path, "S(y) - 2*y + x + x*y^5 + x*y^4 + x*y^3 = 0")
    args = ["verify", "--eq", eq, "--q", "1/2", "--kmax", "5", "--assign", ""]
    code, out, _ = run(capsys, args)
    assert code == EXIT_OK
    assert "residual: zero through k_max = 5" in out


def test_verify_empty_assignment_unbound(eq_main, capsys):
    code, _, err = run(
        capsys,
        ["verify", *main_args(eq_main), "--q", "1/2", "--kmax", "1", "--assign", ""],
    )
    assert code == EXIT_INPUT
    assert "a3" in err or "a4" in err or "C1" in err


# -- plot


def test_plot_deterministic(eq_main, tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        code, out, _ = run(
            capsys, ["plot", *main_args(eq_main), "--svg", str(target)]
        )
        assert code == EXIT_OK
        assert f"wrote {target}" in out
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    text = blob.decode("utf-8")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")


# -- process-level entry point


def test_module_entry_point(eq_main):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qdulac.cli",
            "expand",
            "--eq",
            eq_main,
            "--params",
            "a3,a4",
            "--q",
            "1/2",
            "--kmax",
            "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert "y = -1 + (2*a3*log_{1/2}(x) + C1)*x" in proc.stdout


def test_reused_parser_matches_fresh_processes(eq_main, capsys, monkeypatch):
    # argparse wraps usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    common = [*main_args(eq_main), "--q", "1/2", "--kmax", "2"]
    commands = [
        ["polygon", *main_args(eq_main)],
        ["truncate", *main_args(eq_main), "--q", "1/2"],
        ["expand", *common, "--log-base", "2"],
        ["verify", *common],  # no --assign: argparse exits with 2
        ["verify", *common, "--assign", "a3=1,a4=2,C1=3", "--format", "json"],
        ["expand", *common],
    ]
    results = []
    for argv in commands:
        fresh = subprocess.run(
            [sys.executable, "-m", "qdulac.cli", *argv], capture_output=True, text=True
        )
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [code for code, _, _ in results] == [0, 0, 0, 2, 0, 0]
    assert "the following arguments are required: --assign" in results[3][2]
    assert cli.build_parser() is cli.build_parser()
    fresh_parser = cli.build_parser.__wrapped__()
    assert cli.build_parser().format_help() == fresh_parser.format_help()
    for command in ("polygon", "truncate", "expand", "verify", "plot"):
        with pytest.raises(SystemExit) as reused:
            main([command, "--help"])
        reused_help = capsys.readouterr().out
        with pytest.raises(SystemExit) as built:
            fresh_parser.parse_args([command, "--help"])
        assert reused.value.code == built.value.code == 0
        assert reused_help == capsys.readouterr().out


@pytest.mark.parametrize(
    "exponent, code", [(4_000_000, EXIT_OK), (2**31, QDulacError.exit_code)]
)
def test_polygon_huge_parameter_power(tmp_path, capsys, deadline, exponent, code):
    # a^n is built by repeated squaring, and a field of 2^31 is refused
    path = write_eq(tmp_path, f"a^{exponent}*x*y^2 + S(y) - 2*y + x = 0")
    with deadline(2):
        got, out, err = run(capsys, ["polygon", "--eq", path, "--params", "a"])
    assert got == code
    if code == EXIT_OK:
        assert f"a^{exponent}*x*y^2" in out
    else:
        assert "exponent of a reaches 2^31" in err
        with pytest.raises(ResourceLimitError):
            parse_equation(f"a^{exponent}*x", ["a"])


@pytest.mark.parametrize(
    "command, text",
    [
        ("truncate", "y^99999999999999999999 - x"),
        ("truncate", "S^99999999999999999999(y) - 2*y + x"),
        ("truncate", "y^1073741824*y^1073741824 - x"),
        ("truncate", "(y + 1)^2147483648 + x"),
        ("expand", "S^99999999999999999999(y) - 2*y + x"),
        ("expand", "S(y) - 2*y + x + x*y^99999999999999999999"),
    ],
)
def test_y_power_and_shift_level_limit(tmp_path, capsys, deadline, command, text):
    # a dense list per y power or shift level raised OverflowError (exit 1)
    # or ran for minutes; 2^31 is refused as for parameter exponents
    argv = [command, "--eq", write_eq(tmp_path, text), "--q", "1/2"]
    if command == "expand":
        argv += ["--face", "(0,1)-(1,0)"]
    with deadline(2):
        got, out, err = run(capsys, argv)
    assert got == QDulacError.exit_code
    assert err.count("\n") == 1 and err.startswith("error: ") and "2^31" in err


def test_y_power_limit_in_constructor():
    for sigma in (((2**31, 1),), ((0, 2**31),), ((1, 2**30), (1, 2**30))):
        with pytest.raises(ResourceLimitError):
            QPolynomial([QTerm(ParamPoly.const(1), 0, sigma)])
    assert parse_equation("y^2147483647 - x").terms[0].y_degree == 2**31 - 1


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "expand_solution", exhaust)
    path = write_eq(tmp_path, "S(y) - 2*y + x")
    argv = ["expand", "--eq", path, "--q", "1/2", "--face", "(0,1)-(1,0)"]
    got, out, err = run(capsys, argv)
    assert (got, out, err) == (QDulacError.exit_code, "", "error: out of memory\n")


# The exit code of every error class that the CLI mapped before each class
# carried its own: input errors 2, structural and internal conditions 3.
MAPPED_EXIT_CODES = {
    "ParseError": EXIT_INPUT,
    "InvalidQError": EXIT_INPUT,
    "ReservedSymbolError": EXIT_INPUT,
    "UnboundSymbolError": EXIT_INPUT,
    "TruncatedSolutionError": EXIT_INPUT,
    "IndeterminateEquationError": EXIT_INPUT,
    "EmptySupportError": EXIT_INPUT,
    "LinearPartError": QDulacError.exit_code,
    "LinearVertexError": QDulacError.exit_code,
    "LinearCoefficientError": QDulacError.exit_code,
    "ExponentOrderError": QDulacError.exit_code,
    "IrrationalQPowerError": QDulacError.exit_code,
    "ResourceLimitError": QDulacError.exit_code,
    "DegreeBoundError": QDulacError.exit_code,
    "InternalInvariantError": QDulacError.exit_code,
}


def _error_classes(cls=errors.QDulacError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def test_every_error_class_owns_an_exit_code():
    codes = {cls.__name__: cls.exit_code for cls in _error_classes()}
    assert QDulacError.exit_code == 3  # the README's exit-code table
    assert set(codes.values()) <= {EXIT_INPUT, QDulacError.exit_code}
    assert {name: codes[name] for name in MAPPED_EXIT_CODES} == MAPPED_EXIT_CODES
    assert codes["NotAVertexError"] == QDulacError.exit_code
    assert codes["InconsistentEdgeError"] == QDulacError.exit_code


@pytest.mark.parametrize(
    "error", [errors.NotAVertexError, errors.InconsistentEdgeError, errors.QDulacError]
)
def test_unmapped_error_class_exits_3(eq_main, capsys, monkeypatch, error):
    def refuse(*args, **kwargs):
        raise error("refused by the face analysis")

    monkeypatch.setattr(cli, "analyze_face", refuse)
    code, out, err = run(capsys, ["truncate", *main_args(eq_main), "--q", "1/2"])
    assert (code, out) == (QDulacError.exit_code, "")
    assert err == "error: refused by the face analysis\n"


# -- integers beyond CPython's int <-> str digit limit (4300 digits)

BIG = "7" * 5000
BIG_Q = "1/" + "3" * 4400
EDGE = ["--face", "(0,1)-(1,0)", "--kmax", "2"]  # r = 1 on this edge


@pytest.mark.parametrize(
    "equation, argv, shown",
    [
        (f"S(y) - 2*y + {BIG}*x", ["polygon"], f"{BIG}*x"),
        # c = BIG/(2 - q) = 2*BIG/3
        (
            f"S(y) - 2*y + {BIG}*x",
            ["expand", "--q", "1/2", *EDGE],
            "c = 1" + "5" * 4999 + "4/3,",
        ),
        # c = 1/(2 - q) = N/(2N - 1) for q = 1/N
        (
            "S(y) - 2*y + x",
            ["expand", "--q", BIG_Q, *EDGE],
            f"q = {BIG_Q}, base: c = {'3' * 4400}/{'6' * 4399}5,",
        ),
    ],
    ids=["polygon_big_coefficient", "expand_big_coefficient", "expand_big_q"],
)
def test_cli_lifts_the_digit_limit(tmp_path, capsys, deadline, equation, argv, shown):
    path = write_eq(tmp_path, equation)
    with deadline(3):
        code, out, err = run(capsys, [argv[0], "--eq", path, *argv[1:]])
    assert (code, err) == (EXIT_OK, "")
    assert shown in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before 3.10.7"
)
@pytest.mark.parametrize(
    "text, code", [(f"{BIG}*x + y", EXIT_OK), ("y +", EXIT_INPUT)], ids=["ok", "error"]
)
def test_cli_restores_the_digit_limit(tmp_path, capsys, text, code):
    path = write_eq(tmp_path, text)
    before = sys.get_int_max_str_digits()
    assert before > 0
    assert run(capsys, ["polygon", "--eq", path])[0] == code
    assert sys.get_int_max_str_digits() == before


# -- nesting depth of parentheses


@pytest.mark.parametrize(
    "depth, code",
    [(100, EXIT_OK), (101, ResourceLimitError.exit_code), (250, ResourceLimitError.exit_code)],
)
def test_parenthesis_depth_limit(tmp_path, capsys, depth, code):
    path = write_eq(tmp_path, "(" * depth + "y" + ")" * depth + " - 2*S(y) + x")
    got, out, err = run(capsys, ["polygon", "--eq", path])
    assert got == code
    if code == EXIT_OK:
        assert (out.splitlines()[0], err) == ("equation: y - 2*S(y) + x", "")
    else:
        assert out == ""
        assert err == (
            "error: parentheses nest deeper than 100 levels (line 1, column 101)\n"
        )


# -- the JSON writer: the bytes of json.dumps(doc, indent=2)

json_strings = st.text() | st.text(alphabet='"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600a')
json_ints = st.integers() | st.integers(10**4300, 10**4400).flatmap(lambda n: st.sampled_from([n, -n]))
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=24,
)


@contextlib.contextmanager
def no_digit_limit():
    """CPython's int <-> str digit limit lifted, as `cli.main` lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


@settings(deadline=None)
@given(json_values)
@example({"": [[], {}, [[]], {"a": {}}], "n": -7 * 10**4400, "s": "\"\\\x00\u00e9\U0001f600"})
def test_json_text_matches_json_dumps(value):
    with no_digit_limit():
        assert cli.json_text(value) == json.dumps(value, indent=2)


# ASCII with its control characters and DEL, astral characters and a lone surrogate
quote_chars = st.characters(max_codepoint=0x80) | st.sampled_from("\U0001f600\U0010ffff\ud800")


@settings(derandomize=True, max_examples=500)
@given(st.text() | st.text(quote_chars))
def test_quote_matches_json_dumps(text):
    assert cli._quote(text) == json.dumps(text)


@pytest.mark.parametrize(
    "value", [1.5, {"a": [0.0]}, {1: "x"}, {"a": {True: 1}}, ("a",)],
    ids=["float", "nested_float", "int_key", "bool_key", "tuple"],
)
def test_json_text_refuses_what_no_document_holds(value):
    with pytest.raises(TypeError):
        cli.json_text(value)
