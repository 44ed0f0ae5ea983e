import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import jsonschema
import pytest

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
from qdulac.qexpr import PowerLogSeries, support
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


def test_truncate_irrational_power_note(tmp_path, capsys):
    path = write_eq(tmp_path, "y^3 - x*S(y) = 0")
    code, out, _ = run(capsys, ["truncate", "--eq", path, "--q", "1/2"])
    assert code == EXIT_OK
    assert "irrational q-power: (1/2)^(1/2)" in out
    code, out, _ = run(capsys, ["truncate", "--eq", path, "--q", "1/16"])
    assert code == EXIT_OK
    assert "c = -1/2, r = 1/2 (edge-root)" in out
    assert "c = 1/2, r = 1/2 (edge-root)" in out


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
        assert rebuilt == expand_solution(f, ts, 2).series


@pytest.mark.parametrize(
    "change",
    [
        {"c": []},
        {"r": "1/2"},
        {"r": "1"},
    ],
    ids=["zero_c", "r_at_first_term", "r_above_first_term"],
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
    "beta",
    [
        [_beta_entry(2), _beta_entry(-1, "7")],
        [_beta_entry(2), _beta_entry(2, "7")],
        [_beta_entry(1.5)],
        [_beta_entry(2, monomial={"a": 1.5})],
        [_beta_entry(2, monomial={"a": 0})],
    ],
    ids=[
        "negative_t_power",
        "repeated_t_power",
        "fractional_t_power",
        "fractional_exponent",
        "zero_exponent",
    ],
)
def test_series_from_json_refuses_bad_powers(beta):
    good = series_from_json(_one_term_doc([_beta_entry(2, monomial={"a": 1})]))
    assert good.coefficient(1) == TPoly([0, 0, 5 * ParamPoly.symbol("a")])
    with pytest.raises(ValueError):
        series_from_json(_one_term_doc(beta))


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
        bare = replace(
            result,
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
