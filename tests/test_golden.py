"""Byte-identity of full CLI output on fixed golden cases.

Each case runs `qdulac.cli.main(argv)` in process and compares stdout,
stderr and the exit code with the files under tests/golden/; the `plot`
case also compares the SVG it writes.  The other CLI tests only check
substrings, so these cases are what pins every byte a user sees.  The
four published JSON schemas are pinned the same way, as the text of
tests/golden/schemas.json.

To regenerate the expected files after a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py

To compare every case without pytest, writing nothing under tests/:

    PYTHONPATH=src python tests/test_golden.py --check

It prints each case that differs and exits 1 if any does.
"""

import argparse
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
MAIN = str(GOLDEN / "main.qde")
VERTEX = str(GOLDEN / "vertex.qde")
PARAM = str(GOLDEN / "param.qde")
DEGENERATE = str(GOLDEN / "degenerate.qde")
EXPECTED = GOLDEN / "expected.json"
SCHEMAS = GOLDEN / "schemas.json"
SCHEMA_NAMES = ("POLYGON_SCHEMA", "TRUNCATE_SCHEMA", "EXPAND_SCHEMA", "VERIFY_SCHEMA")
SVG_NAME = "polygon.svg"

_MAIN = ["--eq", MAIN, "--params", "a3,a4"]
_EDGE = ["--face", "(0,3)-(0,2)", "--c", "-1", "--kmax", "5"]
_ASSIGN = ["--assign", "a3=1,a4=2,C1=3"]
_PARAM = ["--eq", PARAM, "--params", "a"]
_FORMATS = ("text", "json", "latex")


def _cases() -> dict:
    cases = {}
    for fmt in _FORMATS:
        fmt_args = ["--format", fmt]
        cases[f"polygon_main_{fmt}"] = ["polygon", *_MAIN, *fmt_args]
        cases[f"truncate_main_q1_2_{fmt}"] = [
            "truncate", *_MAIN, "--q", "1/2", *fmt_args
        ]
        for name, q in (("q1_2", "1/2"), ("q1_4", "1/4")):
            cases[f"expand_main_{name}_{fmt}"] = [
                "expand", *_MAIN, "--q", q, *_EDGE, *fmt_args
            ]
            cases[f"verify_main_{name}_{fmt}"] = [
                "verify", *_MAIN, "--q", q, *_EDGE, *_ASSIGN, *fmt_args
            ]
        cases[f"expand_main_q1_2_logbase1_4_{fmt}"] = [
            "expand", *_MAIN, "--q", "1/2", *_EDGE, "--log-base", "1/4", *fmt_args
        ]
        for name, q in (("q1_2", "1/2"), ("q3", "3")):
            cases[f"truncate_vertex_{name}_{fmt}"] = [
                "truncate", "--eq", VERTEX, "--q", q, *fmt_args
            ]
            cases[f"expand_vertex_{name}_{fmt}"] = [
                "expand", "--eq", VERTEX, "--q", q, *fmt_args
            ]
        cases[f"expand_vertex_q1_2_face_{fmt}"] = [
            "expand", "--eq", VERTEX, "--q", "1/2", "--face", "(0,1)", *fmt_args
        ]
        cases[f"verify_vertex_q3_{fmt}"] = [
            "verify", "--eq", VERTEX, "--q", "3", "--assign", "c=1", *fmt_args
        ]
        cases[f"polygon_param_{fmt}"] = ["polygon", *_PARAM, *fmt_args]
        cases[f"truncate_param_q1_4_{fmt}"] = [
            "truncate", *_PARAM, "--q", "1/4", *fmt_args
        ]
        cases[f"expand_param_q1_4_{fmt}"] = [
            "expand", *_PARAM, "--q", "1/4", "--face", "(0,1)-(1,0)",
            "--kmax", "3", *fmt_args
        ]
    for fmt in ("text", "json"):
        fmt_args = ["--format", fmt]
        for name, face_args in (
            ("", []),
            ("_edge_c3_r0", ["--face", "(1,2)-(0,1)", "--c", "3", "--r", "0"]),
            ("_vertex_c2_r1", ["--face", "(0,1)", "--c", "2", "--r", "1"]),
        ):
            cases[f"truncate_degenerate_q1_2{name}_{fmt}"] = [
                "truncate", "--eq", DEGENERATE, "--q", "1/2", *face_args, *fmt_args
            ]
    cases["plot_main"] = ["plot", *_MAIN, "--svg", SVG_NAME]
    return cases


CASES = _cases()


def run_case(argv: list, workdir: Path) -> dict:
    """Exit code, stdout, stderr (and SVG, if written) of one CLI call."""
    from qdulac.cli import main

    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    svg = workdir / SVG_NAME
    if svg.exists():
        result["svg"] = svg.read_text(encoding="utf-8")
        svg.unlink()
    return result


def schemas_text() -> str:
    """The four JSON schemas of `qdulac.cli`, as schemas.json records them."""
    from qdulac import cli

    schemas = {name: getattr(cli, name) for name in SCHEMA_NAMES}
    return json.dumps(schemas, indent=2) + "\n"


def _load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def expected_result(name: str, expected: dict) -> dict:
    """The `run_case` result that the golden files record for `name`."""
    entry = expected[name]
    result = {
        "exit": entry["exit"],
        "stdout": (GOLDEN / f"{name}.out").read_text(encoding="utf-8"),
        "stderr": entry["stderr"],
    }
    if "svg" in entry:
        result["svg"] = (GOLDEN / entry["svg"]).read_text(encoding="utf-8")
    return result


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_golden_output(name, tmp_path):
    expected = expected_result(name, _load_expected())
    assert run_case(CASES[name], tmp_path) == expected


def test_golden_cases_cover_every_expected_file():
    assert set(_load_expected()) == set(CASES)


def test_golden_schemas():
    assert schemas_text() == SCHEMAS.read_text(encoding="utf-8")


def check(workdir: Path) -> int:
    """Run every case against its golden files; 1 if any differs, else 0."""
    expected = _load_expected()
    failed = sorted(set(expected) ^ set(CASES))
    for name in failed:
        print(f"MISSING {name}: a case without golden files or the reverse")
    for name in sorted(set(expected) & set(CASES)):
        if run_case(CASES[name], workdir) != expected_result(name, expected):
            print(f"MISMATCH {name}")
            failed.append(name)
    if schemas_text() != SCHEMAS.read_text(encoding="utf-8"):
        print(f"MISMATCH {SCHEMAS.name}")
        failed.append(SCHEMAS.name)
    total = len(set(expected) | set(CASES)) + 1  # the cases and the schemas
    print(f"{len(failed)} of {total} golden cases differ")
    return 1 if failed else 0


def regenerate(workdir: Path) -> None:
    expected = {}
    for name, argv in sorted(CASES.items()):
        result = run_case(argv, workdir)
        (GOLDEN / f"{name}.out").write_text(result["stdout"], encoding="utf-8")
        entry = {"exit": result["exit"], "stderr": result["stderr"]}
        if "svg" in result:
            entry["svg"] = f"{name}.svg"
            (GOLDEN / entry["svg"]).write_text(result["svg"], encoding="utf-8")
        expected[name] = entry
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n", encoding="utf-8")
    SCHEMAS.write_text(schemas_text(), encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden files.")
    parser.add_argument(
        "--check", action="store_true", help="compare only; write no golden file"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        if args.check:
            sys.exit(check(Path(tmp)))
        regenerate(Path(tmp))
