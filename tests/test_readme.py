"""README's examples run as printed.

- The first python block under the heading "## Library use" is executed
  in tests/golden/, where it finds `main.qde`, and every line it prints is
  compared with the expected text.
- Each `$ qdulac ...` block of the section "## Command line" runs through
  `qdulac.cli.main` in a temporary directory that holds a copy of
  `main.qde`, so nothing is written under tests/.  It must exit 0 and
  print the block's lines, where a line "..." (indented or not) stands
  for any run of lines.
- The equation README shows as `main.qde` parses equal to
  tests/golden/main.qde.

Every check raises explicitly, so it also holds under `python -O`.  Runs
under pytest, or on the standard library alone:

    PYTHONPATH=src python tests/test_readme.py
"""

import contextlib
import io
import os
import re
import shlex
import shutil
import tempfile
from pathlib import Path

from qdulac import cli
from qdulac.parser import parse_equation

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# What the example prints: the series through x^3, K and log-free, and
# the residual check's None.
EXPECTED = [
    "-1 + (2*a3*t + C1)*x + (-8/5*a3^2*t^2 + (-8/5*C1*a3 + 144/25*a3^2)*t"
    " + 72/25*C1*a3 - 2/5*C1^2 + 304/125*a3^2)*x^2 + (64/165*a3^3*t^3"
    " + (32/55*C1*a3^2 - 35584/3025*a3^3)*t^2 + (64/33*a3*a4"
    " - 35584/3025*C1*a3^2 + 16/55*C1^2*a3 + 5718688/499125*a3^3)*t"
    " + 32/33*C1*a4 + 896/1089*a3*a4 + 2859344/499125*C1*a3^2"
    " - 8896/3025*C1^2*a3 + 8/165*C1^3 + 100086208/16471125*a3^3)*x^3",
    "(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)) False",
    "None",
]


def readme_section(heading: str) -> str:
    """The text under `## heading`, up to the next second-level heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_use_block() -> str:
    return re.search(r"```python\n(.*?)```", readme_section("Library use"), re.S).group(1)


def run_library_use() -> list:
    """Execute the block in tests/golden/; return the lines it printed."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out):
            exec(compile(library_use_block(), "README.md", "exec"), {})
    finally:
        os.chdir(cwd)
    return out.getvalue().splitlines()


def test_library_use_example_runs():
    lines = run_library_use()
    if lines != EXPECTED:
        raise AssertionError(f"README example printed {lines!r}")


def transcripts() -> list:
    """(argv, expected lines) of each `$ qdulac ...` block, a trailing
    backslash joining the command's lines."""
    blocks = []
    for body in re.findall(r"```\n(.*?)```", readme_section("Command line"), re.S):
        if body.startswith("$ qdulac "):
            command, *lines = body.replace("\\\n", " ").splitlines()
            blocks.append((shlex.split(command)[2:], lines))
    return blocks


def matches(lines: list, expected: list) -> bool:
    """Whether lines read as expected, each "..." line matching any run of lines."""
    pattern = "".join("(?:.*\n)*" if line.strip() == "..." else re.escape(line) + "\n"
                      for line in expected)
    return re.fullmatch(pattern, "".join(line + "\n" for line in lines)) is not None


def test_command_line_transcripts():
    blocks = transcripts()
    if len(blocks) != 6:
        raise AssertionError(f"expected 6 transcripts in README, found {len(blocks)}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(GOLDEN / "main.qde", tmp)
        os.chdir(tmp)
        try:
            for argv, expected in blocks:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                lines = out.getvalue().splitlines()
                if code != 0 or not matches(lines, expected):
                    raise AssertionError(f"qdulac {shlex.join(argv)} exited {code} and printed "
                                         f"{lines!r}, not README's {expected!r}")
        finally:
            os.chdir(cwd)


def test_readme_main_qde_is_the_golden_equation():
    block = readme_section("The equation DSL").split("Example (`main.qde`)", 1)[1]
    shown = re.search(r"```\n(.*?)```", block, re.S).group(1)
    golden = (GOLDEN / "main.qde").read_text(encoding="utf-8")
    if parse_equation(shown, ["a3", "a4"]) != parse_equation(golden, ["a3", "a4"]):
        raise AssertionError(f"README's main.qde {shown!r} is not {golden!r}")


if __name__ == "__main__":
    test_library_use_example_runs()
    test_command_line_transcripts()
    test_readme_main_qde_is_the_golden_equation()
    print("README examples: ok")
