"""README's "Library use" example runs as printed.

The first python block under the heading "## Library use" is executed in
tests/golden/, where it finds `main.qde`, and every line it prints is
compared with the expected text.  The check raises explicitly, so it
also holds under `python -O`.  Runs under pytest, or on the standard
library alone:

    PYTHONPATH=src python tests/test_readme.py
"""

import contextlib
import io
import os
import re
from pathlib import Path

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


def library_use_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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


if __name__ == "__main__":
    test_library_use_example_runs()
    print("README library use: ok")
