"""No helper in the package that only tests reach.

Every non-dunder function or class defined in src/qdulac must be
referred to somewhere in src/qdulac: by a name, an attribute, an import
alias or a string constant equal to its name (an `__all__` entry, say).
The definition itself does not count.  The check raises explicitly, so
it also holds under `python -O`.
"""

import ast
from pathlib import Path

import pytest

import qdulac

SOURCES = sorted(Path(qdulac.__file__).parent.glob("*.py"))

# (module, name): why it stays without a caller in the package
ALLOWED = {
    ("cli", "series_from_json"): "ROADMAP item 11's `verify --series` reads "
                                 "an expand document through it; README documents it",
    ("algebra", "sorted_terms"): "README's library API lists `ParamPoly.sorted_terms`",
    ("expand", "_make"): "`NamedTuple._replace` calls `LinearPart._make`",
    ("truncate", "_make"): "`NamedTuple._replace` calls `TruncatedSolution._make`",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referred_to_in_the_package():
    defined, used = [], set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unused = [key for key in defined if key[1] not in used and key not in ALLOWED]
    if unused:
        pytest.fail(f"defined in src/qdulac but referred to nowhere there: {unused}")
    stale = [key for key in ALLOWED if key not in defined or key[1] in used]
    if stale:
        pytest.fail(f"allowlisted but gone or now referred to: {stale}")
