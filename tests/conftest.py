"""Let child interpreters the tests start import the package from src/.

`pythonpath` in pyproject.toml covers this process only; exporting the
same directory keeps `python -m qdulac.cli` working in subprocesses when
the package is not installed.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
