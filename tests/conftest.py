"""Shared test setup.

Child interpreters the tests start import the package from src/:
`pythonpath` in pyproject.toml covers this process only; exporting the
same directory keeps `python -m qdulac.cli` working in subprocesses when
the package is not installed.

The `deadline` fixture bounds the wall time of a block with SIGALRM, so
that a regression to super-polynomial work fails its test instead of
hanging the suite.
"""

import contextlib
import os
import signal
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def deadline():
    """`with deadline(seconds): ...` fails the test if the block overruns."""
    if not hasattr(signal, "SIGALRM"):
        pytest.skip("deadline needs SIGALRM")

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"did not finish within {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
