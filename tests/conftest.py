"""Test-wide settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same inputs; no deadline,
because timings on a shared machine would make that flaky.
"""

from pathlib import Path

import pytest
from hypothesis import settings

import ctxkit

settings.register_profile("ctxkit", derandomize=True, deadline=None, database=None)
settings.load_profile("ctxkit")


@pytest.fixture
def ctxkit_src() -> str:
    """The source directory of the `ctxkit` these tests imported, for a
    subprocess's PYTHONPATH: the subprocess then runs the same code, a
    mutated copy under `tests/mutants.py` included."""
    return str(Path(ctxkit.__file__).resolve().parents[1])
