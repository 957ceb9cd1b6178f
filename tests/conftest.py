"""Test-wide settings.

Property tests draw their examples from a fixed seed and keep no example
database, so every run of the suite tries the same inputs; no deadline,
because timings on a shared machine would make that flaky. Each test's call
instead runs under one wall bound, `WALL_BOUND`, far above any test's time,
so that a test that hangs fails rather than stalls the suite.
"""

import signal
from pathlib import Path

import pytest
from hypothesis import settings

import ctxkit

settings.register_profile("ctxkit", derandomize=True, deadline=None, database=None)
settings.load_profile("ctxkit")

# seconds; the slowest test takes under 4 s, and under tests/line_trace.py,
# which runs the suite about 3x slower, under 11 s
WALL_BOUND = 60


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """Run the test's call with SIGALRM armed to fail it past WALL_BOUND."""
    def overrun(*_):
        pytest.fail(f"the test ran past the wall bound of {WALL_BOUND} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, WALL_BOUND)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ctxkit_src() -> str:
    """The source directory of the `ctxkit` these tests imported, for a
    subprocess's PYTHONPATH: the subprocess then runs the same code, a
    mutated copy under `tests/mutants.py` included."""
    return str(Path(ctxkit.__file__).resolve().parents[1])
