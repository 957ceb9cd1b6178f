"""The per-test wall bound of `tests/conftest.py` fails a test that hangs."""

import os
import subprocess
import sys
import time
from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")


def test_a_test_past_a_lowered_wall_bound_fails_rather_than_hangs(tmp_path, ctxkit_src):
    # the suite's conftest, its bound lowered to 1 s, over one test that sleeps
    text = CONFTEST.read_text()
    assert text.count("\nWALL_BOUND = 60\n") == 1
    (tmp_path / "conftest.py").write_text(text.replace("\nWALL_BOUND = 60\n", "\nWALL_BOUND = 1\n"))
    (tmp_path / "test_hangs.py").write_text("import time\n\n\ndef test_hangs():\n"
                                            "    time.sleep(600)\n")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "the test ran past the wall bound of 1 s" in proc.stdout
    assert "1 failed" in proc.stdout
    assert time.perf_counter() - started < 20
