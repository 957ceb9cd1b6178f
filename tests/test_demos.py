"""The walkthroughs in demos/ run to completion and print pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_both_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "consistency_and_determinability.py", "modal_quotient.py",
    ]


# sha256 and byte count of each demo's stdout
DEMO_STDOUT = {
    "consistency_and_determinability":
    ("6cbfc98ec92e0adfb125d52149b8a42c6f929b3763dc93bf0f7fa0242b767de1", 2029),
    "modal_quotient":
    ("843217e5a00e5884c90cbd17564e86ead4cca77534635f1e07eeddadc320b0d3", 1826),
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_0(demo, ctxkit_src):
    paths = [ctxkit_src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    out = result.stdout
    assert (hashlib.sha256(out).hexdigest(), len(out)) == DEMO_STDOUT[demo.stem]
