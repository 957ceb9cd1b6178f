"""`tests/gc_census.py` runs the benchmark harness and counts its collections."""

import json
import re
import subprocess
import sys
from pathlib import Path

CENSUS = Path(__file__).resolve().parent / "gc_census.py"


def test_the_census_prints_the_harness_report_and_three_collection_counts():
    proc = subprocess.run(
        [sys.executable, str(CENSUS), "--workload", "timelines", "--seed", "7", "--seconds", "1"],
        capture_output=True, text=True, timeout=50,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("workload=timelines seed=7 seconds=1 ")
    assert json.loads(lines[-2])["correct"] is True
    assert re.fullmatch(r"gc_collections gen0=\d+ gen1=\d+ gen2=\d+", lines[-1])
