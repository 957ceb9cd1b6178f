"""`tests/ab.py` times the benchmark's set-up of two trees, interleaved in one process."""

import re
import subprocess
import sys
from pathlib import Path

AB = Path(__file__).resolve().parent / "ab.py"


def test_this_tree_against_itself_reports_both_medians_and_the_ratio():
    proc = subprocess.run(
        [sys.executable, str(AB), "--against", str(AB.parent.parent), "--workload", "timelines",
         "--rounds", "2"],
        capture_output=True, text=True, timeout=50,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("workload=timelines seed=7 rounds=2 ")
    assert re.fullmatch(r"setup_s this=\d+\.\d{5} against=\d+\.\d{5} \(medians\)", lines[1])
    assert re.fullmatch(r"setup_s ratio this/against: median \d+\.\d{3} "
                        r"quartiles \d+\.\d{3}-\d+\.\d{3}; this tree won [0-2] of 2 rounds",
                        lines[2])
