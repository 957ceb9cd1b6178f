"""`tests/ab.py` times the benchmark's set-ups, or set-ups and passes, of two trees,
interleaved in one process."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ("timelines", "corpus"))
def test_one_pair_of_this_tree_against_itself_reports_the_pass_ratios(workload):
    proc = subprocess.run(
        [sys.executable, str(AB), "--against", str(AB.parent.parent), "--workload", workload,
         "--pairs", "1"],
        capture_output=True, text=True, timeout=50,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"workload={workload} seed=7 pairs=1 ")
    for line, name in zip(lines[1:4], ("cmds_per_s", "cmd_p50_ms", "cmd_p90_ms")):
        assert re.fullmatch(rf"{name} this=\d+\.\d{{4}} against=\d+\.\d{{4}} \(medians\); "
                            r"ratio this/against: median (\d+\.\d{3}) quartiles \1-\1; "
                            r"this tree better in [01] of 1 pairs", line), line
    assert re.fullmatch(r"gc_collections this gen0=\d+ gen1=\d+ gen2=\d+ "
                        r"against gen0=\d+ gen1=\d+ gen2=\d+", lines[4])
    assert len(lines) == 5
