"""The benchmark's own checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

Recomputes the known answers of the small rungs with the oracles, runs the
benchmark once untraced and once traced on its cheapest workload, and checks
that it refuses to run where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import record_answers
import run
import workloads

from ctxkit.cli import cli_dispatch

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ANSWERS = json.loads(run.ANSWERS.read_text())["answers"]
# oracle time stays within seconds on these; windowed on Alice/Bob h=4 takes
# about half a minute and is left to record_answers.py
SMALL_TIMELINES = ("alice-bob-h3.ctx", "alice-bob-odd-h3.ctx", "alice-bob-odd-h4.ctx",
                   "minigame-base.ctx", "minigame-turn.ctx")


def small(cmd: workloads.Command) -> bool:
    if cmd.input.startswith(("corpus-", "kripke-w8-")):
        return True
    return cmd.input in SMALL_TIMELINES


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_rung_answers_match_the_oracles(name, tmp_path, capsys):
    workload = workloads.build(name, str(tmp_path), None)
    for cmd in workload.setup:
        if small(cmd):
            assert cli_dispatch(list(cmd.argv)) == 0
    capsys.readouterr()
    checked = 0
    for cmd in workload.one_pass:
        if small(cmd):
            exit_code, fields, _ = ANSWERS[cmd.input][cmd.kind]
            assert record_answers.oracle_answer(cmd, tmp_path) == (exit_code, fields), cmd
            checked += 1
    assert checked


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_metric(trace, section):
    done = bench("--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] == workloads.CORPUS_CONTEXTS_PER_RUN * 5 \
        + workloads.CORPUS_MODELS_PER_RUN * 5
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[section])
    for metric in BENCHMARK[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_an_exception_is_wrong_unless_it_was_recorded(tmp_path):
    def raises(argv):
        raise TypeError("boom")

    answers = {"f.ctx": {"recorded": [1, {"verdict": "no"}, None],
                         "new": [0, {"verdict": "yes"}, "0123456789abcdef"]}}
    loop = run.Loop(answers, str(tmp_path))
    for kind in ("recorded", "new"):
        loop.run(raises, workloads.Command("f.ctx", kind, ("ctx", "check-determinable")))
    assert loop.failures == {("recorded", "TypeError"): 1, ("new", "TypeError"): 1}
    assert loop.wrong == 1


def test_a_run_makes_a_fixed_number_of_passes(tmp_path):
    workload = workloads.Workload("w", (), (workloads.Command("f.ctx", "k", ("x",)),))
    answers = {"f.ctx": {"k": [0, {}, None]}}
    assert run.pass_count("corpus", 50) == 16
    loop = run.Loop(answers, str(tmp_path))
    loop.run_passes(lambda argv: 0, workload, 3, seconds=60)
    assert loop.passes == 3
    slow = run.Loop(answers, str(tmp_path))
    slow.run_passes(lambda argv: time.sleep(0.02) or 0, workload, 5, seconds=0.01)
    assert slow.passes == 2  # stopped once the passes overran 2.5 x 0.01 s
