"""The CLI prints the bytes the benchmark recorded for it.

Replays commands of the benchmark's workloads through `cli_dispatch` into a
temporary pool, and compares each exit code, report fields and stdout digest
with `perfbench/answers.json`: the `kripke` workload's commands on its 8- and
16-world models, every modal command of the `corpus` population, and every
context command of the `timelines` and `corpus` populations. The
benchmark's files are read, never written.
"""

import gc
import importlib
import json
from pathlib import Path

import pytest

from ctxkit import modal_logic
from ctxkit.cli import cli_dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODAL_VERBS = {"random-kripke", "eval", "to-context", "check-context", "verify-theorem"}
# windowed "no" answers whose recorded digest is null (they raised when the
# answers were recorded); these digests pin their witness bytes instead
WINDOWED_DIGESTS = {
    "alice-bob-odd-h4.ctx": "30a84270c58cbd49",
    "corpus-ctx-100.ctx": "3d495d4021d145d7",
    "corpus-ctx-101.ctx": "ca5ad344b69fb9a7",
    "corpus-ctx-102.ctx": "2e95195485c6a99f",
    "corpus-ctx-103.ctx": "e6d7f42f0ce00e6e",
    "corpus-ctx-13.ctx": "acff479eaf9e32c9",
    "corpus-ctx-161.ctx": "ae0f33610e6c195d",
    "corpus-ctx-163.ctx": "bc23bef5fc4e6043",
    "corpus-ctx-193.ctx": "6d3b6318884c6559",
    "corpus-ctx-194.ctx": "ba303df31cb18556",
    "corpus-ctx-195.ctx": "30196f52d7bea50c",
    "corpus-ctx-231.ctx": "79212dfa5f3bb0d1",
    "corpus-ctx-38.ctx": "d9396eea2d81f3f8",
    "minigame-base.ctx": "4e7468a2daa0b89c",
    "random-ctx-s0.ctx": "7c36dda15d05f4e0",
    "random-ctx-s1.ctx": "4fb00002acbc5fc9",
    "random-ctx-s10.ctx": "13a12adc09388788",
    "random-ctx-s11.ctx": "e23dec1bb3b92448",
    "random-ctx-s12.ctx": "53a2ca6b20eaa1eb",
    "random-ctx-s13.ctx": "9a3eb4f47ad17684",
    "random-ctx-s14.ctx": "f492b56bfd8da41a",
    "random-ctx-s15.ctx": "993e0a408660f4fa",
    "random-ctx-s16.ctx": "a0e228d3ac457de9",
    "random-ctx-s17.ctx": "0cccb05638fb6db3",
    "random-ctx-s18.ctx": "c1f65a06c9afc30b",
    "random-ctx-s19.ctx": "a9f1819721158ea6",
    "random-ctx-s2.ctx": "dd49239d437bd439",
    "random-ctx-s20.ctx": "c60d5a4dcc43b79c",
    "random-ctx-s21.ctx": "94d56b9f290e308d",
    "random-ctx-s22.ctx": "cf0f8654bb40da8a",
    "random-ctx-s23.ctx": "9bb49ec17008bcb2",
    "random-ctx-s3.ctx": "cff572cb5c22f2b5",
    "random-ctx-s4.ctx": "2629f75dbe800f6a",
    "random-ctx-s5.ctx": "2a19759c134bf79a",
    "random-ctx-s6.ctx": "8ba194193c6985d6",
    "random-ctx-s7.ctx": "3623627b3ecdd7dd",
    "random-ctx-s8.ctx": "e807c321b6680778",
    "random-ctx-s9.ctx": "5d19e72d2bf3abef",
}


def replay(commands, pool, monkeypatch, capsys, pinned=None):
    """Run the commands, check each against its recorded answer, and return
    the verbs run; no command may leave a formula node behind. A null
    recorded digest is looked up in `pinned` by file name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    answers = json.loads(run.ANSWERS.read_text())["answers"]
    gc.collect()  # nodes an earlier test left in reference cycles are not counted
    nodes = len(modal_logic._NODES)
    verbs = set()
    for cmd in commands:
        code = cli_dispatch(list(cmd.argv))
        stdout = capsys.readouterr().out
        exit_code, fields, digest = answers[cmd.input][cmd.kind]
        assert code == exit_code, cmd
        assert run.report_fields(stdout).items() >= fields.items(), cmd
        if digest is None:
            digest = pinned[cmd.input]
        assert run.stdout_digest(stdout, pool) == digest, cmd
        assert len(modal_logic._NODES) == nodes, cmd
        verbs.add(cmd.argv[1])
    return verbs


def workload(name, pool, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads").build(name, pool, None)


def test_kripke_commands_print_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    pool = str(tmp_path)
    built = workload("kripke", pool, monkeypatch)
    commands = [cmd for cmd in built.setup + built.one_pass
                if cmd.input.startswith(("kripke-w8-", "kripke-w16-"))]
    assert replay(commands, pool, monkeypatch, capsys) == MODAL_VERBS


def test_corpus_modal_commands_print_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    # a corpus pass generates each model and its .mctx before reading them
    pool = str(tmp_path)
    commands = [cmd for cmd in workload("corpus", pool, monkeypatch).one_pass
                if cmd.input.startswith("corpus-kripke-")]
    assert len(commands) == 5 * 120
    assert replay(commands, pool, monkeypatch, capsys) == MODAL_VERBS


@pytest.mark.parametrize("name, count, pinned", [("timelines", 200, 26), ("corpus", 1440, 12)])
def test_context_commands_print_the_recorded_bytes(name, count, pinned, tmp_path,
                                                   monkeypatch, capsys):
    pool = str(tmp_path)
    built = workload(name, pool, monkeypatch)
    commands = [cmd for cmd in built.setup + built.one_pass if cmd.input.endswith(".ctx")]
    assert len(commands) == count
    verbs = replay(commands, pool, monkeypatch, capsys, WINDOWED_DIGESTS)
    assert verbs >= {"check-determinable", "iterator", "deterministic"}
    assert len(WINDOWED_DIGESTS.keys() & {cmd.input for cmd in commands}) == pinned
