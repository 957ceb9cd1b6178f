"""The modal commands print the bytes the benchmark recorded for them.

Replays modal commands of the benchmark's workloads through `cli_dispatch`
into a temporary pool, and compares each exit code and stdout digest with
`perfbench/answers.json`: the `kripke` workload's commands on its 8- and
16-world models, and every modal command of the `corpus` population. The
benchmark's files are read, never written.
"""

import importlib
import json
from pathlib import Path

from ctxkit import modal_logic
from ctxkit.cli import cli_dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODAL_VERBS = {"random-kripke", "eval", "to-context", "check-context", "verify-theorem"}


def replay(commands, pool, monkeypatch, capsys):
    """Run the commands, check each against its recorded answer, and return
    the verbs run; no command may leave a formula node behind."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    answers = json.loads(run.ANSWERS.read_text())["answers"]
    nodes = len(modal_logic._NODES)
    verbs = set()
    for cmd in commands:
        code = cli_dispatch(list(cmd.argv))
        stdout = capsys.readouterr().out
        exit_code, _, digest = answers[cmd.input][cmd.kind]
        assert code == exit_code, cmd
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
