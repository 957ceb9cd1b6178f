"""The modal commands print the bytes the benchmark recorded for them.

Replays the `kripke` workload's commands on its 8- and 16-world models
(`gen`, `eval`, `to-context`, `check-context` and `verify-theorem`) through
`cli_dispatch` into a temporary pool, and compares each exit code and stdout
digest with `perfbench/answers.json`. The benchmark's files are read, never
written.
"""

import importlib
import json
from pathlib import Path

from ctxkit.cli import cli_dispatch

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_kripke_commands_print_the_recorded_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    answers = json.loads(run.ANSWERS.read_text())["answers"]
    pool = str(tmp_path)
    workload = workloads.kripke(pool, None)
    commands = [cmd for cmd in workload.setup + workload.one_pass
                if cmd.input.startswith(("kripke-w8-", "kripke-w16-"))]
    verbs = set()
    for cmd in commands:
        code = cli_dispatch(list(cmd.argv))
        stdout = capsys.readouterr().out
        exit_code, _, digest = answers[cmd.input][cmd.kind]
        assert code == exit_code, cmd
        assert run.stdout_digest(stdout, pool) == digest, cmd
        verbs.add(cmd.argv[1])
    assert verbs == {"random-kripke", "eval", "to-context", "check-context", "verify-theorem"}
