"""Record `answers.json`: the known answer of every command any seed can run.

    PYTHONPATH=src python3 perfbench/record_answers.py

Expected exit codes and `verdict=` values come from the independent oracles
in `tests/oracles.py`, applied to the generated files as read back by the
benchmark's own small parsers, never by the library. Two answers come from
the paper's theorem instead: `verify-theorem`, and `check-context` on a
`to-context` output, say yes. Next to each answer sits the sha256 of the command's stdout
at the commit the file is recorded at, taken with the pool directory replaced
by a placeholder; it is null where the command raised there. The oracles are
slow (windowed determinability on Alice/Bob h=4 takes about half a minute),
which is why they run here once and never in the timed loop.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.ROOT / "tests"))
import oracles  # noqa: E402


def deterministic(tables, entities, times) -> bool:
    """One successor snapshot at every non-final time, from the consistency oracle."""
    for w in tables:
        for i in range(len(times) - 1):
            members = oracles.consistency(tables, w, entities, times, i)
            if len({oracles.snap(v, entities, times[i + 1]) for v in members}) != 1:
                return False
    return True


def yes_no(flag: bool) -> tuple[int, dict[str, str]]:
    return (0, {"verdict": "yes"}) if flag else (1, {"verdict": "no"})


def oracle_answer(cmd: workloads.Command, pool: Path) -> tuple[int, dict[str, str]]:
    """Expected (exit code, report fields) of a command, from the oracles."""
    if cmd.kind in ("gen", "to-context-pq-2"):
        return 0, {}
    if cmd.kind.startswith("verify-") or cmd.kind == "check-context":
        return yes_no(True)
    path = pool / cmd.input
    if cmd.kind.startswith("eval-"):
        from ctxkit.modal_logic import parse_formula

        argv = cmd.argv
        world = argv[argv.index("--world") + 1]
        formula = parse_formula(argv[argv.index("--formula") + 1])
        worlds, relation, valuation = workloads.read_kripke(path.read_text())
        value = oracles.naive_satisfies(worlds, relation, valuation, world, formula)
        return (0, {"verdict": "true"}) if value else (1, {"verdict": "false"})
    headers, tables, names = workloads.read_context(path.read_text())
    entities, times = headers["entities"], headers["time"]
    if cmd.kind in ("literal", "windowed"):
        return yes_no(oracles.determinable(tables, entities, times, cmd.kind))
    if cmd.kind == "iterator":
        return yes_no(oracles.has_iterator(tables, entities, times))
    if cmd.kind == "deterministic":
        return yes_no(deterministic(tables, entities, times))
    if cmd.kind == "consistency":
        argv = cmd.argv
        ref = tables[names.index(argv[argv.index("--instance") + 1])]
        t_index = times.index(argv[argv.index("--time") + 1])
        kept = oracles.consistency(tables, ref, entities, times, t_index)
        return 0, {"instances": str(len(kept))}
    raise ValueError(f"no oracle for command kind {cmd.kind!r}")


def record(name: str, pool: Path, answers: dict) -> None:
    """Run the whole population of one workload once and file every answer."""
    shutil.rmtree(pool, ignore_errors=True)
    pool.mkdir(parents=True)
    workload = workloads.build(name, str(pool), None)
    cli = run.import_cli()
    for cmd in workload.setup + workload.one_pass:
        _, code, error, stdout = run.run_command(cli.cli_dispatch, cmd)
        exit_code, fields = oracle_answer(cmd, pool)
        digest = None if error else run.stdout_digest(stdout, str(pool))
        answer = [exit_code, fields, digest]
        previous = answers.setdefault(cmd.input, {}).setdefault(cmd.kind, answer)
        if previous != answer:
            raise SystemExit(f"{cmd.input} {cmd.kind}: differing answers {previous} {answer}")
        reason = run.failure(answer, code, error, stdout, str(pool))
        if reason is not None:
            print(f"{name}: ctxkit {' '.join(cmd.argv)}: {reason}", file=sys.stderr)
    shutil.rmtree(pool)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    answers: dict = {}
    for name in workloads.WORKLOADS:
        record(name, run.WORK / f"record-{name}", answers)
    lines = [f"{json.dumps(k)}: {json.dumps(answers[k], sort_keys=True)}" for k in sorted(answers)]
    run.ANSWERS.write_text('{"answers": {\n' + ",\n".join(lines) + "\n}}\n")
    print(f"recorded {sum(len(v) for v in answers.values())} answers to {run.ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
