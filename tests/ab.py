"""Time the benchmark's set-ups, or set-ups and passes, of two trees in one process.

    python tests/ab.py --against <checkout> --workload timelines --rounds 30 --seed 7
    python tests/ab.py --against <checkout> --workload corpus --pairs 10 --seed 7

With `--rounds`, each round times one set-up of each tree as
`perfbench/run.py` times it, with its `set_up`: a fresh import of
`ctxkit.cli` from that tree's `src/`, then the workload's `gen` commands.
With `--pairs`, each pair runs a set-up and then one timed pass of the
workload's commands for each tree, as `run.py`'s loop runs them. `set_up`
drops the `ctxkit` modules imported before, so each tree's import starts with
none of the other's, and `gc.collect()` runs before each set-up and each
pass, so that neither side pays for the other's garbage and no full
collection of dropped modules falls inside a timer. The two trees alternate,
and which goes first swaps every round or pair. One untimed set-up of each
tree comes first, so that neither side's timed work compiles bytecode. Every
set-up's outputs are checked against `perfbench/answers.json` with
`run.check_setup`, and every pass's answers as `run.py` checks them.

`--rounds` prints each side's median set-up time, then the per-round ratio of
this tree's time to the other's: its median and quartiles, and the rounds this
tree won (ratio below 1). `--pairs` prints, for `cmds_per_s`, `cmd_p50_ms` and
`cmd_p90_ms`, each side's median over the pairs and the per-pair ratio of this
tree's value to the other's (median, quartiles, and the pairs this tree did
better in), then each side's garbage collections of generations 0, 1 and 2
over its timed set-ups and passes, counted as `tests/gc_census.py` counts
them. It reads this tree's `perfbench/` as a library, as `tests/gc_census.py`
does, and changes nothing under it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# pass metric -> whether this tree does better when its ratio is above 1
PASS_METRICS = {"cmds_per_s": True, "cmd_p50_ms": False, "cmd_p90_ms": False}


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    sys.path[0] = str(PERFBENCH)  # as when the harness runs as a script
    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the other checkout")
    parser.add_argument("--workload", choices=run.workloads.WORKLOADS, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rounds", type=int, help="rounds of one set-up per tree")
    mode.add_argument("--pairs", type=int, help="pairs of one set-up and one pass per tree")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    if args.pairs is not None and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"this": ROOT / "src", "against": args.against.resolve() / "src"}
    for src in trees.values():
        if not (src / "ctxkit" / "cli.py").is_file():
            print(f"error: no ctxkit sources under {src}", file=sys.stderr)
            return 2

    answers = json.loads(run.ANSWERS.read_text())["answers"]
    counting = [None]  # the side whose collections are counted, if any
    collections = {side: [0, 0, 0] for side in trees}

    def count(phase: str, info: dict) -> None:
        if phase == "start" and counting[0] is not None:
            collections[counting[0]][info["generation"]] += 1

    def collect() -> None:
        """A full collection before a timer, itself not counted."""
        side, counting[0] = counting[0], None
        gc.collect()
        counting[0] = side

    with tempfile.TemporaryDirectory(prefix="ctxkit-ab-") as tmp:

        def on_path(side: str, work):
            """work() with the side's src first on sys.path."""
            sys.path.insert(0, str(trees[side]))
            try:
                return work()
            finally:
                sys.path.remove(str(trees[side]))

        def set_up(side: str):
            pool = Path(tmp) / side
            collect()
            took, cli, workload, results = on_path(
                side, lambda: run.set_up(args.workload, args.seed, pool))
            if not Path(cli.__file__).is_relative_to(trees[side]):
                raise SystemExit(f"error: {side} imported ctxkit from {cli.__file__}")
            run.check_setup(workload, results, answers, str(pool))
            return took, cli, workload, pool

        def one_pass(side: str) -> dict[str, float]:
            counting[0] = side
            try:
                _, cli, workload, pool = set_up(side)
                loop = run.Loop(answers, str(pool))
                collect()
                on_path(side, lambda: loop.one_pass(cli.cli_dispatch, workload))
            finally:
                counting[0] = None
            if loop.wrong:
                raise SystemExit(f"error: {side} answered {loop.wrong} commands wrongly: "
                                 + "; ".join(run.failure_lines(loop)))
            samples_ms = [s * 1000.0 for s in loop.samples]
            return {"cmds_per_s": loop.cmds_per_s(),
                    "cmd_p50_ms": run.percentile(samples_ms, 0.5),
                    "cmd_p90_ms": run.percentile(samples_ms, 0.9)}

        for side in trees:  # untimed: the first import may write bytecode
            set_up(side)
        gc.callbacks.append(count)
        try:
            if args.pairs is None:
                seconds = {side: [] for side in trees}
                for r in range(args.rounds):
                    for side in trees if r % 2 == 0 else reversed(trees):
                        seconds[side].append(set_up(side)[0])
            else:
                passes = {side: [] for side in trees}
                for p in range(args.pairs):
                    for side in trees if p % 2 == 0 else reversed(trees):
                        passes[side].append(one_pass(side))
        finally:
            gc.callbacks.remove(count)

    if args.pairs is None:
        ratios = [a / b for a, b in zip(seconds["this"], seconds["against"])]
        q1, median, q3 = spread(ratios)
        print(f"workload={args.workload} seed={args.seed} rounds={args.rounds} "
              f"against={args.against}")
        print(f"setup_s this={statistics.median(seconds['this']):.5f} "
              f"against={statistics.median(seconds['against']):.5f} (medians)")
        print(f"setup_s ratio this/against: median {median:.3f} quartiles {q1:.3f}-{q3:.3f}; "
              f"this tree won {sum(r < 1 for r in ratios)} of {args.rounds} rounds")
        return 0

    print(f"workload={args.workload} seed={args.seed} pairs={args.pairs} against={args.against}")
    for name, higher_is_better in PASS_METRICS.items():
        values = {side: [m[name] for m in passes[side]] for side in trees}
        ratios = [a / b for a, b in zip(values["this"], values["against"])]
        q1, median, q3 = spread(ratios)
        better = sum(r > 1 if higher_is_better else r < 1 for r in ratios)
        print(f"{name} this={statistics.median(values['this']):.4f} "
              f"against={statistics.median(values['against']):.4f} (medians); "
              f"ratio this/against: median {median:.3f} quartiles {q1:.3f}-{q3:.3f}; "
              f"this tree better in {better} of {args.pairs} pairs")
    print("gc_collections " + " ".join(
        f"{side} gen0={n0} gen1={n1} gen2={n2}" for side, (n0, n1, n2) in collections.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
