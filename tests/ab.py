"""Time the benchmark's set-up of this tree against another checkout, in one process.

    python tests/ab.py --against <checkout> --workload timelines --rounds 30 --seed 7

Each round times one set-up of each tree as `perfbench/run.py` times it,
with its `set_up`: a fresh import of `ctxkit.cli` from that tree's `src/`,
then the workload's `gen` commands. `set_up` drops the `ctxkit` modules
imported before, so each tree's import starts with none of the other's, and
`gc.collect()` runs before each set-up, so that neither side pays for the
other's garbage. The two trees alternate, and which goes first swaps every
round. One untimed set-up of each tree comes first, so that neither side's
timed rounds compile bytecode. Every set-up's outputs are checked against
`perfbench/answers.json` with `run.check_setup`.

It prints each side's median set-up time, then the per-round ratio of this
tree's time to the other's: its median and quartiles, and the rounds this
tree won (ratio below 1). It reads this tree's `perfbench/` as a library,
as `tests/gc_census.py` does, and changes nothing under it.
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


def main(argv: list[str] | None = None) -> int:
    sys.path[0] = str(PERFBENCH)  # as when the harness runs as a script
    import run

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, help="the other checkout")
    parser.add_argument("--workload", choices=run.workloads.WORKLOADS, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    trees = {"this": ROOT / "src", "against": args.against.resolve() / "src"}
    for src in trees.values():
        if not (src / "ctxkit" / "cli.py").is_file():
            print(f"error: no ctxkit sources under {src}", file=sys.stderr)
            return 2

    answers = json.loads(run.ANSWERS.read_text())["answers"]
    seconds: dict[str, list[float]] = {side: [] for side in trees}
    with tempfile.TemporaryDirectory(prefix="ctxkit-ab-") as tmp:

        def set_up(side: str) -> float:
            pool = Path(tmp) / side
            sys.path.insert(0, str(trees[side]))
            try:
                gc.collect()
                took, cli, workload, results = run.set_up(args.workload, args.seed, pool)
            finally:
                sys.path.remove(str(trees[side]))
            if not Path(cli.__file__).is_relative_to(trees[side]):
                raise SystemExit(f"error: {side} imported ctxkit from {cli.__file__}")
            run.check_setup(workload, results, answers, str(pool))
            return took

        for side in trees:  # untimed: the first import may write bytecode
            set_up(side)
        for r in range(args.rounds):
            for side in trees if r % 2 == 0 else reversed(trees):
                seconds[side].append(set_up(side))

    ratios = [a / b for a, b in zip(seconds["this"], seconds["against"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds} "
          f"against={args.against}")
    print(f"setup_s this={statistics.median(seconds['this']):.5f} "
          f"against={statistics.median(seconds['against']):.5f} (medians)")
    print(f"setup_s ratio this/against: median {median:.3f} quartiles {q1:.3f}-{q3:.3f}; "
          f"this tree won {sum(r < 1 for r in ratios)} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
