"""Count CPython's garbage collections during one benchmark run.

    python tests/gc_census.py --workload timelines --seed 7 --seconds 50

Runs `perfbench/run.py`'s `main` in this process with the same arguments,
prints the harness's output unchanged, then one line
`gc_collections gen0=<n> gen1=<n> gen2=<n>`: the collections of each
generation that CPython started during the run, counted by a `gc.callbacks`
hook. A change that allocates fewer tracked objects can move a full (gen-2)
collection, and with it a run's `peak_rss_mb`, so a PR that must leave GC
behaviour as it was shows it with this line. It changes nothing under
`perfbench/`.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(argv: list[str] | None = None) -> int:
    counts = [0, 0, 0]

    def count(phase: str, info: dict) -> None:
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(count)  # before the harness's imports, which collect too
    try:
        sys.path[0] = str(PERFBENCH)  # as when the harness runs as a script
        import run

        code = run.main(argv)
    finally:
        gc.callbacks.remove(count)
    print("gc_collections " + " ".join(f"gen{g}={n}" for g, n in enumerate(counts)))
    return code


if __name__ == "__main__":
    sys.exit(main())
