"""The exhaustive small scopes too slow for tier-1.

Run from anywhere with `python tests/small_scope.py --wide`. It applies the
checks of `tests/test_small_scope.py` to:

- every nonempty context over (2 states, 1 entity, 4 times) and over
  (2 states, 2 entities, 2 times): 65,535 contexts each;
- every Kripke model with 3 worlds over p at depth 1: 4,096 models;
- every Kripke model with 3 worlds over p,q at depth 1 that comes first in
  enumeration order among its renamings of worlds: 5,728 of the 32,768.
  All of them would take the naive quotient oracle alone some 200 s;
- the flipped copies of each distinct quotient context of the 2-world p,q
  models, and of the 3-world p models that come first among their
  renamings.

The scopes are cut into tasks that run on two worker processes. The run
exits 1 naming the first disagreement in task order: the scope, the input
and the failing check. Not part of tier-1: it takes about two minutes on
two cores.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from functools import cache
from itertools import permutations
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ctxkit.core import Signature
from ctxkit.formats import render_context, render_kripke
from ctxkit.modal_logic import KripkeModel, formula_universe
from ctxkit.modal_context import to_modal_context
from test_small_scope import (
    check_context,
    check_flipped,
    check_model,
    distinct_quotients,
    every_context,
    every_model,
)

CONTEXT_SCOPES = {
    "contexts over 2 states, 1 entity, 4 times": Signature(("s0", "s1"), ("e0",),
                                                           ("0", "1", "2", "3")),
    "contexts over 2 states, 2 entities, 2 times": Signature(("s0", "s1"), ("e0", "e1"),
                                                             ("0", "1")),
}
# name -> (worlds, atoms, every model or only the first of its renamings)
KRIPKE_SCOPES = {
    "models with 3 worlds over p": (3, ("p",), True),
    "models with 3 worlds over p,q, up to renaming": (3, ("p", "q"), False),
}
FLIPPED_SCOPES = {
    "flipped copies, 2 worlds over p,q": (2, ("p", "q"), True),
    "flipped copies, 3 worlds over p, up to renaming": (3, ("p",), False),
}
FLIPPED_PARTS = 8


def first_of_its_renamings(worlds, relation, valuation):
    """Does the model come first in `every_model` order among the models its
    renamings of worlds give? That order compares the edge mask, then each
    atom's mask of worlds."""
    n, index = len(worlds), {w: j for j, w in enumerate(worlds)}

    def key(to):
        edges = sum(1 << to[index[a]] * n + to[index[b]] for a, b in relation)
        return edges, tuple(sum(1 << to[index[w]] for w in ws) for ws in valuation.values())

    own = key(range(n))
    return all(own <= key(to) for to in permutations(range(n)))


def models(scope, relations=None):
    worlds, atoms, every = scope
    for model in every_model(worlds, atoms, relations):
        if every or first_of_its_renamings(*model):
            yield model


@cache
def quotients(name):
    """The first (model, context) pair for each distinct quotient context of
    the scope's models."""
    scope = FLIPPED_SCOPES[name]
    universe = formula_universe(scope[1], depth=1)
    pairs = []
    for worlds, relation, valuation in models(scope):
        model = KripkeModel(worlds, relation, valuation)
        pairs.append((model, to_modal_context(model, universe)))
    return distinct_quotients(pairs)


def tasks():
    """(kind, scope name, part): contexts by size, models by slices of edge
    masks, flipped copies by residue of the distinct contexts' positions."""
    out = []
    for name, sig in CONTEXT_SCOPES.items():
        out += [("context", name, size) for size in range(1, 2 ** sig.cell_count() + 1)]
    for name, (worlds, _, _) in KRIPKE_SCOPES.items():
        edges = 1 << worlds * worlds
        out += [("model", name, range(low, low + 32)) for low in range(0, edges, 32)]
    for name in FLIPPED_SCOPES:
        out += [("flipped", name, part) for part in range(FLIPPED_PARTS)]
    return out


def inputs(kind, name, part):
    """(check, how to name an input, the inputs) of a task."""
    if kind == "context":
        return check_context, render_context, every_context(CONTEXT_SCOPES[name], (part,))
    if kind == "model":
        scope = KRIPKE_SCOPES[name]
        universe = formula_universe(scope[1], depth=1)
        return (lambda model: check_model(*model, universe),
                lambda model: render_kripke(KripkeModel(*model)), models(scope, part))
    return (lambda pair: check_flipped(*pair), lambda pair: render_kripke(pair[0]),
            quotients(name)[part::FLIPPED_PARTS])


def run(task):
    """(task, inputs checked, None) or (task, None, report of the first disagreement)."""
    check, show, items = inputs(*task)
    checked = 0
    for item in items:
        try:
            check(item)
        except AssertionError:
            return task, None, f"{task[1]}: disagreement on\n{show(item)}\n{traceback.format_exc()}"
        checked += 1
    return task, checked, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wide", action="store_true", required=True,
                        help="run the scopes too slow for tier-1")
    parser.parse_args(argv)
    started, totals = time.perf_counter(), {}
    with get_context("spawn").Pool(2) as pool:
        for (_, name, _), checked, report in pool.imap(run, tasks()):
            if report is not None:
                pool.terminate()
                print(report, flush=True)
                return 1
            totals[name] = totals.get(name, 0) + checked
    for name, checked in totals.items():
        print(f"{checked:>7}  {name}")
    print(f"every check agrees ({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
