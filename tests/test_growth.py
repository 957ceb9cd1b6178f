"""Growth checks: how an entry point's traced peak memory grows with its input.

Traced peak memory (`tracemalloc`) barely moves from run to run, so unlike a
timing it can gate tier-1. Each case builds its input at n and at 4n units of
one dimension, outside the traced call, and the call's traced peak may grow
by at most `4 ** exponent * SLACK`, the exponent being the one `GROWTH`
declares for that (entry point, dimension). Lowering an exponent is a claim
that a change must show; raising one is a change CHANGES.md must name.
"""

from __future__ import annotations

import gc
import itertools
import tracemalloc

import pytest

from ctxkit.formats import ModelFileError, parse_modal_context
from ctxkit.modal_logic import Atom, Not, print_formula

N = 1_000
SLACK = 1.25

# (entry point, dimension) -> the exponent of its traced peak in that dimension
GROWTH = {
    ("print_formula", "nodes"): 1,
    ("repr", "nodes"): 1,
    ("parse_modal_context", "has-line nodes"): 1,
}

_fresh = itertools.count()


def fresh_atom() -> str:
    """An atom no other formula holds, so every node over it is built anew."""
    return f"growth_{next(_fresh)}"


def not_chain(nodes: int, atom: str = ""):
    """`~~...~a` of the given node count, over atom a, else a fresh one."""
    formula = Atom(atom or fresh_atom())
    for _ in range(nodes - 1):
        formula = Not(formula)
    return formula


def deep_has_line(nodes: int) -> tuple:
    """A `.mctx` file whose one `has` line is a spaced, so not canonical,
    `~` chain of the given node count, outside the declared universe; and
    that chain. Held with the file, the chain makes the parser find each of
    its nodes live, so the interning table does not grow inside the trace:
    when that table resizes depends on how many nodes the rest of the suite
    holds, and one resize can outweigh the whole file."""
    atom = fresh_atom()
    text = f"universe atoms=p depth=0 cap=0\ncworld c0\n  has {'~ ' * (nodes - 1)}{atom}\n"
    return text, not_chain(nodes, atom)


def refused(file_and_chain: tuple) -> None:
    with pytest.raises(ModelFileError, match="is outside the declared universe$"):
        parse_modal_context(file_and_chain[0])


# (entry point, dimension) -> (input of that size, the call to trace on it)
CASES = {
    ("print_formula", "nodes"): (not_chain, print_formula),
    ("repr", "nodes"): (not_chain, repr),
    ("parse_modal_context", "has-line nodes"): (deep_has_line, refused),
}


def traced_peak(call, arg) -> int:
    """The traced peak of call(arg). A full collection first empties the
    free lists, so that every object the call makes is a traced allocation."""
    gc.collect()
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_every_declared_growth_has_a_case():
    assert CASES.keys() == GROWTH.keys()


@pytest.mark.parametrize("case", list(GROWTH), ids="-".join)
def test_traced_peak_grows_as_declared(case):
    build, call = CASES[case]
    small, large = (traced_peak(call, build(size)) for size in (N, 4 * N))
    ratio, bound = large / small, 4 ** GROWTH[case] * SLACK
    assert ratio <= bound, f"{case}: traced peak grew {ratio:.2f}x from n={N} to 4n; bound {bound:.2f}x"
