"""Seeded corpus builders shared by the property-style tests."""

from __future__ import annotations

import itertools
import random

import oracles
from ctxkit.core import Context, Instance, Signature, Snapshot


def random_signature(rng: random.Random, max_states=3, max_entities=2, max_times=3) -> Signature:
    return Signature(
        tuple(f"s{i}" for i in range(rng.randint(1, max_states))),
        tuple(f"e{i}" for i in range(rng.randint(1, max_entities))),
        tuple(str(i) for i in range(rng.randint(1, max_times))),
    )


def random_instance(rng: random.Random, sig: Signature) -> Instance:
    return Instance(
        sig.entities,
        sig.times,
        tuple(rng.choice(sig.states) for _ in range(sig.cell_count())),
    )


def random_context(rng: random.Random, max_instances=20, **kwargs) -> Context:
    sig = random_signature(rng, **kwargs)
    count = rng.randint(1, max_instances)
    return Context(sig, tuple(random_instance(rng, sig) for _ in range(count)))


def wide_context(h: int) -> Context:
    """One entity e0 over times 0..h-1: an `a` row through each choice of x,
    y or z at every middle time, ending in `s`, plus `b, s, p2, ...` and
    `c, s, q2, ...`. The `a` rows end `s` at 3^(h-2) distinct nodes, each of
    which agrees with every other `s` node under a window of length 1; in
    windowed mode only the time-1 nodes under `b` and `c` disagree, so the
    first failing node is far from the snapshot's first node. It has
    3^(h-2) + 2 rows: 6,563 at h=10."""
    rows = [("a", *(f"{c}{t}" for t, c in enumerate(mid, 1)), "s")
            for mid in itertools.product("xyz", repeat=h - 2)]
    rows += [(x, "s", *(f"{y}{t}" for t in range(2, h))) for x, y in (("b", "p"), ("c", "q"))]
    times = tuple(str(t) for t in range(h))
    sig = Signature(tuple(sorted({c for row in rows for c in row})), ("e0",), times)
    return Context(sig, tuple(Instance(("e0",), times, row) for row in rows))


def table(inst: Instance) -> dict[tuple[str, str], str]:
    """An instance as the plain {(entity, time): state} dict the oracles
    read, built from its fields alone, with no library call."""
    n = len(inst.times)
    return {
        (e, t): inst.cells[ei * n + ti]
        for ei, e in enumerate(inst.entities)
        for ti, t in enumerate(inst.times)
    }


def as_tables(ctx: Context):
    """Plain-dict view for feeding the brute-force oracles."""
    return [table(inst) for inst in ctx.instances]


def oracle_bundle(ctx: Context, inst: Instance, t: str) -> frozenset:
    """The future bundle of a member at time label t, recomputed by
    `oracles.future_bundle` on plain tables, as traces of library snapshots."""
    sig, tables = ctx.signature, as_tables(ctx)
    ref = tables[ctx.instances.index(inst)]  # ValueError unless inst is a member
    traces = oracles.future_bundle(tables, ref, sig.entities, sig.times, sig.time_index(t))
    return frozenset(tuple(Snapshot(sig.entities, s) for s in trace) for trace in traces)


def oracle_next_set(ctx: Context, inst: Instance, t: str) -> frozenset:
    """The snapshots one step after time label t across the consistency set of
    a member, recomputed by `oracles.next_set` on plain tables."""
    sig, tables = ctx.signature, as_tables(ctx)
    ref = tables[ctx.instances.index(inst)]
    if sig.time_index(t) + 1 == len(sig.times):
        raise ValueError(f"time {t!r} has no successor in the chain")
    states = oracles.next_set(tables, ref, sig.entities, sig.times, sig.time_index(t))
    return frozenset(Snapshot(sig.entities, s) for s in states)


def random_formula(rng: random.Random, atoms=("p", "q"), depth=4):
    """Seeded random AST over the full connective set."""
    from ctxkit.modal_logic import (
        BOTTOM, TOP, And, Atom, Box, Diamond, Iff, Implies, Not, Or,
    )

    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.8:
            return Atom(rng.choice(atoms))
        return TOP if roll < 0.9 else BOTTOM
    shape = rng.choice((Not, Box, Diamond, And, Or, Implies, Iff))
    if shape in (Not, Box, Diamond):
        return shape(random_formula(rng, atoms, depth - 1))
    return shape(
        random_formula(rng, atoms, depth - 1),
        random_formula(rng, atoms, depth - 1),
    )


def random_kripke(rng: random.Random, max_worlds=5, atoms=("p", "q"), density=None):
    """Seeded random Kripke model; density defaults to a random draw."""
    from ctxkit.modal_logic import KripkeModel

    worlds = tuple(f"w{i}" for i in range(rng.randint(1, max_worlds)))
    d = rng.random() if density is None else density
    relation = frozenset(
        (a, b) for a in worlds for b in worlds if rng.random() < d
    )
    valuation = {
        atom: frozenset(w for w in worlds if rng.random() < 0.5) for atom in atoms
    }
    return KripkeModel(worlds, relation, valuation)


def modal_context(names, columns, relation, universe):
    """The ModalContext of named worlds, member columns and a relation given
    as name pairs: each world's successor mask is built here, from the pairs,
    and the masks go to `ModalContext.from_masks`."""
    from ctxkit.modal_context import ModalContext

    index = {w: j for j, w in enumerate(names)}
    successors = [0] * len(names)
    for a, b in relation:
        successors[index[a]] |= 1 << index[b]
    return ModalContext.from_masks(names, columns, successors, universe)
