"""Determinability, determinism, and iterator extraction for finite contexts.

Determinability asks: whenever two instances show the same snapshot, do they
generate the same futures? On an infinite time chain every pair of suffixes
is order-isomorphic, so the question is well posed as stated. On the finite
chains this package works with, suffixes of different lengths admit no
monotone bijection at all, which makes the verbatim definition fail for any
context that repeats a snapshot at two different times. Both readings are
therefore offered:

* ``literal``  -- the definition as written: the suffix alignment must exist
  (equal suffix lengths) and the untruncated future bundles must agree.
* ``windowed`` -- the finite-truncation reading: bundles are compared after
  restriction to the first min(|t+|, |t'+|) aligned time points, using the
  shift alignment t+n -> t'+n.

``literal`` yes implies ``windowed`` yes; the converse fails exactly on the
truncation artifacts.

Determinability and the iterator walk one prefix trie, built in O(N*T) for
N instances over T times: instances agreeing up to a time share one node
there. Determinability compares hash-consed ids of bundles cut to a window,
at most one id per (node, end), and compares each node with the next node of
its snapshot in time order only; the iterator takes each node's child ids as
its next set. Determinism reads the rows' initial snapshots alone. A "no"
names the first failing pair in canonical scan order: snapshots by first
occurrence, their occurrences by instance, then by time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Iterable

from ctxkit.core import DEFAULT_SPACE_GUARD, Context, Instance, Signature, Snapshot, check_guard

MODES = ("literal", "windowed")

Trace = tuple[Snapshot, ...]
_IteratorDict = dict[Snapshot, frozenset[Snapshot]]  # snapshot -> its image


@dataclass(frozen=True)
class SnapshotConflict:
    """Two occurrences of one snapshot whose futures differ.

    `occurrences` are two (instance, time label) pairs that show `snapshot`,
    and `futures` says what follows each: the two full future bundles in a
    determinability witness, the two next-snapshot sets in an iterator
    conflict.
    """

    snapshot: Snapshot
    occurrences: tuple[tuple[Instance, str], tuple[Instance, str]]
    futures: tuple[frozenset, frozenset]


class _Trie:
    """Every context row as a path in one prefix trie.

    The trie reads `Context.rows`: the slice `row[k::len(times)]` is the
    snapshot at time k as a tuple of state indices. A node is keyed by its
    parent and that tuple, so instances agreeing up to a time share one node
    there, and with it their consistency context, and an occurrence at a node
    that already exists costs one dict probe. Distinct snapshots get ints in
    first-occurrence order, with one `Snapshot` each, made when their first
    node is. Nodes are numbered in creation order, which is the canonical
    scan order (instances, then times) of their first occurrences. No
    per-row table is kept: a node's first occurrence stands for all of its
    occurrences, and a witness's bundle is read off the node's subtree.
    """

    def __init__(self, ctx: Context):
        sig = ctx.signature
        entities, states, n = sig.entities, sig.states, len(sig.times)
        self.ctx, self.times = ctx, sig.times
        self.snaps: list[Snapshot] = []
        self.snap_of: list[int] = []
        self.time_of: list[int] = []
        self.kids: list[list[int]] = []
        self.first: list[int] = []  # position of the first instance through the node
        snaps, snap_of, time_of, kids, first = (
            self.snaps, self.snap_of, self.time_of, self.kids, self.first
        )
        snap_ids: dict[tuple[int, ...], int] = {}
        nodes: dict[tuple[int, tuple[int, ...]], int] = {}  # (parent, snapshot tuple) -> node
        for pos, row in enumerate(ctx.rows):
            parent = -1
            for k in range(n):
                key = (parent, row[k::n])
                node = nodes.get(key)
                if node is None:
                    # a snapshot's first occurrence always opens a new node
                    sid = snap_ids.get(key[1])
                    if sid is None:
                        sid = snap_ids[key[1]] = len(snaps)
                        snaps.append(Snapshot(entities, map(states.__getitem__, key[1])))
                    node = nodes[key] = len(snap_of)
                    snap_of.append(sid)
                    time_of.append(k)
                    kids.append([])
                    first.append(pos)
                    if parent >= 0:
                        kids[parent].append(node)
                parent = node
        self._ids: dict[tuple[int, int], int] = {}
        self._interned: dict[tuple[int, frozenset[int]], int] = {}

    def occurrence(self, node: int) -> tuple[Instance, str]:
        return self.ctx.instance_of(self.ctx.rows[self.first[node]]), self.times[self.time_of[node]]

    def conflict(self, a: int, b: int, futures: tuple[frozenset, frozenset]) -> SnapshotConflict:
        """The conflict of nodes a and b, which show one snapshot, with their futures."""
        return SnapshotConflict(
            self.snaps[self.snap_of[a]], (self.occurrence(a), self.occurrence(b)), futures
        )

    def as_snapshots(self, sids: Iterable[int]) -> frozenset[Snapshot]:
        return frozenset(self.snaps[s] for s in sids)

    def bundle(self, node: int) -> frozenset[Trace]:
        """The future bundle at a node: the snapshots along every path from
        it down to a leaf, since every such path is the suffix of a row."""
        snaps, snap_of, kids = self.snaps, self.snap_of, self.kids
        traces, todo = [], [(node, (snaps[snap_of[node]],))]
        while todo:
            v, trace = todo.pop()
            if kids[v]:
                todo += [(c, trace + (snaps[snap_of[c]],)) for c in kids[v]]
            else:
                traces.append(trace)
        return frozenset(traces)

    def bundle_id(self, node: int, end: int) -> int:
        """Interned id of the node's bundle cut after time index `end`.

        A cut bundle is the node's snapshot followed by the cut bundles of its
        children, so interning (snapshot id, child ids) gives equal ids
        exactly to equal cut bundles (Daciuk et al. 2000). Nodes are filled
        from a stack so that long time chains stay within the recursion limit.
        """
        ids = self._ids
        todo = [node] if (node, end) not in ids else []
        while todo:
            v = todo[-1]
            kids = self.kids[v] if self.time_of[v] < end else ()
            pending = [c for c in kids if (c, end) not in ids]
            if pending:
                todo.extend(pending)
                continue
            key = (self.snap_of[v], frozenset(ids[c, end] for c in kids))
            ids[v, end] = self._interned.setdefault(key, len(self._interned))
            todo.pop()
        return ids[node, end]


def is_determinable(ctx: Context, mode: str = "literal") -> SnapshotConflict | None:
    """Check determinability in the requested mode: None when the context is
    determinable, else the witness, a `SnapshotConflict` of two full future
    bundles.

    Each snapshot's trie nodes are sorted by time and each is compared with
    the next one only. That covers every pair: if the bundle at a_k, cut to
    the suffix length of a_(k+1), equals the bundle at a_(k+1) for every k, then
    cutting both sides of each equation shorter carries it along the chain,
    so every a_i agrees with every later a_j.

    The witness is the failing snapshot's first node x (in order of first
    occurrence) with a disagreeing partner, and x's first such partner y. In
    literal mode x is the first node, as agreement is an equivalence. In
    windowed mode a node at time u has a partner iff the nodes at times <= u
    show two cuts at u, or the nodes at some later time s show a cut at s
    other than its own: O(nodes * times) bundle ids, a time's cuts made when first read.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    trie = _Trie(ctx)
    time_of, last = trie.time_of, len(trie.times) - 1

    def agree(a: int, b: int) -> bool:
        if mode == "literal" and time_of[a] != time_of[b]:
            return False  # unequal suffix lengths: no monotone bijection exists
        cut = last - max(time_of[a], time_of[b])
        return trie.bundle_id(a, time_of[a] + cut) == trie.bundle_id(b, time_of[b] + cut)

    def cut_to(v: int, s: int) -> int:  # v's bundle cut to the window of a node at time s
        return trie.bundle_id(v, time_of[v] + last - s)

    groups: dict[int, list[int]] = {}
    for node, sid in enumerate(trie.snap_of):
        groups.setdefault(sid, []).append(node)
    for nodes in groups.values():
        chain = sorted(nodes, key=time_of.__getitem__)
        if all(agree(a, b) for a, b in zip(chain, chain[1:])):
            continue
        if mode == "literal":
            x = nodes[0]
        else:
            times = sorted({time_of[v] for v in nodes})
            upto = cache(lambda s: {cut_to(v, s) for v in nodes if time_of[v] <= s})
            at = cache(lambda s: {cut_to(v, s) for v in nodes if time_of[v] == s})
            x = next(u for u in nodes if len(upto(time_of[u])) > 1 or any(
                at(s) != {cut_to(u, s)} for s in times if s > time_of[u]))
        y = next(v for v in nodes if v != x and not agree(x, v))  # x agrees with x
        return trie.conflict(x, y, (trie.bundle(x), trie.bundle(y)))
    return None


def is_deterministic(ctx: Context) -> bool:
    """Exactly one successor snapshot at every non-final time.

    Multiple initial snapshots are allowed; only the step structure counts.
    That holds iff no two rows share their initial snapshot: the prefix trie
    has one leaf per (distinct) row and at least one per root, and leaves
    equal roots exactly when no non-final node has two children.
    """
    n = len(ctx.signature.times)
    return len({row[::n] for row in ctx.rows}) == len(ctx.rows)


def extract_iterator(ctx: Context) -> _IteratorDict | SnapshotConflict:
    """The step function demanded by every occurrence, as a dict from each
    occurring snapshot to its image, or the first conflict.

    Every occurrence of a snapshot at a time with a successor pins the
    snapshot's image to its next-snapshot set; two occurrences pinning
    different images are a conflict. Snapshots seen only at the final time
    get the empty image. Occurrences sharing a trie node share its next set,
    and a node's first occurrence comes first in the scan, so walking nodes
    in creation order meets the same first conflict as walking occurrences.
    """
    trie = _Trie(ctx)
    last = len(trie.times) - 1
    images: dict[int, frozenset[int]] = {}
    first: dict[int, int] = {}
    for node, sid in enumerate(trie.snap_of):
        if trie.time_of[node] == last:
            continue
        nxt = frozenset(trie.snap_of[c] for c in trie.kids[node])
        if images.setdefault(sid, nxt) != nxt:
            futures = trie.as_snapshots(images[sid]), trie.as_snapshots(nxt)
            return trie.conflict(first[sid], node, futures)
        first.setdefault(sid, node)
    return {snap: trie.as_snapshots(images.get(sid, ())) for sid, snap in enumerate(trie.snaps)}


def generate_from_iterator(
    iterator: _IteratorDict, seeds: Iterable[Snapshot], horizon: int
) -> Context:
    """Unroll every trajectory of the given length from the seeds.

    All branching is kept; the result is the context of all iterator paths,
    over the seeds' entities, which every snapshot of the map must share, and
    every state of the seeds and the map, reached or not. Paths are counted
    per last snapshot first, one pass per step, which names the first
    snapshot in rendered order that is not in the domain or has an empty
    image. More paths than the guard (`DEFAULT_SPACE_GUARD`, or
    `CTXKIT_GUARD`) are refused before any is unrolled.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seed_set = set(seeds)
    if not seed_set:
        raise ValueError("at least one seed snapshot is required")
    entities = next(iter(seed_set)).entities
    states = set()
    for snap in chain(seed_set, iterator, *iterator.values()):
        if snap.entities != entities:
            raise ValueError("the seeds and the iterator's snapshots are over different entities")
        states.update(snap.states)

    counts = dict.fromkeys(seed_set, 1)  # last snapshot -> paths ending there
    for step in range(1, horizon):
        grown: dict[Snapshot, int] = {}
        for snap in sorted(counts, key=Snapshot.render):
            image = iterator.get(snap)
            if image is None:
                raise ValueError(
                    f"snapshot {snap.render()} reached at time {step - 1} "
                    "is not in the iterator domain"
                )
            if not image:
                raise ValueError(
                    f"iterator image of {snap.render()} is empty before the final time"
                )
            for nxt in image:
                grown[nxt] = grown.get(nxt, 0) + counts[snap]
        counts = grown
    check_guard(sum(counts.values()), DEFAULT_SPACE_GUARD, "iterator unrolling")

    paths = [(seed,) for seed in seed_set]  # Context.from_rows sorts the rows
    for _ in range(1, horizon):
        paths = [path + (nxt,) for path in paths for nxt in iterator[path[-1]]]

    times = tuple(str(k) for k in range(horizon))
    sig = Signature(tuple(sorted(states)), entities, times)
    index = {s: i for i, s in enumerate(sig.states)}
    rows = [
        tuple(index[snap.states[ei]] for ei in range(len(sig.entities)) for snap in path)
        for path in paths
    ]
    return Context.from_rows(sig, rows)


def render_iterator_map(iterator: _IteratorDict) -> str:
    """One `iter <snapshot> -> <snapshot>[,...]` line per domain snapshot.

    Snapshots render as `e1=s;e2=s` in canonical entity order; an empty
    image renders as `-`. Lines come in rendered order of the domain, so two
    equal maps always serialize identically.
    """
    lines = []
    for snap, image in sorted(iterator.items(), key=lambda pair: pair[0].render()):
        if image:
            rhs = ",".join(s.render() for s in sorted(image, key=lambda s: s.render()))
        else:
            rhs = "-"
        lines.append(f"iter {snap.render()} -> {rhs}\n")
    return "".join(lines)
