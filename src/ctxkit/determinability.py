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

Both modes compare interned ids of prefix-tree bundles, so a check costs one
id per prefix node and window width, never one bundle pair per occurrence
pair. A "no" names the first failing pair in canonical scan order: snapshots
by first occurrence, their occurrences by instance, then by time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ctxkit.core import Context, Instance, Signature, Snapshot, consistency_context

MODES = ("literal", "windowed")


@dataclass(frozen=True)
class SuffixIso:
    """The unique order isomorphism between two equally long time suffixes."""

    source_start: str
    target_start: str
    alignment: tuple[tuple[str, str], ...]

    def apply(self, t: str) -> str:
        for a, b in self.alignment:
            if a == t:
                return b
        raise ValueError(f"time {t!r} is not in the source suffix")


def suffix_iso(times: Sequence[str], t: str, t_other: str) -> SuffixIso | None:
    """Strictly monotone bijection between the suffixes from t and t_other.

    On a finite chain it exists iff the suffixes have equal length (hence
    iff t == t_other) and is then the positionwise pairing; returns None
    otherwise.
    """
    times = tuple(times)
    try:
        i = times.index(t)
        j = times.index(t_other)
    except ValueError as exc:
        raise ValueError(f"time label not in the chain: {exc}") from None
    if len(times) - i != len(times) - j:
        return None
    return SuffixIso(t, t_other, tuple(zip(times[i:], times[j:])))


Trace = tuple[Snapshot, ...]


def future_bundle(ctx: Context, inst: Instance, t: str) -> frozenset[Trace]:
    """Suffix traces from t of everything consistent with inst up to t.

    Each trace is the snapshot sequence of one member of the consistency
    context, restricted to the times >= t; duplicates collapse.
    """
    if inst not in ctx:
        raise ValueError("instance is not a member of the context")
    sig = ctx.signature
    ti = sig.time_index(t)
    members = consistency_context(ctx, inst, t)
    n = len(sig.times)
    return frozenset(
        tuple(w.snapshot_at(k) for k in range(ti, n)) for w in members
    )


@dataclass(frozen=True)
class DeterminabilityWitness:
    """A pair of equal-snapshot occurrences whose futures disagree."""

    instance: Instance
    other_instance: Instance
    time: str
    other_time: str
    bundle: frozenset[Trace]
    other_bundle: frozenset[Trace]

    def snapshot(self) -> Snapshot:
        return self.instance.snapshot(self.time)


@dataclass(frozen=True)
class DeterminabilityReport:
    determinable: bool
    mode: str
    witness: DeterminabilityWitness | None

    def __post_init__(self):
        if self.determinable == (self.witness is not None):
            raise ValueError("witness must be present exactly when the verdict is no")


class _Engine:
    """Shared per-context scaffolding for the whole-context analyses.

    Instances agreeing on their prefix up to a time share their consistency
    context, so bundle ids and next sets are computed once per (prefix, time)
    group instead of once per occurrence.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.times = ctx.signature.times
        self.n_times = len(self.times)
        self.n_entities = len(ctx.signature.entities)
        self.rows = {
            inst: tuple(inst.snapshot_at(k) for k in range(self.n_times))
            for inst in ctx.instances
        }
        self._groups: list[dict[tuple, list[Instance]] | None] = [None] * self.n_times
        self._next: dict[tuple, frozenset[Snapshot]] = {}
        self._ids: dict[tuple, int] = {}
        self._interned: dict[tuple, int] = {}

    def prefix_key(self, inst: Instance, ti: int) -> tuple:
        n = self.n_times
        upto = ti + 1
        return tuple(
            inst.cells[e * n : e * n + upto] for e in range(self.n_entities)
        )

    def groups_at(self, ti: int) -> dict[tuple, list[Instance]]:
        if self._groups[ti] is None:
            groups: dict[tuple, list[Instance]] = {}
            for inst in self.ctx.instances:
                groups.setdefault(self.prefix_key(inst, ti), []).append(inst)
            self._groups[ti] = groups
        return self._groups[ti]

    def bundle(self, inst: Instance, ti: int) -> frozenset[Trace]:
        members = self.groups_at(ti)[self.prefix_key(inst, ti)]
        return frozenset(self.rows[w][ti:] for w in members)

    def bundle_id(self, inst: Instance, ti: int, width: int) -> int:
        """Interned id of bundle(inst, ti) cut to its first `width` time points.

        A cut bundle is the node's snapshot followed by the cut bundles of its
        children, one per distinct next snapshot, so interning (snapshot, child
        ids) gives equal ids exactly to equal cut bundles (Daciuk et al. 2000).
        Nodes, keyed by their first member's identity, are filled from a stack
        so that long time chains stay within the recursion limit.
        """
        end, ids = ti + width - 1, self._ids
        root = self.groups_at(ti)[self.prefix_key(inst, ti)]
        todo = [(root, ti)] if (id(root[0]), ti, end) not in ids else []
        while todo:
            members, t = todo[-1]
            split: dict[tuple[str, ...], list[Instance]] = {}
            for m in members if t < end else ():
                split.setdefault(self.rows[m][t + 1].states, []).append(m)
            pending = [(c, t + 1) for c in split.values() if (id(c[0]), t + 1, end) not in ids]
            if pending:
                todo.extend(pending)
                continue
            node = (self.rows[members[0]][t].states,
                    frozenset(ids[id(c[0]), t + 1, end] for c in split.values()))
            ids[id(members[0]), t, end] = self._interned.setdefault(node, len(self._interned))
            todo.pop()
        return ids[id(root[0]), ti, end]

    def next_set(self, inst: Instance, ti: int) -> frozenset[Snapshot]:
        key = (self.prefix_key(inst, ti), ti)
        cached = self._next.get(key)
        if cached is None:
            members = self.groups_at(ti)[key[0]]
            cached = frozenset(self.rows[w][ti + 1] for w in members)
            self._next[key] = cached
        return cached


def is_determinable(ctx: Context, mode: str = "literal") -> DeterminabilityReport:
    """Check determinability in the requested mode.

    Checking each snapshot's occurrences against its earliest one covers
    every pair: bundles equal over a window stay equal when cut shorter.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    engine = _Engine(ctx)

    def agree(a: tuple[Instance, int], b: tuple[Instance, int]) -> bool:
        if mode == "literal" and a[1] != b[1]:
            return False  # unequal suffix lengths: no monotone bijection exists
        w = engine.n_times - max(a[1], b[1])
        return engine.bundle_id(*a, w) == engine.bundle_id(*b, w)

    groups: dict[Snapshot, list[tuple[Instance, int]]] = {}
    for inst in ctx.instances:
        for ti, snap in enumerate(engine.rows[inst]):
            groups.setdefault(snap, []).append((inst, ti))
    for group in groups.values():
        pivot = min(group, key=lambda occ: occ[1])
        if all(agree(pivot, occ) for occ in group if occ is not pivot):
            continue
        a, b = next((a, b) for i, a in enumerate(group) for b in group[i + 1 :] if not agree(a, b))
        witness = DeterminabilityWitness(
            a[0], b[0], engine.times[a[1]], engine.times[b[1]], engine.bundle(*a), engine.bundle(*b)
        )
        return DeterminabilityReport(False, mode, witness)
    return DeterminabilityReport(True, mode, None)


def next_snapshot_set(ctx: Context, inst: Instance, t: str) -> frozenset[Snapshot]:
    """Snapshots one step after t across the consistency context of inst."""
    if ctx.signature.time_index(t) + 1 == len(ctx.signature.times):
        raise ValueError(f"time {t!r} has no successor in the chain")
    return frozenset(trace[1] for trace in future_bundle(ctx, inst, t))


def is_deterministic(ctx: Context) -> bool:
    """Exactly one successor snapshot at every non-final time.

    Multiple initial snapshots are allowed; only the step structure counts.
    """
    engine = _Engine(ctx)
    for ti in range(engine.n_times - 1):
        for members in engine.groups_at(ti).values():
            if len({engine.rows[w][ti + 1] for w in members}) != 1:
                return False
    return True


@dataclass(frozen=True)
class IteratorMap:
    """A snapshot -> set-of-snapshots step function over a context's snapshots.

    Entries are kept sorted by rendered snapshot, so two equal maps always
    serialize identically.
    """

    entities: tuple[str, ...]
    entries: tuple[tuple[Snapshot, frozenset[Snapshot]], ...]

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        cleaned = []
        seen = set()
        for snap, image in self.entries:
            if snap.entities != self.entities:
                raise ValueError("domain snapshot entities do not match the map")
            if snap in seen:
                raise ValueError(f"duplicate domain snapshot {snap.render()}")
            seen.add(snap)
            for out in image:
                if out.entities != self.entities:
                    raise ValueError("image snapshot entities do not match the map")
            cleaned.append((snap, frozenset(image)))
        cleaned.sort(key=lambda pair: pair[0].render())
        object.__setattr__(self, "entries", tuple(cleaned))

    @cached_property
    def _table(self) -> dict[Snapshot, frozenset[Snapshot]]:
        return dict(self.entries)

    def domain(self) -> tuple[Snapshot, ...]:
        return tuple(snap for snap, _ in self.entries)

    def image(self, snap: Snapshot) -> frozenset[Snapshot]:
        try:
            return self._table[snap]
        except KeyError:
            raise KeyError(f"snapshot {snap.render()} is not in the iterator domain") from None

    def __contains__(self, snap: object) -> bool:
        return snap in self._table


@dataclass(frozen=True)
class IteratorConflict:
    """One snapshot demanding two different images, with both occurrences."""

    snapshot: Snapshot
    first_image: frozenset[Snapshot]
    second_image: frozenset[Snapshot]
    first_occurrence: tuple[Instance, str]
    second_occurrence: tuple[Instance, str]


@dataclass(frozen=True)
class IteratorExtraction:
    iterator: IteratorMap | None
    conflict: IteratorConflict | None

    def __post_init__(self):
        if (self.iterator is None) == (self.conflict is None):
            raise ValueError("extraction carries either an iterator or a conflict")


def extract_iterator(ctx: Context) -> IteratorExtraction:
    """Build the step function demanded by every occurrence, if one fits.

    Every occurrence of a snapshot at a time with a successor pins the
    snapshot's image to its next-snapshot set; two occurrences pinning
    different images are a conflict. Snapshots seen only at the final time
    get the empty image.
    """
    engine = _Engine(ctx)
    times = engine.times
    images: dict[Snapshot, frozenset[Snapshot]] = {}
    first_at: dict[Snapshot, tuple[Instance, str]] = {}
    for inst in ctx.instances:
        row = engine.rows[inst]
        for ti in range(len(times) - 1):
            snap = row[ti]
            nxt = engine.next_set(inst, ti)
            if snap in images:
                if images[snap] != nxt:
                    conflict = IteratorConflict(
                        snap, images[snap], nxt, first_at[snap], (inst, times[ti])
                    )
                    return IteratorExtraction(None, conflict)
            else:
                images[snap] = nxt
                first_at[snap] = (inst, times[ti])
    for inst in ctx.instances:
        images.setdefault(engine.rows[inst][-1], frozenset())
    iterator = IteratorMap(ctx.signature.entities, tuple(images.items()))
    return IteratorExtraction(iterator, None)


def has_iterator(ctx: Context) -> bool:
    return extract_iterator(ctx).iterator is not None


def generate_from_iterator(
    iterator: IteratorMap, seeds: Iterable[Snapshot], horizon: int
) -> Context:
    """Unroll every trajectory of the given length from the seeds.

    All branching is kept; the result is the context of all iterator paths.
    Every snapshot reached before the final time must be in the domain with
    a non-empty image.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    seed_list = sorted(set(seeds), key=lambda s: s.render())
    if not seed_list:
        raise ValueError("at least one seed snapshot is required")
    for seed in seed_list:
        if seed.entities != iterator.entities:
            raise ValueError("seed snapshot entities do not match the iterator")

    paths: list[tuple[Snapshot, ...]] = [(s,) for s in seed_list]
    for step in range(1, horizon):
        extended: list[tuple[Snapshot, ...]] = []
        for path in paths:
            last = path[-1]
            if last not in iterator:
                raise ValueError(
                    f"snapshot {last.render()} reached at time {step - 1} "
                    "is not in the iterator domain"
                )
            image = iterator.image(last)
            if not image:
                raise ValueError(
                    f"iterator image of {last.render()} is empty before the final time"
                )
            for nxt in sorted(image, key=lambda s: s.render()):
                extended.append(path + (nxt,))
        paths = extended

    states = set()
    for snap, image in iterator.entries:
        states.update(snap.states)
        for out in image:
            states.update(out.states)
    for seed in seed_list:
        states.update(seed.states)
    times = tuple(str(k) for k in range(horizon))
    sig = Signature(tuple(sorted(states)), iterator.entities, times)
    instances = tuple(
        Instance(
            sig.entities,
            times,
            tuple(path[ti].states[ei]
                  for ei in range(len(sig.entities))
                  for ti in range(horizon)),
        )
        for path in paths
    )
    return Context(sig, instances)


def render_iterator_map(iterator: IteratorMap) -> str:
    """One `iter <snapshot> -> <snapshot>[,...]` line per domain snapshot.

    Snapshots render as `e1=s;e2=s` in canonical entity order; an empty
    image renders as `-`.
    """
    lines = []
    for snap, image in iterator.entries:
        if image:
            rhs = ",".join(s.render() for s in sorted(image, key=lambda s: s.render()))
        else:
            rhs = "-"
        lines.append(f"iter {snap.render()} -> {rhs}")
    return "\n".join(lines) + "\n"
