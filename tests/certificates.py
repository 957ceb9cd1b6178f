"""Checkers for the evidence behind context verdicts, at any scale.

A certifying algorithm returns, with each answer, evidence that a small
checker verifies without trusting the algorithm (McConnell, Mehlhorn, Näher
& Schweitzer, "Certifying algorithms", Computer Science Review 5(2), 2011).
On finite chains an iterator exists iff the context is windowed
determinable, and literal determinability adds that each snapshot occurs at
one time only (the README proves both). So a "yes" is certified by the map
`extract_iterator` returns, and a "no" or an iterator conflict by its
`SnapshotConflict`, whose futures are recomputed here from the rows.

The checkers read `Context.rows` and `Context.signature` only, never the
library's trie or verdicts, so they scale where the brute-force oracles of
`oracles.py` stop. Each returns None when the evidence holds, else one line
saying what fails. They check soundness only: that a witness is the *first*
failing pair stays with the oracles on small inputs.
"""

from __future__ import annotations

from collections import defaultdict


def _trajectories(ctx):
    """Each row as a tuple of snapshots in time order, a snapshot being the
    tuple of its entities' state names."""
    sig = ctx.signature
    n, names = len(sig.times), sig.states
    return [tuple(tuple(names[s] for s in row[k::n]) for k in range(n)) for row in ctx.rows]


def _next_sets(trajectories, k):
    """Prefix through time k -> the snapshots at time k + 1 of the rows
    that share it."""
    groups = defaultdict(set)
    for traj in trajectories:
        groups[traj[: k + 1]].add(traj[k + 1])
    return groups


def _step_failure(trajectories, times, iterator):
    """Why the map is not the context's step function, or None."""
    image = {snap.states: frozenset(s.states for s in nxt) for snap, nxt in iterator.items()}
    seen = {snap for traj in trajectories for snap in traj}
    if image.keys() != seen:
        return "the map's domain is not the set of snapshots that occur"
    for k in range(len(times) - 1):
        for prefix, nxt in _next_sets(trajectories, k).items():
            if nxt != image[prefix[-1]]:
                return f"the rows through {prefix[-1]} at time {times[k]} step to another set"
    before_last = {snap for traj in trajectories for snap in traj[:-1]}
    for snap in seen - before_last:
        if image[snap]:
            return f"{snap} occurs only at the final time but has a nonempty image"
    return None


def windowed_yes(ctx, iterator):
    """A windowed "yes": each prefix group's next snapshots are the map's
    image of the group's last snapshot, and a snapshot seen only at the
    final time maps to the empty set."""
    return _step_failure(_trajectories(ctx), ctx.signature.times, iterator)


def literal_yes(ctx, iterator):
    """A literal "yes": a windowed "yes" in which each snapshot occurs at
    one time only."""
    trajectories = _trajectories(ctx)
    at = defaultdict(set)
    for traj in trajectories:
        for k, snap in enumerate(traj):
            at[snap].add(k)
    for snap, times in at.items():
        if len(times) > 1:
            return f"{snap} occurs at {len(times)} times"
    return _step_failure(trajectories, ctx.signature.times, iterator)


def _places(ctx, witness):
    """Each witness occurrence as (its row's trajectory, its time index),
    and the context's trajectories; or one line saying why an occurrence is
    none: off the signature, not a row, or not showing the snapshot."""
    sig, trajectories = ctx.signature, _trajectories(ctx)
    index, rows = {s: i for i, s in enumerate(sig.states)}, {r: j for j, r in enumerate(ctx.rows)}
    places = []
    for instance, time in witness.occurrences:
        if (instance.entities, instance.times) != (sig.entities, sig.times) or \
                time not in sig.times:
            return None, None, "an occurrence is not over the context's signature"
        j = rows.get(tuple(index.get(c, -1) for c in instance.cells))
        if j is None:
            return None, None, "an occurrence's instance is not in the context"
        k = sig.times.index(time)
        if trajectories[j][k] != witness.snapshot.states:
            return None, None, "an occurrence does not show the witness's snapshot"
        places.append((trajectories[j], k))
    return trajectories, places, None


def _group(trajectories, traj, k):
    """The rows that share the prefix of traj through time index k."""
    return [t for t in trajectories if t[: k + 1] == traj[: k + 1]]


def determinability_no(ctx, witness, mode):
    """A "no" witness: each occurrence's bundle, recomputed from the rows
    that share its prefix, equals its stated bundle, and the two differ,
    all cut to the common window in windowed mode; in literal mode,
    occurrences at two times also differ."""
    trajectories, places, failure = _places(ctx, witness)
    if failure:
        return failure
    (a, i), (_, j) = places
    bundles = [frozenset(t[k:] for t in _group(trajectories, traj, k)) for traj, k in places]
    stated = [frozenset(tuple(s.states for s in trace) for trace in x) for x in witness.futures]
    if mode == "windowed":
        window = len(a) - max(i, j)
        bundles, stated = ([frozenset(t[:window] for t in x) for x in pair]
                           for pair in (bundles, stated))
    if bundles != stated:
        return "a stated bundle is not the one the rows give"
    if bundles[0] == bundles[1] and (mode == "windowed" or i == j):
        return "the two bundles agree"
    return None


def iterator_conflict(ctx, witness):
    """An iterator conflict: each occurrence's next-snapshot set, recomputed
    from the rows that share its prefix, equals its stated set, and the two
    differ."""
    trajectories, places, failure = _places(ctx, witness)
    if failure:
        return failure
    if any(k + 1 == len(traj) for traj, k in places):
        return "an occurrence is at the final time"
    nexts = [frozenset(t[k + 1] for t in _group(trajectories, traj, k)) for traj, k in places]
    if nexts != [frozenset(s.states for s in x) for x in witness.futures]:
        return "a stated next set is not the one the rows give"
    if nexts[0] == nexts[1]:
        return "the two next sets agree"
    return None
