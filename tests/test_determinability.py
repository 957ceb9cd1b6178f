"""Determinability, determinism, iterator extraction, and trajectory unrolling."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import corpus
import oracles
from ctxkit.cli import cli_dispatch
from ctxkit.core import Context, Instance, Signature, SizeGuardError, Snapshot
from ctxkit.determinability import (
    SnapshotConflict,
    _Trie,
    extract_iterator,
    generate_from_iterator,
    is_determinable,
    is_deterministic,
    render_iterator_map,
)
from ctxkit.formats import parse_context, render_context
from ctxkit.generators import gen_alice_bob, gen_alice_bob_odd, gen_minigame


def row_context(states, *rows):
    """Single-entity context from rows of states over an implicit time chain."""
    times = tuple(str(i) for i in range(len(rows[0])))
    sig = Signature(tuple(states), ("e0",), times)
    return Context(sig, tuple(Instance(("e0",), times, tuple(r)) for r in rows))


def snap1(state):
    return Snapshot(("e0",), (state,))


def trie_path(trie, inst):
    """The node of member `inst` at each time, found by walking `trie.kids`
    from the time-0 node of its first snapshot."""
    snaps = [inst.snapshot(t) for t in trie.times]
    path = [next(v for v, t in enumerate(trie.time_of)
                 if t == 0 and trie.snaps[trie.snap_of[v]] == snaps[0])]
    for snap in snaps[1:]:
        path.append(next(c for c in trie.kids[path[-1]] if trie.snaps[trie.snap_of[c]] == snap))
    return path


def trie_node(ctx, inst, t):
    """The trie built for `ctx` and the node of member `inst` at time label t."""
    trie = _Trie(ctx)
    return trie, trie_path(trie, inst)[ctx.signature.time_index(t)]


def trie_bundle(ctx, inst, t):
    """The future bundle the trie gives witnesses, at `inst`'s node at t."""
    trie, node = trie_node(ctx, inst, t)
    return trie.bundle(node)


def trie_next_set(ctx, inst, t):
    """The next-snapshot set the trie gives iterator images, at `inst`'s node at t."""
    trie, node = trie_node(ctx, inst, t)
    return trie.as_snapshots(trie.snap_of[c] for c in trie.kids[node])


def test_trie_paths_and_bundles_are_rebuilt_from_rows():
    # the trie keeps no per-row path table: each path is rebuilt here by
    # walking the children from its time-0 node, and each bundle walks the
    # node's subtree; nodes must be numbered by first occurrence, which the
    # witness rule relies on, and bundles must match the oracle's
    rng = random.Random(3131)
    for _ in range(60):
        ctx = corpus.random_context(rng)
        trie, times = _Trie(ctx), ctx.signature.times
        paths = [trie_path(trie, inst) for inst in ctx.instances]
        for path, inst in zip(paths, ctx.instances):
            assert [trie.snaps[trie.snap_of[v]] for v in path] == [
                inst.snapshot(t) for t in times
            ]
        for node, t in enumerate(trie.time_of):
            through = [k for k, path in enumerate(paths) if path[t] == node]
            assert through and through[0] == trie.first[node]
            assert trie.bundle(node) == corpus.oracle_bundle(
                ctx, ctx.instances[through[0]], times[t]
            )


# ---------------------------------------------------------------------------
# future bundles: the trie's witness bundles and the oracle the acceptance
# tests recompute them with, both against hand-frozen values
# ---------------------------------------------------------------------------

def test_future_bundle_singleton_context():
    ctx = row_context("abc", "abc")
    [inst] = ctx.instances
    expected = frozenset({(snap1("a"), snap1("b"), snap1("c"))})
    assert trie_bundle(ctx, inst, "0") == expected
    assert corpus.oracle_bundle(ctx, inst, "0") == expected


def test_future_bundle_prefix_filter_matches_oracle():
    # frozen by hand: only (a,b,c) agrees with itself up to t=1, suffix (b,c)
    ctx = row_context("abcd", "abc", "dbd")
    w1 = Instance(("e0",), ("0", "1", "2"), ("a", "b", "c"))
    got = trie_bundle(ctx, w1, "1")
    assert got == frozenset({(snap1("b"), snap1("c"))})

    oracle = oracles.future_bundle(
        corpus.as_tables(ctx), corpus.table(w1), ("e0",), ("0", "1", "2"), 1
    )
    assert {tuple(tr) for tr in oracle} == {
        tuple(s.states for s in trace) for trace in got
    }
    assert corpus.oracle_bundle(ctx, w1, "1") == got


def test_future_bundle_at_final_time():
    ctx = row_context("ab", "aa", "ab", "ba")
    w = Instance(("e0",), ("0", "1"), ("a", "a"))
    for got in (trie_bundle(ctx, w, "1"), corpus.oracle_bundle(ctx, w, "1")):
        assert got == frozenset({(snap1("a"),)})
        assert all(len(tr) == 1 for tr in got)


def test_future_bundle_requires_membership():
    ctx = row_context("ab", "aa")
    with pytest.raises(ValueError):
        corpus.oracle_bundle(ctx, Instance(("e0",), ("0", "1"), ("b", "b")), "0")


# ---------------------------------------------------------------------------
# next snapshot sets: the trie's iterator images and the oracle
# ---------------------------------------------------------------------------

def test_next_snapshot_set_singleton():
    ctx = row_context("abc", "abc")
    [inst] = ctx.instances
    assert trie_next_set(ctx, inst, "0") == frozenset({snap1("b")})
    assert corpus.oracle_next_set(ctx, inst, "0") == frozenset({snap1("b")})


def test_next_snapshot_set_branches_on_shared_prefix():
    ctx = row_context("abc", "ab", "ac")
    inst = Instance(("e0",), ("0", "1"), ("a", "b"))
    expected = frozenset({snap1("b"), snap1("c")})
    assert trie_next_set(ctx, inst, "0") == expected
    assert corpus.oracle_next_set(ctx, inst, "0") == expected


def test_next_snapshot_set_prefix_filter_excludes():
    ctx = row_context("abcd", "ab", "dc")
    inst = Instance(("e0",), ("0", "1"), ("a", "b"))
    assert trie_next_set(ctx, inst, "0") == frozenset({snap1("b")})
    assert corpus.oracle_next_set(ctx, inst, "0") == frozenset({snap1("b")})


def test_next_snapshot_set_errors_at_final_time():
    ctx = row_context("ab", "ab")
    [inst] = ctx.instances
    assert trie_next_set(ctx, inst, "1") == frozenset()
    with pytest.raises(ValueError):
        corpus.oracle_next_set(ctx, inst, "1")


# ---------------------------------------------------------------------------
# determinability
# ---------------------------------------------------------------------------

def test_singleton_with_distinct_snapshots_is_determinable_both_modes():
    ctx = row_context("abc", "abc")
    assert is_determinable(ctx, "literal") is None
    assert is_determinable(ctx, "windowed") is None


def test_constant_singleton_literal_no_windowed_yes():
    # frozen from an exhaustive check by hand: the constant timeline repeats
    # its snapshot at every time, and suffixes of different lengths admit no
    # monotone bijection, so the literal reading fails; every truncated
    # bundle is the constant trace, so the windowed reading holds.
    ctx = row_context("a", "aaa")
    literal = is_determinable(ctx, "literal")
    assert literal is not None
    (_, t), (_, u) = literal.occurrences
    assert t != u
    assert is_determinable(ctx, "windowed") is None

    tables = corpus.as_tables(ctx)
    assert oracles.determinable(tables, ("e0",), ("0", "1", "2"), "literal") is False
    assert oracles.determinable(tables, ("e0",), ("0", "1", "2"), "windowed") is True


def test_two_instance_counterexample_with_witness():
    # frozen from an exhaustive check: snapshot b at t=1 in both instances,
    # futures {(b,c)} vs {(b,d)}
    ctx = row_context("abcd", "abc", "dbd")
    for mode in ("literal", "windowed"):
        w = is_determinable(ctx, mode)
        assert w is not None
        assert [t for _, t in w.occurrences] == ["1", "1"]
        assert w.snapshot == snap1("b")
        assert [{tuple(s.states[0] for s in tr) for tr in bundle} for bundle in w.futures] == [
            {("b", "c")}, {("b", "d")}
        ]


def test_is_determinable_rejects_unknown_mode():
    ctx = row_context("a", "a")
    with pytest.raises(ValueError):
        is_determinable(ctx, "both")


def plain_bundle(bundle):
    """Traces as tuples of state tuples, the oracles' representation."""
    return {tuple(s.states for s in trace) for trace in bundle}


def assert_matches_oracles(ctx, mode):
    sig = ctx.signature
    w = is_determinable(ctx, mode)
    expected = oracles.first_failing_pair(corpus.as_tables(ctx), sig.entities, sig.times, mode)
    assert (w is None) == (expected is None)
    if expected is None:
        return
    a, i, b, j, bundle_a, bundle_b = expected
    assert w.occurrences == ((ctx.instances[a], sig.times[i]), (ctx.instances[b], sig.times[j]))
    assert w.snapshot == ctx.instances[a].snapshot_at(i) == ctx.instances[b].snapshot_at(j)
    assert [plain_bundle(bundle) for bundle in w.futures] == [bundle_a, bundle_b]


def test_determinability_agrees_with_oracle_on_corpus():
    # verdicts and witnesses (first failing pair, same bundles), on the
    # corpora that the other determinability tests draw
    for seed, max_instances in ((515, 6), (616, 8), (717, 8)):
        rng = random.Random(seed)
        for _ in range(150):
            ctx = corpus.random_context(rng, max_instances=max_instances)
            for mode in ("literal", "windowed"):
                assert_matches_oracles(ctx, mode)
    # contexts whose first failing node is not their snapshot's first node
    for h in (4, 5, 6):
        for mode in ("literal", "windowed"):
            assert_matches_oracles(corpus.wide_context(h), mode)


def test_the_verdict_oracle_is_the_failing_pair_oracle_finding_none():
    # `assert_matches_oracles` reads only `first_failing_pair`; the verdict
    # oracle, which the recorded answers read, gives the same answer
    for seed, max_instances in ((515, 6), (616, 8), (717, 8)):
        rng = random.Random(seed)
        for _ in range(150):
            ctx = corpus.random_context(rng, max_instances=max_instances)
            args = corpus.as_tables(ctx), ctx.signature.entities, ctx.signature.times
            for mode in ("literal", "windowed"):
                assert oracles.determinable(*args, mode) == (
                    oracles.first_failing_pair(*args, mode) is None)


def test_windowed_witness_reads_a_bounded_number_of_bundle_ids(monkeypatch):
    # the witness is read off the failing snapshot's nodes with O(nodes *
    # times) bundle ids; a scan over pairs of its 731 occurrences needs
    # hundreds of thousands
    ctx = corpus.wide_context(8)
    trie = _Trie(ctx)
    nodes, times = len(trie.snap_of), len(trie.times)
    assert (len(ctx.rows), nodes, times) == (731, 1838, 8)
    calls = 0
    bundle_id = _Trie.bundle_id

    def counted(self, node, end):
        nonlocal calls
        calls += 1
        return bundle_id(self, node, end)

    monkeypatch.setattr(_Trie, "bundle_id", counted)
    w = is_determinable(ctx, "windowed")
    assert calls <= 2 * nodes * times
    assert [(inst.cells[0], t) for inst, t in w.occurrences] == [("b", "1"), ("c", "1")]


@pytest.mark.parametrize("odd", (False, True), ids=("alice_bob", "alice_bob_odd"))
@pytest.mark.parametrize("horizon", (2, 3, 4))
@pytest.mark.parametrize("mode", ("literal", "windowed"))
def test_witness_is_first_failing_pair_on_alice_bob(odd, horizon, mode):
    assert_matches_oracles((gen_alice_bob_odd if odd else gen_alice_bob)(horizon), mode)


@pytest.mark.parametrize("variant", (0, 1), ids=("base", "turn"))
@pytest.mark.parametrize("mode", ("literal", "windowed"))
def test_witness_is_first_failing_pair_on_minigame(variant, mode):
    assert_matches_oracles(gen_minigame()[variant], mode)


def test_literal_yes_implies_windowed_yes_on_corpus():
    rng = random.Random(616)
    for _ in range(150):
        ctx = corpus.random_context(rng, max_instances=8)
        if is_determinable(ctx, "literal") is None:
            assert is_determinable(ctx, "windowed") is None


def test_witnesses_are_genuine():
    rng = random.Random(717)
    checked = 0
    for _ in range(150):
        ctx = corpus.random_context(rng, max_instances=8)
        for mode in ("literal", "windowed"):
            w = is_determinable(ctx, mode)
            if w is None:
                continue
            checked += 1
            assert [inst.snapshot(t) for inst, t in w.occurrences] == [w.snapshot] * 2
            b1, b2 = (corpus.oracle_bundle(ctx, inst, t) for inst, t in w.occurrences)
            assert (b1, b2) == w.futures
            n = len(ctx.signature.times)
            i, j = (ctx.signature.time_index(t) for _, t in w.occurrences)
            if mode == "literal":
                assert i != j or b1 != b2
            else:
                k = min(n - i, n - j)
                assert {tr[:k] for tr in b1} != {tr[:k] for tr in b2}
    assert checked > 20


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_singleton_is_deterministic():
    assert is_deterministic(row_context("abc", "abc"))


def test_branching_iterator_output_is_not_deterministic():
    iterator = {
        snap1("a"): frozenset({snap1("b"), snap1("c")}),
        snap1("b"): frozenset({snap1("b")}),
        snap1("c"): frozenset({snap1("c")}),
    }
    ctx = generate_from_iterator(iterator, {snap1("a")}, 3)
    assert not is_deterministic(ctx)


def test_differing_only_at_initial_time_is_deterministic():
    ctx = row_context("abcd", "acd", "bcd")
    assert is_deterministic(ctx)


def test_empty_and_single_time_contexts_are_deterministic():
    sig = Signature(("a", "b"), ("e0", "e1"), ("0",))
    assert is_deterministic(Context.from_rows(sig, []))
    assert is_deterministic(Context.from_rows(sig, itertools.product(range(2), repeat=2)))
    assert not is_deterministic(row_context("ab", "aa", "ab"))


def test_ctx_deterministic_builds_no_trie(tmp_path, monkeypatch, capsys):
    path = tmp_path / "ab.ctx"
    path.write_text(render_context(gen_alice_bob_odd(4)))
    built = []
    init = _Trie.__init__

    def counted(self, ctx):
        built.append(ctx)
        init(self, ctx)

    monkeypatch.setattr(_Trie, "__init__", counted)
    assert cli_dispatch(["ctx", "deterministic", str(path)]) in (0, 1)
    assert built == []
    assert cli_dispatch(["ctx", "iterator", str(path)]) in (0, 1)
    assert len(built) == 1  # the counter sees the trie an analysis does build
    capsys.readouterr()


# ---------------------------------------------------------------------------
# iterator extraction
# ---------------------------------------------------------------------------

def test_extract_iterator_constant_singleton():
    ctx = row_context("s", "sss")
    iterator = extract_iterator(ctx)
    assert iterator == {snap1("s"): frozenset({snap1("s")})}


def test_an_empty_iterator_map_renders_no_line():
    empty = Context(Signature(("s",), ("e0",), ("0",)), ())
    assert render_iterator_map(extract_iterator(empty)) == ""
    one = Context(empty.signature, (Instance(("e0",), ("0",), ("s",)),))
    assert render_iterator_map(extract_iterator(one)) == "iter e0=s -> -\n"


def test_extract_iterator_branching_and_final_images():
    ctx = row_context("abc", "ab", "ac")
    i = extract_iterator(ctx)
    assert i == {
        snap1("a"): frozenset({snap1("b"), snap1("c")}),
        snap1("b"): frozenset(),
        snap1("c"): frozenset(),
    }


def test_extract_iterator_reports_conflict():
    ctx = row_context("abcxy", "abx", "cby")
    conflict = extract_iterator(ctx)
    assert isinstance(conflict, SnapshotConflict)
    assert conflict.snapshot == snap1("b")
    assert set(conflict.futures) == {frozenset({snap1("x")}), frozenset({snap1("y")})}
    assert [inst.snapshot(t) for inst, t in conflict.occurrences] == [snap1("b")] * 2
    assert [t for _, t in conflict.occurrences] == ["1", "1"]


def test_extraction_mirrors_the_iterator_oracle():
    rng = random.Random(818)
    for _ in range(120):
        ctx = corpus.random_context(rng, max_instances=6)
        expected = oracles.has_iterator(
            corpus.as_tables(ctx), ctx.signature.entities, ctx.signature.times
        )
        assert isinstance(extract_iterator(ctx), dict) == expected


def test_extracted_domain_is_exactly_the_occurring_snapshots():
    rng = random.Random(828)
    for _ in range(60):
        ctx = corpus.random_context(rng, max_instances=6)
        iterator = extract_iterator(ctx)
        if isinstance(iterator, SnapshotConflict):
            continue
        occurring = {
            inst.snapshot_at(ti)
            for inst in ctx
            for ti in range(len(ctx.signature.times))
        }
        assert set(iterator) == occurring


def test_literal_determinable_implies_iterator_satisfying_definition():
    rng = random.Random(919)
    hits = 0
    for _ in range(200):
        ctx = corpus.random_context(rng, max_instances=8)
        if is_determinable(ctx, "literal") is not None:
            continue
        hits += 1
        i = extract_iterator(ctx)
        assert isinstance(i, dict)
        for inst in ctx.instances:
            for t in ctx.signature.times[:-1]:
                assert corpus.oracle_next_set(ctx, inst, t) == i[inst.snapshot(t)]
    assert hits > 20


def test_extraction_is_deterministic_and_serializes_stably():
    rng = random.Random(1020)
    for _ in range(40):
        ctx = corpus.random_context(rng, max_instances=6)
        first = extract_iterator(ctx)
        second = extract_iterator(ctx)
        assert first == second
        if isinstance(first, dict):
            assert render_iterator_map(first) == render_iterator_map(second)


def plain_snaps(snaps):
    return frozenset(s.states for s in snaps)


def assert_iterator_and_determinism_match_oracles(ctx):
    sig = ctx.signature
    tables = corpus.as_tables(ctx)
    assert is_deterministic(ctx) == oracles.deterministic(tables, sig.entities, sig.times)
    images, expected = oracles.extract_iterator(tables, sig.entities, sig.times)
    result = extract_iterator(ctx)
    if expected is None:
        assert isinstance(result, dict)
        assert {s.states: plain_snaps(img) for s, img in result.items()} == images
        return
    snapshot, first_image, second_image, (a, i), (b, j) = expected
    c = result
    assert isinstance(c, SnapshotConflict)
    assert c.snapshot.states == snapshot
    assert [plain_snaps(image) for image in c.futures] == [first_image, second_image]
    assert c.occurrences == ((ctx.instances[a], sig.times[i]), (ctx.instances[b], sig.times[j]))


def test_iterator_and_determinism_agree_with_oracles_on_corpus():
    for seed, max_instances in ((515, 6), (616, 8), (717, 8)):
        rng = random.Random(seed)
        for _ in range(150):
            assert_iterator_and_determinism_match_oracles(
                corpus.random_context(rng, max_instances=max_instances)
            )


@pytest.mark.parametrize("odd", (False, True), ids=("alice_bob", "alice_bob_odd"))
@pytest.mark.parametrize("horizon", (2, 3, 4, 5))
def test_iterator_and_determinism_agree_with_oracles_on_alice_bob(odd, horizon):
    assert_iterator_and_determinism_match_oracles(
        (gen_alice_bob_odd if odd else gen_alice_bob)(horizon)
    )


@pytest.mark.parametrize("variant", (0, 1), ids=("base", "turn"))
def test_iterator_and_determinism_agree_with_oracles_on_minigame(variant):
    assert_iterator_and_determinism_match_oracles(gen_minigame()[variant])


@st.composite
def small_contexts(draw):
    """Up to 3 states, 2 entities, 4 times and 12 instance draws."""
    sig = Signature(
        tuple(f"s{i}" for i in range(draw(st.integers(1, 3)))),
        tuple(f"e{i}" for i in range(draw(st.integers(1, 2)))),
        tuple(str(i) for i in range(draw(st.integers(1, 4)))),
    )
    row = st.lists(st.sampled_from(sig.states), min_size=sig.cell_count(),
                   max_size=sig.cell_count())
    rows = draw(st.lists(row, min_size=1, max_size=12))
    return Context(sig, tuple(Instance(sig.entities, sig.times, r) for r in rows))


@settings(max_examples=300)
@given(small_contexts())
def test_verdicts_and_witnesses_match_oracles_on_small_contexts(ctx):
    for mode in ("literal", "windowed"):
        assert_matches_oracles(ctx, mode)
    assert_iterator_and_determinism_match_oracles(ctx)


def test_a_300_state_signature_reads_writes_and_decides_like_the_oracles():
    # state indices beyond one byte, and state names whose text order is not
    # the signature's order (s10 sorts before s2)
    sig = Signature(tuple(f"s{i}" for i in range(300)), ("e0", "e1"), ("0", "1", "2"))
    used = ("s0", "s2", "s10", "s255", "s256", "s299")
    rng = random.Random(300)
    for _ in range(20):
        drawn = [tuple(rng.choice(used) for _ in range(sig.cell_count()))
                 for _ in range(rng.randint(1, 12))]
        ctx = Context(sig, tuple(Instance(sig.entities, sig.times, r) for r in drawn))
        index = {s: i for i, s in enumerate(sig.states)}
        keys = [tuple(index[c] for c in inst.cells) for inst in ctx.instances]
        assert keys == sorted({tuple(index[c] for c in r) for r in drawn})
        assert parse_context(render_context(ctx)).context == ctx
        for mode in ("literal", "windowed"):
            assert_matches_oracles(ctx, mode)
        assert_iterator_and_determinism_match_oracles(ctx)


# ---------------------------------------------------------------------------
# trajectory unrolling
# ---------------------------------------------------------------------------

def test_generate_constant_loop():
    iterator = {snap1("s"): frozenset({snap1("s")})}
    ctx = generate_from_iterator(iterator, {snap1("s")}, 3)
    assert len(ctx) == 1
    assert ctx.instances[0].cells == ("s", "s", "s")


def test_generate_unrolls_branching():
    iterator = {
        snap1("a"): frozenset({snap1("b"), snap1("c")}),
        snap1("b"): frozenset({snap1("b")}),
        snap1("c"): frozenset({snap1("c")}),
    }
    ctx = generate_from_iterator(iterator, {snap1("a")}, 3)
    assert {inst.cells for inst in ctx} == {("a", "b", "b"), ("a", "c", "c")}


def test_generate_rejects_gaps():
    dead_end = {snap1("a"): frozenset({snap1("b")}), snap1("b"): frozenset()}
    with pytest.raises(ValueError, match="empty"):
        generate_from_iterator(dead_end, {snap1("a")}, 3)
    missing = {snap1("a"): frozenset({snap1("b")})}
    with pytest.raises(ValueError, match="domain"):
        generate_from_iterator(missing, {snap1("a")}, 3)
    # the final step needs no successor
    assert len(generate_from_iterator(dead_end, {snap1("a")}, 2)) == 1


def test_unrolling_input_checks_are_pinned():
    iterator = {snap1("a"): frozenset({snap1("a")})}
    other = Snapshot(("e1",), ("a",))
    entities = "the seeds and the iterator's snapshots are over different entities"
    for it, seeds, horizon, message in (
        (iterator, {snap1("a")}, 0, "horizon must be at least 1"),
        (iterator, {snap1("a")}, -1, "horizon must be at least 1"),
        (iterator, (), 2, "at least one seed snapshot is required"),
        (iterator, {snap1("a"), other}, 2, entities),
        (iterator, {other}, 2, entities),
        # a key or an image snapshot is checked whether or not a path reaches it
        ({**iterator, other: frozenset()}, {snap1("a")}, 2, entities),
        ({**iterator, snap1("b"): frozenset({other})}, {snap1("a")}, 2, entities),
        ({snap1("a"): frozenset({snap1("a"), other})}, {snap1("a")}, 1, entities),
    ):
        with pytest.raises(ValueError) as info:
            generate_from_iterator(it, seeds, horizon)
        assert str(info.value) == message
    assert len(generate_from_iterator(iterator, iter([snap1("a")]), 1)) == 1


def test_a_rendered_map_lists_its_domain_in_rendered_order():
    iterator = {
        snap1("c"): frozenset(),
        snap1("a"): frozenset({snap1("c"), snap1("b")}),
        snap1("b"): frozenset({snap1("a")}),
    }
    assert render_iterator_map(iterator) == (
        "iter e0=a -> e0=b,e0=c\n"
        "iter e0=b -> e0=a\n"
        "iter e0=c -> -\n"
    )
    assert render_iterator_map(dict(reversed(iterator.items()))) == render_iterator_map(iterator)


def test_the_unrolled_signature_lists_states_no_path_reaches():
    iterator = {
        snap1("a"): frozenset({snap1("a")}),
        snap1("b"): frozenset({snap1("c")}),  # no path from the seed reaches b or c
        snap1("c"): frozenset(),
    }
    ctx = generate_from_iterator(iterator, {snap1("a")}, 2)
    assert ctx.signature.states == ("a", "b", "c")
    assert {inst.cells for inst in ctx} == {("a", "a")}


def test_the_first_stuck_snapshot_by_rendered_text_is_named():
    # at time 1 the seed z reaches b, outside the domain, and the seed a
    # reaches y, whose image is empty; b renders first
    iterator = {
        snap1("a"): frozenset({snap1("y")}),
        snap1("y"): frozenset(),
        snap1("z"): frozenset({snap1("b")}),
    }
    with pytest.raises(ValueError, match="^snapshot e0=b reached at time 1 is not in the "
                                         "iterator domain$"):
        generate_from_iterator(iterator, {snap1("a"), snap1("z")}, 3)


def both_to_both():
    """Two snapshots that each step to both: 2^(h-1) paths from one seed."""
    both = frozenset({snap1("a"), snap1("b")})
    return {snap1("a"): both, snap1("b"): both}


def test_unrolling_is_guarded_before_any_path_is_built(monkeypatch):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    started = time.perf_counter()
    with pytest.raises(SizeGuardError, match="CTXKIT_GUARD") as info:
        generate_from_iterator(both_to_both(), {snap1("a"), snap1("b")}, 40)
    assert time.perf_counter() - started < 0.1
    assert info.value.needed == 2 ** 40


def test_unrolling_guard_counts_the_paths_exactly(monkeypatch):
    monkeypatch.setenv("CTXKIT_GUARD", str(2 ** 9))
    assert len(generate_from_iterator(both_to_both(), {snap1("a")}, 10)) == 2 ** 9
    monkeypatch.setenv("CTXKIT_GUARD", str(2 ** 9 - 1))
    with pytest.raises(SizeGuardError):
        generate_from_iterator(both_to_both(), {snap1("a")}, 10)


def test_generated_contexts_round_trip_through_iterators():
    rng = random.Random(1121)
    for _ in range(60):
        n_states = rng.randint(1, 3)
        snaps = [snap1(f"s{i}") for i in range(n_states)]
        iterator = {s: frozenset(rng.sample(snaps, rng.randint(1, n_states))) for s in snaps}
        seeds = set(rng.sample(snaps, rng.randint(1, n_states)))
        horizon = rng.randint(1, 4)
        ctx = generate_from_iterator(iterator, seeds, horizon)
        extracted = extract_iterator(ctx)
        assert isinstance(extracted, dict)
        # re-satisfies the iterator property at every applicable occurrence
        for inst in ctx.instances:
            for t in ctx.signature.times[:-1]:
                assert corpus.oracle_next_set(ctx, inst, t) == extracted[inst.snapshot(t)]
