"""Every context verdict on the benchmark's inputs, certified by `certificates.py`.

The brute-force oracles stop at a few hundred instances; the checkers read
the rows alone, so they certify Alice/Bob at h=3-9 (up to 26,244 rows), both
mini-game encodings, the wide context at h=6-10 (up to 6,563 rows), the 24
random contexts the `timelines` workload draws from, and a Hypothesis search. Each checker is also shown doctored evidence, which
it must reject.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings, strategies as st

import certificates
import corpus
from ctxkit.core import Context, Instance, Signature, Snapshot
from ctxkit.determinability import MODES, extract_iterator, is_determinable
from ctxkit.generators import gen_alice_bob, gen_alice_bob_odd, gen_minigame, gen_random_context


def certify(ctx):
    """Certify both determinability verdicts and the iterator's answer:
    a "yes" by the map, a "no" and a conflict by their witnesses."""
    iterator = extract_iterator(ctx)
    if isinstance(iterator, dict):
        assert certificates.windowed_yes(ctx, iterator) is None
    else:
        assert certificates.iterator_conflict(ctx, iterator) is None
    verdicts = {}
    for mode in MODES:
        witness = is_determinable(ctx, mode)
        if witness is None:
            assert isinstance(iterator, dict), mode  # "yes" needs an iterator
            if mode == "literal":
                assert certificates.literal_yes(ctx, iterator) is None
        else:
            assert certificates.determinability_no(ctx, witness, mode) is None
        verdicts[mode] = witness is None
    return verdicts


@pytest.mark.parametrize("odd", (False, True), ids=("alice_bob", "alice_bob_odd"))
@pytest.mark.parametrize("horizon", range(3, 10))
def test_alice_bob_verdicts_are_certified(horizon, odd):
    certify((gen_alice_bob_odd if odd else gen_alice_bob)(horizon))


@pytest.mark.parametrize("variant", (0, 1), ids=("base", "turn"))
def test_minigame_verdicts_are_certified(variant):
    certify(gen_minigame()[variant])


@pytest.mark.parametrize("horizon", range(6, 11))
def test_wide_context_verdicts_are_certified(horizon):
    # both "no" witnesses lie far from their snapshot's first node
    assert certify(corpus.wide_context(horizon)) == {"literal": False, "windowed": False}


def timelines_random_context(seed):
    """`gen random-ctx --seed <seed> --states 3 --entities 2 --times 4
    --count 200`, as the `timelines` workload writes it."""
    return gen_random_context(seed, 3, 2, 4, 200)


def test_the_timelines_random_contexts_are_certified():
    verdicts = [certify(timelines_random_context(seed)) for seed in range(24)]
    assert {"literal": False, "windowed": False} in verdicts


@st.composite
def contexts(draw):
    """Up to 3 states, 2 entities, 12 times and 40 instance draws."""
    sig = Signature(
        tuple(f"s{i}" for i in range(draw(st.integers(1, 3)))),
        tuple(f"e{i}" for i in range(draw(st.integers(1, 2)))),
        tuple(str(i) for i in range(draw(st.integers(1, 12)))),
    )
    row = st.lists(st.sampled_from(sig.states), min_size=sig.cell_count(),
                   max_size=sig.cell_count())
    rows = draw(st.lists(row, min_size=1, max_size=40))
    return Context(sig, tuple(Instance(sig.entities, sig.times, r) for r in rows))


@settings(max_examples=150, deadline=None)
@given(contexts())
def test_hypothesis_contexts_are_certified(ctx):
    certify(ctx)


# ---------------------------------------------------------------------------
# doctored evidence
# ---------------------------------------------------------------------------

def test_a_flipped_image_is_rejected():
    maps = 0
    for ctx in (gen_alice_bob(5), *gen_minigame(), timelines_random_context(0)):
        iterator = extract_iterator(ctx)
        if not isinstance(iterator, dict):
            continue
        maps += 1
        snaps = sorted(iterator, key=Snapshot.render)
        for snap in snaps:  # one snapshot more, or one fewer, in one image
            flipped = {**iterator, snap: iterator[snap] ^ {snaps[0]}}
            assert certificates.windowed_yes(ctx, flipped) is not None
            assert certificates.literal_yes(ctx, flipped) is not None
        shorter = dict(iterator)
        del shorter[snaps[-1]]
        assert certificates.windowed_yes(ctx, shorter) is not None
    assert maps >= 2


# snapshot a, met at time 1 only, steps to b after c and to c after d: every
# witness is two occurrences at one time
FORK = Context.from_rows(Signature(("a", "b", "c", "d"), ("e",), ("0", "1", "2")),
                         [(2, 0, 1), (3, 0, 2)])


def witnesses():
    """(context, checker, witness) for every "no" and conflict of a few small
    contexts, the checker taking the context and a witness."""
    for ctx in (FORK, gen_alice_bob_odd(5), *gen_minigame(), timelines_random_context(1),
                timelines_random_context(2)):
        for mode in MODES:
            witness = is_determinable(ctx, mode)
            if witness is not None:
                yield ctx, functools.partial(certificates.determinability_no, mode=mode), witness
        conflict = extract_iterator(ctx)
        if not isinstance(conflict, dict):
            yield ctx, certificates.iterator_conflict, conflict


def test_the_witnesses_checked_below_include_each_kind():
    kinds = {(check is certificates.iterator_conflict, w.occurrences[0][1] == w.occurrences[1][1])
             for _, check, w in witnesses()}
    assert kinds == {(False, True), (False, False), (True, True), (True, False)}


def test_a_witness_occurrence_swapped_for_another_instance_is_rejected():
    swaps = 0
    for ctx, check, witness in witnesses():
        assert check(ctx, witness) is None
        (instance, time), other = witness.occurrences
        for swapped in ctx.instances:
            if swapped.snapshot(time) != witness.snapshot:
                doctored = dataclasses.replace(witness, occurrences=((swapped, time), other))
                assert check(ctx, doctored) is not None
                swaps += 1
                break
        # the two occurrences exchanged, their futures not
        doctored = dataclasses.replace(witness, occurrences=(other, (instance, time)))
        assert check(ctx, doctored) is not None
    assert swaps >= 8


def test_futures_replaced_by_two_equal_ones_are_rejected():
    for ctx, check, witness in witnesses():
        for future in witness.futures:
            doctored = dataclasses.replace(witness, futures=(future, future))
            assert check(ctx, doctored) is not None
