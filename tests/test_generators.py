"""Example generators: counts against the brute-force oracle, game verdicts."""

import itertools
import random

import pytest

import corpus
import oracles
from ctxkit.core import Signature, SizeGuardError, build_full_space, restrict
from ctxkit.determinability import is_determinable
from ctxkit.generators import (
    gen_alice_bob,
    gen_alice_bob_odd,
    gen_minigame,
    gen_random_context,
    gen_random_kripke,
)
from ctxkit.formats import render_context
from ctxkit.modal_logic import KripkeModel


def as_int_time_keys(ctx):
    return {
        frozenset(((e, int(t)), s) for (e, t), s in corpus.table(inst).items())
        for inst in ctx
    }


# ---------------------------------------------------------------------------
# Alice and Bob
# ---------------------------------------------------------------------------

def test_alice_bob_counts_match_oracle():
    # frozen from the brute-force filter: 36 of 64 at horizon 3, 12 of 16 at 2
    got3 = gen_alice_bob(3)
    assert len(got3) == 36
    assert as_int_time_keys(got3) == {
        oracles.table_key(t) for t in oracles.alice_bob_tables(3)
    }
    assert len(gen_alice_bob(2)) == 12


def test_alice_bob_odd_counts_match_oracle():
    got3 = gen_alice_bob_odd(3)
    assert len(got3) == 12
    assert as_int_time_keys(got3) == {
        oracles.table_key(t) for t in oracles.alice_bob_tables(3, odd=True)
    }
    assert len(gen_alice_bob_odd(2)) == 6


def test_alice_bob_members_satisfy_the_rule():
    for ctx, odd in ((gen_alice_bob(4), False), (gen_alice_bob_odd(4), True)):
        for inst in ctx:
            for t in range(3):
                if inst.value("Bob", str(t)) == "Home":
                    assert inst.value("Alice", str(t + 1)) == "Home"
            if odd:
                assert all(
                    inst.value("Bob", str(t)) == "Home" for t in (1, 3)
                )


def test_alice_bob_odd_is_subset():
    assert set(gen_alice_bob_odd(3)) <= set(gen_alice_bob(3))


@pytest.mark.parametrize("horizon", range(2, 7))
@pytest.mark.parametrize("odd", [False, True])
def test_alice_bob_step_rule_matches_filtered_full_space(horizon, odd):
    sig = Signature(("Home", "Out"), ("Alice", "Bob"), tuple(str(t) for t in range(horizon)))

    def rule(inst):  # entity 0 is Alice, 1 is Bob
        house = all(
            inst.value_at(1, t) != "Home" or inst.value_at(0, t + 1) == "Home"
            for t in range(horizon - 1)
        )
        bob_home_at_odd_hours = all(inst.value_at(1, t) == "Home" for t in range(1, horizon, 2))
        return house and (bob_home_at_odd_hours or not odd)

    want = restrict(build_full_space(sig), rule)
    got = (gen_alice_bob_odd if odd else gen_alice_bob)(horizon)
    assert got.signature == want.signature
    assert got.instances == want.instances
    assert render_context(got) == render_context(want)


def test_alice_bob_guard_is_checked_on_the_full_space(monkeypatch):
    # 2^(2*3) = 64 instances in the full space, 36 kept by the rule
    sig = Signature(("Home", "Out"), ("Alice", "Bob"), ("0", "1", "2"))
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    unguarded = {gen: len(gen(3)) for gen in (gen_alice_bob, gen_alice_bob_odd)}
    monkeypatch.setenv("CTXKIT_GUARD", "63")
    with pytest.raises(SizeGuardError) as full:
        build_full_space(sig)
    for gen in (gen_alice_bob, gen_alice_bob_odd):
        with pytest.raises(SizeGuardError) as err:
            gen(3)
        assert str(err.value) == str(full.value)
    monkeypatch.setenv("CTXKIT_GUARD", "64")
    for gen in (gen_alice_bob, gen_alice_bob_odd):
        assert len(gen(3)) == unguarded[gen]


def test_alice_bob_horizon_and_guard(monkeypatch):
    with pytest.raises(ValueError):
        gen_alice_bob(1)
    monkeypatch.setenv("CTXKIT_GUARD", "10")
    with pytest.raises(SizeGuardError):
        gen_alice_bob(3)


# ---------------------------------------------------------------------------
# the mini-game
# ---------------------------------------------------------------------------

def test_minigame_contexts_are_total_and_nonempty():
    base, tracked = gen_minigame()
    assert len(base) == 27
    assert len(tracked) == 27
    assert base.signature.times == ("0", "1", "2", "3")
    assert tracked.signature.entities == ("P1", "P2")


def test_minigame_base_breaks_on_turn_ambiguity():
    base, _ = gen_minigame()
    witness = is_determinable(base, "windowed")
    assert witness is not None
    # the witnessing occurrences put the same board position on different
    # players' turns: the times have different parities
    t1, t2 = (int(t) for _, t in witness.occurrences)
    assert t1 % 2 != t2 % 2
    assert [inst.snapshot(t) for inst, t in witness.occurrences] == [witness.snapshot] * 2


def test_minigame_turn_bit_restores_determinability():
    _, tracked = gen_minigame()
    assert is_determinable(tracked, "windowed") is None


def test_minigame_verdicts_match_oracle():
    base, tracked = gen_minigame()
    for ctx, expected in ((base, False), (tracked, True)):
        tables = corpus.as_tables(ctx)
        assert (
            oracles.determinable(
                tables, ctx.signature.entities, ctx.signature.times, "windowed"
            )
            == expected
        )


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

def test_random_context_is_reproducible():
    a = gen_random_context(42, 3, 2, 3, 15)
    b = gen_random_context(42, 3, 2, 3, 15)
    assert a == b
    assert gen_random_context(43, 3, 2, 3, 15) != a


def test_random_context_draws_every_cell_as_randrange_does():
    """The standard library is the oracle: row by row, every cell is the
    next `random.Random(seed).randrange(n_states)`. The state counts take in
    1 and the powers of two, where the draw width and the retry matter."""
    shapes = [(1, c) if c % 2 else (2, c // 2) for c in range(1, 13)]  # 1-12 cells
    counts = itertools.cycle(range(51))
    for seed, n_states, (entities, times) in itertools.product(range(20), range(1, 10), shapes):
        count = next(counts)
        rng = random.Random(seed)
        rows = {tuple(rng.randrange(n_states) for _ in range(entities * times))
                for _ in range(count)}
        got = gen_random_context(seed, n_states, entities, times, count)
        assert got.rows == tuple(sorted(rows)), (seed, n_states, entities, times, count)


def test_random_context_collapses_duplicates():
    ctx = gen_random_context(7, 1, 1, 1, 10)
    assert len(ctx) == 1  # only one possible instance exists


def test_random_kripke_reproducible_and_density_zero():
    a = gen_random_kripke(9, 4, ("p", "q"), 0.5)
    b = gen_random_kripke(9, 4, ("p", "q"), 0.5)
    assert a == b
    empty = gen_random_kripke(9, 4, ("p",), 0.0)
    assert empty.relation == frozenset()
    full = gen_random_kripke(9, 3, ("p",), 1.0)
    assert len(full.relation) == 9


def test_random_kripke_is_the_model_of_its_draws_in_pair_form():
    # the generator fills masks; the same draws, taken as pairs and name
    # sets in the same order, build the same model through the constructor
    for seed in range(6):
        rng = random.Random(seed)
        worlds = [f"w{i}" for i in range(5)]
        relation = {(a, b) for a in worlds for b in worlds if rng.random() < 0.4}
        valuation = {atom: {w for w in worlds if rng.random() < 0.5} for atom in ("p", "q")}
        drawn = gen_random_kripke(seed, 5, ("p", "q"), 0.4)
        assert drawn == KripkeModel(worlds, relation, valuation)
        assert drawn.relation == relation


def test_random_generator_input_validation():
    with pytest.raises(ValueError):
        gen_random_context(1, 0, 1, 1, 1)
    with pytest.raises(ValueError):
        gen_random_context(1, 1, 1, 1, -1)
    with pytest.raises(ValueError):
        gen_random_kripke(1, 0, ("p",), 0.5)
    with pytest.raises(ValueError):
        gen_random_kripke(1, 2, ("p",), 1.5)
