"""Core context machinery: signatures, consistency, enumeration."""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest

import corpus
import oracles
from ctxkit.core import (
    Context,
    Instance,
    Signature,
    SizeGuardError,
    Snapshot,
    build_full_space,
    check_alphabet,
    consistency_context,
    restrict,
)


def row_instance(times, states):
    """Single-entity instance written as a row of states over time."""
    return Instance(("e0",), tuple(times), tuple(states))


@pytest.fixture
def alice_bob_sig():
    return Signature(("Home", "Out"), ("Alice", "Bob"), ("0", "1", "2"))


def random_signature(rng):
    n_s = rng.randint(1, 3)
    n_e = rng.randint(1, 2)
    n_t = rng.randint(1, 3)
    return Signature(
        tuple(f"s{i}" for i in range(n_s)),
        tuple(f"e{i}" for i in range(n_e)),
        tuple(str(i) for i in range(n_t)),
    )


def random_instance(rng, sig):
    return Instance(
        sig.entities,
        sig.times,
        tuple(rng.choice(sig.states) for _ in range(sig.cell_count())),
    )


# ---------------------------------------------------------------------------
# signatures and basic types
# ---------------------------------------------------------------------------

def test_signature_rejects_empty_components():
    with pytest.raises(ValueError):
        Signature((), ("e",), ("0",))
    with pytest.raises(ValueError):
        Signature(("s",), (), ("0",))
    with pytest.raises(ValueError):
        Signature(("s",), ("e",), ())


def test_signature_rejects_duplicates_and_bad_symbols():
    with pytest.raises(ValueError):
        Signature(("a", "a"), ("e",), ("0",))
    with pytest.raises(ValueError):
        Signature(("a",), ("e",), ("0", "0"))
    with pytest.raises(ValueError):
        Signature(("a b",), ("e",), ("0",))
    with pytest.raises(ValueError):
        Signature(("a",), ("e@x",), ("0",))


def test_a_symbol_is_refused_for_whitespace_or_a_reserved_character():
    # every code point, as a one-character symbol; a differential against the
    # rule as written, since the tokenwise oracle shares check_alphabet
    refused = []
    for point in range(sys.maxunicode + 1):
        try:
            check_alphabet("state", (chr(point),))
        except ValueError:
            refused.append(point)
    assert refused == [point for point in range(sys.maxunicode + 1)
                       if chr(point).isspace() or chr(point) in "@=;,#"]


def test_instance_requires_total_table():
    with pytest.raises(ValueError):
        Instance(("e0", "e1"), ("0", "1"), ("a", "b", "c"))
    with pytest.raises(ValueError):
        Instance(("e0",), ("0", "1"), ("a", "b", "c"))


def test_instance_equality_is_pointwise():
    a = Instance(("e0",), ("0", "1"), ("x", "y"))
    b = Instance(("e0",), ("0", "1"), tuple("xy"))
    assert a == b
    assert hash(a) == hash(b)


def test_context_collapses_duplicates_and_orders_canonically():
    sig = Signature(("a", "b"), ("e0",), ("0", "1"))
    w1 = row_instance(("0", "1"), ("b", "a"))
    w2 = row_instance(("0", "1"), ("a", "b"))
    ctx = Context(sig, (w1, w2, w1))
    assert len(ctx) == 2
    assert ctx.instances == (w2, w1)  # 'a' precedes 'b' in the signature


def test_context_rejects_foreign_instances():
    sig = Signature(("a",), ("e0",), ("0",))
    with pytest.raises(ValueError):
        Context(sig, (Instance(("other",), ("0",), ("a",)),))
    with pytest.raises(ValueError):
        Context(sig, (Instance(("e0",), ("0",), ("zzz",)),))


def test_rows_are_state_indices_and_every_path_checks_them():
    sig = Signature(("a", "b", "c"), ("e0", "e1"), ("0", "1"))
    inst = Instance(sig.entities, sig.times, ("c", "a", "b", "b"))
    ctx = Context(sig, (inst, inst))
    assert ctx.rows == ((2, 0, 1, 1),)
    same = Context.from_rows(sig, [(2, 0, 1, 1), (2, 0, 1, 1)])
    assert same == ctx and hash(same) == hash(ctx)
    assert same.instances == (inst,) and inst in same and len(same) == 1
    assert ctx.row_of(inst) == (2, 0, 1, 1) and ctx.instance_of((2, 0, 1, 1)) == inst
    assert Context.from_rows(sig, [(1, 0, 0, 0), (0, 2, 2, 2)]).rows == (
        (0, 2, 2, 2), (1, 0, 0, 0))
    for bad in ((0, 0, 0), (0, 0, 0, 3), (0, -1, 0, 0)):
        with pytest.raises(ValueError) as info:
            Context.from_rows(sig, [(0, 0, 0, 0), bad])
        assert str(info.value) == f"row {bad!r} is not 4 state indices in 0..2"


def test_contexts_pickle_copy_and_print_as_before():
    sig = Signature(("a", "b"), ("e0",), ("0", "1"))
    ctx = Context(sig, (row_instance(sig.times, "ba"), row_instance(sig.times, "ab")))
    for other in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert other == ctx and other.instances == ctx.instances
    assert repr(ctx) == (
        "Context(signature=Signature(states=('a', 'b'), entities=('e0',), times=('0', '1')), "
        "instances=(Instance(entities=('e0',), times=('0', '1'), cells=('a', 'b')), "
        "Instance(entities=('e0',), times=('0', '1'), cells=('b', 'a'))))"
    )


# ---------------------------------------------------------------------------
# instances and snapshots as values
# ---------------------------------------------------------------------------

VALUES = {
    "instance": (
        Instance,
        {"entities": ("e0", "e1"), "times": ("0", "1"), "cells": ("a", "b", "b", "a")},
    ),
    "snapshot": (Snapshot, {"entities": ("e0", "e1"), "states": ("a", "b")}),
}
value_kinds = pytest.mark.parametrize("cls, fields", VALUES.values(), ids=VALUES)


@value_kinds
def test_values_from_lists_and_tuples_are_equal(cls, fields):
    from_tuples = cls(**fields)
    from_lists = cls(**{name: list(value) for name, value in fields.items()})
    assert from_lists == from_tuples
    assert hash(from_lists) == hash(from_tuples)
    for name, value in fields.items():
        assert getattr(from_lists, name) == value
        assert type(getattr(from_lists, name)) is tuple


@value_kinds
def test_changing_any_field_breaks_equality(cls, fields):
    value = cls(**fields)
    for name, field in fields.items():
        other = cls(**{**fields, name: ("z",) + field[1:]})
        assert other != value
    assert value != tuple(fields.values())
    assert value.__eq__(tuple(fields.values())) is NotImplemented


@value_kinds
def test_values_refuse_assignment_and_deletion(cls, fields):
    value = cls(**fields)
    for name in (*fields, "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, ())
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert value == cls(**fields)


@value_kinds
def test_copies_and_pickles_are_equal_values(cls, fields):
    value = cls(**fields)
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls
        assert other == value
        assert hash(other) == hash(value)


def test_pickles_rehash_under_another_hash_seed(ctxkit_src):
    # string hashes are salted per process, so a hash stored in a pickle
    # would disagree with the values built where it is loaded
    dumped = pickle.dumps([cls(**fields) for cls, fields in VALUES.values()])
    check = (
        "import pickle, sys\n"
        "from ctxkit.core import Instance, Snapshot\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        f"want = [Instance(**{VALUES['instance'][1]!r}), Snapshot(**{VALUES['snapshot'][1]!r})]\n"
        "assert got == want, got\n"
        "assert [hash(v) for v in got] == [hash(v) for v in want]\n"
        "assert {*got} == {*want}\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": ctxkit_src}
    result = subprocess.run(
        [sys.executable, "-c", check], input=dumped, env=env, capture_output=True
    )
    assert result.returncode == 0, result.stderr.decode()


def test_repr_and_errors_read_as_before():
    assert repr(Instance(("e0",), ("0", "1"), ("x", "y"))) == (
        "Instance(entities=('e0',), times=('0', '1'), cells=('x', 'y'))"
    )
    assert repr(Snapshot(("e",), ("s",))) == "Snapshot(entities=('e',), states=('s',))"
    with pytest.raises(ValueError) as info:
        Instance(("e0", "e1"), ("0", "1"), ("a", "b", "c"))
    assert str(info.value) == "instance needs 4 cells, got 3"
    with pytest.raises(ValueError) as info:
        Snapshot(("e",), ())
    assert str(info.value) == "snapshot needs exactly one state per entity"


# ---------------------------------------------------------------------------
# consistency contexts
# ---------------------------------------------------------------------------

def test_consistency_full_agreement_forces_equality():
    sig = Signature(("a", "b", "c", "d"), ("e0",), ("0", "1", "2"))
    w1 = row_instance(("0", "1", "2"), ("a", "b", "c"))
    w2 = row_instance(("0", "1", "2"), ("d", "b", "d"))
    ctx = Context(sig, (w1, w2))
    assert consistency_context(ctx, w1, "2").instances == (w1,)


def test_consistency_prefix_example_matches_oracle():
    # frozen from the brute-force prefix filter: only w1 agrees with w1 up to t=1
    sig = Signature(("a", "b", "c", "d"), ("e0",), ("0", "1", "2"))
    w1 = row_instance(("0", "1", "2"), ("a", "b", "c"))
    w2 = row_instance(("0", "1", "2"), ("d", "b", "d"))
    ctx = Context(sig, (w1, w2))
    got = consistency_context(ctx, w1, "1")
    assert got.instances == (w1,)

    tables = [corpus.table(w1), corpus.table(w2)]
    expected = oracles.consistency(tables, corpus.table(w1), ("e0",), ("0", "1", "2"), 1)
    assert [corpus.table(inst) for inst in got] == expected


def test_consistency_with_disagreeing_outside_reference():
    sig = Signature(("a", "b"), ("e0",), ("0", "1"))
    ctx = Context(sig, (row_instance(("0", "1"), ("a", "a")),))
    ref = row_instance(("0", "1"), ("b", "b"))
    assert len(consistency_context(ctx, ref, "0")) == 0


def test_consistency_of_one_entity_at_the_first_time_keeps_the_rows_sharing_its_state():
    # one prefix cell: the key is a single state
    times = ("0", "1")
    rows = [("b", "a"), ("a", "c"), ("a", "a"), ("c", "a"), ("a", "b")]
    ctx = Context(Signature(("a", "b", "c"), ("e0",), times),
                  tuple(row_instance(times, row) for row in rows))
    ref = row_instance(times, ("a", "b"))
    got = consistency_context(ctx, ref, "0")
    assert [inst.cells for inst in got] == [("a", "a"), ("a", "b"), ("a", "c")]
    expected = oracles.consistency([corpus.table(inst) for inst in ctx], corpus.table(ref),
                                   ("e0",), times, 0)
    assert [corpus.table(inst) for inst in got] == expected


def test_consistency_errors():
    sig = Signature(("a",), ("e0",), ("0",))
    ctx = Context(sig, (row_instance(("0",), ("a",)),))
    with pytest.raises(ValueError):
        consistency_context(ctx, Instance(("other",), ("0",), ("a",)), "0")
    with pytest.raises(ValueError):
        consistency_context(ctx, row_instance(("0",), ("a",)), "9")


def test_consistency_laws_on_random_corpus():
    rng = random.Random(77)
    for _ in range(60):
        sig = random_signature(rng)
        count = rng.randint(1, 8)
        ctx = Context(sig, tuple(random_instance(rng, sig) for _ in range(count)))
        for inst in ctx:
            previous = None
            for t in sig.times:
                cc = consistency_context(ctx, inst, t)
                assert inst in cc  # membership
                assert list(cc.rows) == sorted(set(cc.rows))  # canonical order
                assert set(cc.instances) <= set(ctx.instances)
                if previous is not None:  # antitone in t
                    assert set(cc.instances) <= set(previous.instances)
                previous = cc
            assert consistency_context(ctx, inst, sig.times[-1]).instances == (inst,)


# ---------------------------------------------------------------------------
# full-space enumeration and restriction
# ---------------------------------------------------------------------------

def test_full_space_counts():
    assert len(build_full_space(Signature(("a", "b"), ("e0", "e1"), ("0", "1", "2")))) == 64
    assert len(build_full_space(Signature(("a",), ("e0", "e1"), ("0", "1")))) == 1
    assert len(build_full_space(Signature(("a", "b", "c"), ("e0",), ("0", "1")))) == 9


def test_full_space_guard(monkeypatch):
    sig = Signature(("a", "b"), ("e0", "e1"), ("0", "1", "2"))
    monkeypatch.setenv("CTXKIT_GUARD", "63")
    with pytest.raises(SizeGuardError) as err:
        build_full_space(sig)
    assert str(err.value) == (
        "full space needs a guard of at least 64; "
        "current guard is 63; set CTXKIT_GUARD to raise it"
    )
    monkeypatch.setenv("CTXKIT_GUARD", "64")
    assert len(build_full_space(sig)) == 64


def test_a_figure_from_2_to_the_64_prints_as_a_power():
    assert "at least 18446744073709551615;" in str(SizeGuardError(2 ** 64 - 1, 1, "x"))
    assert "at least 2^64;" in str(SizeGuardError(2 ** 64, 1, "x"))
    big = SizeGuardError(2 ** 8000 + 1, 1, "x")
    assert "at least 2^8000;" in str(big) and big.needed == 2 ** 8000 + 1


def test_the_guard_prints_by_the_same_rule_as_the_figure():
    # CTXKIT_GUARD may hold up to 4300 digits of either sign
    assert "guard is 18446744073709551615;" in str(SizeGuardError(2 ** 64, 2 ** 64 - 1, "x"))
    assert "guard is -18446744073709551615;" in str(SizeGuardError(0, 1 - 2 ** 64, "x"))
    huge = SizeGuardError(2 ** 14282, 10 ** 4299, "x")
    assert str(huge) == ("x needs a guard of at least 2^14282; current guard is 2^14280; "
                         "set CTXKIT_GUARD to raise it") and huge.guard == 10 ** 4299
    assert "guard is -2^14284;" in str(SizeGuardError(0, -(10 ** 4300 - 1), "x"))


def test_restrict_trivial_predicates():
    sig = Signature(("a", "b"), ("e0",), ("0", "1"))
    ctx = build_full_space(sig)
    assert restrict(ctx, lambda _: True).instances == ctx.instances
    assert len(restrict(ctx, lambda _: False)) == 0


def test_restrict_alice_bob_rule_matches_oracle(alice_bob_sig):
    # frozen from the brute-force filter over all 64 functions: 36 survive
    expected = {oracles.table_key(t) for t in oracles.alice_bob_tables(3)}
    assert len(expected) == 36

    full = build_full_space(alice_bob_sig)

    def rule(inst):
        return all(
            inst.value("Bob", str(t)) != "Home" or inst.value("Alice", str(t + 1)) == "Home"
            for t in range(2)
        )

    got = restrict(full, rule)
    assert len(got) == 36
    got_keys = {
        frozenset(((e, int(t)), s) for (e, t), s in corpus.table(inst).items())
        for inst in got
    }
    assert got_keys == expected


def test_membership_agrees_with_the_instance_tuple():
    rng = random.Random(5)
    for _ in range(50):
        ctx = corpus.random_context(rng)
        sig = ctx.signature
        fill = sig.states[0]
        foreign = [  # one entity or one time more than the context's signature
            Instance(sig.entities + ("x",), sig.times,
                     (fill,) * (sig.cell_count() + len(sig.times))),
            Instance(sig.entities, sig.times + ("late",),
                     (fill,) * (sig.cell_count() + len(sig.entities))),
        ]
        probes = list(ctx.instances) + foreign
        probes += [corpus.random_instance(rng, sig) for _ in range(5)]
        for probe in probes:
            assert (probe in ctx) == (probe in ctx.instances)
        assert all(inst in ctx for inst in ctx.instances)
        assert not any(probe in ctx for probe in foreign)


def test_only_an_instance_is_a_member():
    sig = Signature(("a",), ("e",), ("0",))
    ctx = Context(sig, [Instance(("e",), ("0",), ("a",))])
    for probe in (ctx.rows[0], ("a",), "a", None, Snapshot(("e",), ("a",))):
        assert probe not in ctx
