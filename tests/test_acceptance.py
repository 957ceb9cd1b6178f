"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Seeded corpora make every run identical.
"""

import itertools
import random
import time

import pytest

import corpus
import oracles
from ctxkit.cli import cli_dispatch
from ctxkit.core import Context, Instance, Signature, Snapshot
from ctxkit.determinability import (
    IteratorMap,
    extract_iterator,
    generate_from_iterator,
    has_iterator,
    is_determinable,
)
from ctxkit.formats import render_context
from ctxkit.generators import (
    gen_alice_bob,
    gen_alice_bob_odd,
    gen_minigame,
    gen_random_context,
    gen_random_kripke,
)
from ctxkit.modal_logic import (
    Box,
    Diamond,
    Evaluator,
    Iff,
    Implies,
    Not,
    check_modal_operator,
    formula_universe,
    parse_formula,
    print_formula,
)
from ctxkit.modal_context import (
    class_world_map,
    is_modal_context,
    prove_in_context,
    to_modal_context,
    verify_representation,
)


def verdict(number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


# the shared random-context corpus for criteria 2-5
def context_corpus():
    out = []
    for seed in range(500):
        out.append(
            gen_random_context(
                seed,
                n_states=seed % 3 + 1,
                n_entities=seed % 2 + 1,
                n_times=seed % 3 + 1,
                count=seed % 20 + 1,
            )
        )
    return out


# the Kripke corpus for criteria 6-8
DENSITIES = (0.0, 0.3, 0.7, 1.0)


def kripke_corpus():
    return [
        gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), DENSITIES[seed % 4])
        for seed in range(200)
    ]


@pytest.fixture(scope="module")
def contexts():
    return context_corpus()


@pytest.fixture(scope="module")
def models():
    return kripke_corpus()


@pytest.fixture(scope="module")
def universes():
    return {d: formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)}


def test_criterion_1_example_counts():
    started = time.perf_counter()
    got36 = gen_alice_bob(3)
    got12 = gen_alice_bob_odd(3)
    oracle36 = {oracles.table_key(t) for t in oracles.alice_bob_tables(3)}
    oracle12 = {oracles.table_key(t) for t in oracles.alice_bob_tables(3, odd=True)}

    def keys(ctx):
        return {
            frozenset(((e, int(t)), s) for (e, t), s in corpus.table(inst).items())
            for inst in ctx
        }

    elapsed = time.perf_counter() - started
    ok = (
        len(got36) == 36
        and len(got12) == 12
        and keys(got36) == oracle36
        and keys(got12) == oracle12
        and elapsed < 1.0
    )
    verdict(1, ok, f"36/12 instances match the brute-force filter ({elapsed:.2f}s)")


def test_criterion_2_consistency_laws(contexts):
    from ctxkit.core import consistency_context

    started = time.perf_counter()
    violations = 0
    for ctx in contexts:
        times = ctx.signature.times
        for inst in ctx:
            previous = None
            for t in times:
                cc = consistency_context(ctx, inst, t)
                if inst not in cc:
                    violations += 1
                if previous is not None and not set(cc.instances) <= set(
                    previous.instances
                ):
                    violations += 1
                previous = cc
            if consistency_context(ctx, inst, times[-1]).instances != (inst,):
                violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and len(contexts) >= 500 and elapsed < 30.0
    verdict(
        2,
        ok,
        f"membership/antitonicity/max-time laws on {len(contexts)} contexts, "
        f"{violations} violations ({elapsed:.1f}s)",
    )


def test_criterion_3_literal_determinable_yields_iterator(contexts):
    literal_yes = 0
    violations = 0
    for ctx in contexts:
        if not is_determinable(ctx, "literal").determinable:
            continue
        literal_yes += 1
        iterator = extract_iterator(ctx)
        if not isinstance(iterator, IteratorMap):
            violations += 1
            continue
        # re-check the iterator law with the brute-force oracle machinery
        tables = corpus.as_tables(ctx)
        entities = ctx.signature.entities
        times = ctx.signature.times
        for inst in ctx:
            for ti in range(len(times) - 1):
                members = oracles.consistency(tables, corpus.table(inst), entities, times, ti)
                expected = frozenset(
                    Snapshot(entities, oracles.snap(m, entities, times[ti + 1]))
                    for m in members
                )
                if iterator.image(inst.snapshot_at(ti)) != expected:
                    violations += 1
    ok = violations == 0 and literal_yes > 0
    verdict(
        3,
        ok,
        f"{literal_yes} literal-determinable contexts all yield law-abiding "
        f"iterators, {violations} violations",
    )


def _random_iterator(seed):
    rng = random.Random(10_000 + seed)
    n_states = rng.randint(1, 3)
    n_entities = rng.randint(1, 2)
    entities = tuple(f"e{i}" for i in range(n_entities))
    states = [f"s{i}" for i in range(n_states)]
    domain = [
        Snapshot(entities, combo)
        for combo in itertools.product(states, repeat=n_entities)
    ]
    entries = tuple(
        (snap, frozenset(rng.sample(domain, rng.randint(1, min(2, len(domain))))))
        for snap in domain
    )
    seeds = frozenset(rng.sample(domain, rng.randint(1, min(2, len(domain)))))
    horizon = rng.randint(2, 4)
    return IteratorMap(entities, entries), seeds, horizon


def _shrink_disagreement(ctx):
    """Greedily drop instances while the two verdicts still disagree."""

    def disagrees(c):
        return has_iterator(c) != is_determinable(c, "windowed").determinable

    current = ctx
    shrunk = True
    while shrunk:
        shrunk = False
        for inst in current.instances:
            smaller = Context(
                current.signature,
                tuple(i for i in current.instances if i != inst),
            )
            if len(smaller) and disagrees(smaller):
                current = smaller
                shrunk = True
                break
    return current


def test_criterion_4_iterator_round_trip_and_differential(contexts, tmp_path):
    started = time.perf_counter()
    generated = []
    unroll_failures = 0
    for seed in range(200):
        iterator, seeds, horizon = _random_iterator(seed)
        ctx = generate_from_iterator(iterator, seeds, horizon)
        generated.append(ctx)
        if not has_iterator(ctx):
            unroll_failures += 1

    disagreements = []
    for ctx in list(contexts) + generated:
        if has_iterator(ctx) != is_determinable(ctx, "windowed").determinable:
            disagreements.append(ctx)

    elapsed = time.perf_counter() - started
    if disagreements:
        minimal = min(
            (_shrink_disagreement(c) for c in disagreements), key=len
        )
        path = tmp_path / "windowed_vs_iterator_counterexample.ctx"
        path.write_text(render_context(minimal))
        detail = (
            f"differential harness found a counterexample, minimized to "
            f"{len(minimal)} instance(s), written to {path} ({elapsed:.1f}s)"
        )
    else:
        detail = (
            f"200 unrolled iterator contexts all pass has_iterator; "
            f"iterator and windowed determinability agree on all "
            f"{len(contexts) + len(generated)} corpus contexts ({elapsed:.1f}s)"
        )
    ok = unroll_failures == 0 and not disagreements and elapsed < 120.0
    verdict(4, ok, detail)


def test_criterion_5_literal_implies_windowed(contexts):
    bad = 0
    for ctx in contexts:
        if (
            is_determinable(ctx, "literal").determinable
            and not is_determinable(ctx, "windowed").determinable
        ):
            bad += 1
    verdict(5, bad == 0, f"no literal-yes/windowed-no context in the corpus ({bad})")


def test_criterion_6_theorem_end_to_end(models, universes):
    started = time.perf_counter()
    failures = 0
    for k, model in enumerate(models):
        universe = universes[k % 3]
        mc = to_modal_context(model, universe)
        if not is_modal_context(mc).is_modal_context:
            failures += 1
            continue
        if not verify_representation(model, mc):
            failures += 1
            continue
        names = class_world_map(model, mc)
        evaluator = Evaluator(model)
        for w in model.worlds:
            for f in universe.members:
                if prove_in_context(mc, names[w], f) != evaluator.satisfies(w, f):
                    failures += 1
                    break
            else:
                continue
            break
    elapsed = time.perf_counter() - started
    ok = failures == 0 and len(models) >= 200 and elapsed < 120.0
    verdict(
        6,
        ok,
        f"quotient pipeline verified on {len(models)} models: conditions, "
        f"representation, prover agreement ({elapsed:.1f}s)",
    )


def test_criterion_7_modal_operator_laws(universes):
    extra = [
        formula_universe(("p",), 0, cap=1),  # p, ~p, p & p, p -> p
        formula_universe(("p",), depth=1),
        formula_universe(("p", "q", "r"), depth=1, cap=0),
    ]
    ok = all(check_modal_operator(u) for u in universes.values()) and all(
        check_modal_operator(u) for u in extra
    )
    verdict(7, ok, f"injectivity and no-loop laws on {len(universes) + len(extra)} universes")


def test_criterion_8_semantics_sanity(models):
    rng = random.Random(424242)
    dual_k_failures = 0
    for model in models:
        evaluator = Evaluator(model)
        for _ in range(5):
            phi = corpus.random_formula(rng, depth=3)
            psi = corpus.random_formula(rng, depth=3)
            dual = Iff(Diamond(phi), Not(Box(Not(phi))))
            k_axiom = Implies(Box(Implies(phi, psi)), Implies(Box(phi), Box(psi)))
            for world in model.worlds:
                if not evaluator.satisfies(world, dual):
                    dual_k_failures += 1
                if not evaluator.satisfies(world, k_axiom):
                    dual_k_failures += 1

    round_trip_failures = 0
    for _ in range(1000):
        formula = corpus.random_formula(rng, depth=5)
        if parse_formula(print_formula(formula)) != formula:
            round_trip_failures += 1

    ok = dual_k_failures == 0 and round_trip_failures == 0
    verdict(
        8,
        ok,
        "dual law and K axiom hold everywhere; parse/print round trip on "
        f"1000 ASTs ({dual_k_failures + round_trip_failures} failures)",
    )


def test_criterion_9_minigame():
    base, tracked = gen_minigame()
    base_report = is_determinable(base, "windowed")
    tracked_report = is_determinable(tracked, "windowed")
    witness_ok = False
    if not base_report.determinable:
        w = base_report.witness
        t1, t2 = int(w.time), int(w.other_time)
        # same position, different players to move
        witness_ok = (t1 % 2) != (t2 % 2) and w.instance.snapshot(
            w.time
        ) == w.other_instance.snapshot(w.other_time)
    ok = (not base_report.determinable) and witness_ok and tracked_report.determinable
    verdict(
        9,
        ok,
        "base game indeterminable with a turn-ambiguity witness; "
        "turn-tracked variant determinable",
    )


@pytest.mark.parametrize("odd", (False, True), ids=("alice_bob", "alice_bob_odd"))
@pytest.mark.parametrize("horizon", (5, 6))
def test_windowed_determinability_at_larger_horizons(odd, horizon):
    ctx = (gen_alice_bob_odd if odd else gen_alice_bob)(horizon)
    started = time.perf_counter()
    report = is_determinable(ctx, "windowed")
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"windowed check took {elapsed:.2f}s"
    assert report.determinable is not odd
    if odd:
        w = report.witness
        assert w.instance.snapshot(w.time) == w.other_instance.snapshot(w.other_time)
        assert corpus.oracle_bundle(ctx, w.instance, w.time) == w.bundle
        assert corpus.oracle_bundle(ctx, w.other_instance, w.other_time) == w.other_bundle
        k = horizon - max(map(ctx.signature.time_index, (w.time, w.other_time)))
        assert {tr[:k] for tr in w.bundle} != {tr[:k] for tr in w.other_bundle}


def test_windowed_determinability_is_linear_on_a_long_constant_chain():
    # one snapshot at all 5,000 times: comparing each occurrence with the next
    # needs two window ends in all, not one per distinct width
    times = tuple(str(k) for k in range(5000))
    sig = Signature(("a",), ("e",), times)
    ctx = Context(sig, (Instance(("e",), times, ("a",) * len(times)),))
    started = time.perf_counter()
    report = is_determinable(ctx, "windowed")
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"windowed check took {elapsed:.2f}s"
    assert report.determinable
    literal = is_determinable(ctx, "literal")
    assert not literal.determinable
    assert (literal.witness.time, literal.witness.other_time) == ("0", "1")


def test_criterion_10_cli_reproducibility(tmp_path, capsys):
    alice = tmp_path / "alice.ctx"
    kripke = tmp_path / "model.kr"
    out_ctx = tmp_path / "out.mctx"
    prep = [
        ["gen", "alice-bob", "--horizon", "3", "-o", str(alice)],
        ["gen", "random-kripke", "--seed", "3", "--worlds", "4", "-o", str(kripke)],
    ]
    for argv in prep:
        assert cli_dispatch(argv) == 0
    capsys.readouterr()

    commands = [
        ["gen", "alice-bob", "--horizon", "3"],
        ["gen", "alice-bob-odd", "--horizon", "3"],
        ["gen", "minigame", "--variant", "base"],
        ["gen", "minigame", "--variant", "turn"],
        ["gen", "random-ctx", "--seed", "8", "--count", "14"],
        ["gen", "random-kripke", "--seed", "8", "--density", "0.7"],
        ["gen", "alice-bob", "--horizon", "3", "-o", str(alice)],
        ["ctx", "check-determinable", str(alice), "--mode", "literal"],
        ["ctx", "check-determinable", str(alice), "--mode", "windowed"],
        ["ctx", "iterator", str(alice)],
        ["ctx", "consistency", str(alice), "--instance", "i5", "--time", "1"],
        ["ctx", "deterministic", str(alice)],
        ["modal", "eval", str(kripke), "--world", "w0", "--formula", "[](p -> <>q)"],
        ["modal", "to-context", str(kripke), "--atoms", "p,q", "--depth", "1"],
        ["modal", "to-context", str(kripke), "--atoms", "p", "--depth", "2",
         "-o", str(out_ctx)],
        ["modal", "check-context", str(out_ctx)],
        ["modal", "verify-theorem", str(kripke), "--atoms", "p,q", "--depth", "1"],
    ]
    unstable = []
    for argv in commands:
        code_a = cli_dispatch(argv)
        out_a = capsys.readouterr().out
        code_b = cli_dispatch(argv)
        out_b = capsys.readouterr().out
        if code_a != code_b or out_a != out_b:
            unstable.append(argv)
    verdict(
        10,
        not unstable,
        f"{len(commands)} CLI invocations byte-identical across runs",
    )
