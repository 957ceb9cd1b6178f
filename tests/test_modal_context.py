"""Quotient construction, modal-context checking, and membership proving."""

import os
import random
import re
import subprocess
import sys
from functools import cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import corpus
import oracles
from ctxkit import modal_context, modal_logic
from ctxkit.cli import cli_dispatch
from ctxkit.formats import render_kripke
from ctxkit.generators import gen_random_kripke
from ctxkit.modal_logic import (
    Atom,
    Evaluator,
    print_formula,
    Box,
    Diamond,
    KripkeModel,
    Not,
    formula_universe,
)
from ctxkit.modal_context import (
    ModalContext,
    _columns,
    _rows,
    class_world_map,
    extension_table,
    is_modal_context,
    prove_in_context,
    prover_agreement,
    quotient,
    requotient_is_identity,
    to_modal_context,
    verify_representation,
)

P, Q = Atom("p"), Atom("q")


def extensions_of(model, universe):
    """{member or subformula: its worlds}, from the oracle evaluator."""
    return oracles.frozenset_extensions(model.worlds, model.relation, model.valuation,
                                        universe.members)


def single_world_model():
    return KripkeModel(("w",), frozenset(), {"p": frozenset({"w"})})


def twin_model():
    # two isolated worlds with identical valuations and no edges
    return KripkeModel(("a", "b"), frozenset(), {"p": frozenset({"a", "b"})})


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def test_quotient_distinct_theories_gives_singletons():
    model = KripkeModel(("a", "b"), frozenset(), {"p": frozenset({"a"})})
    classes = quotient(model, formula_universe(("p",), depth=0))
    assert classes == (frozenset({"a"}), frozenset({"b"}))


def test_quotient_merges_indistinguishable_worlds():
    classes = quotient(twin_model(), formula_universe(("p",), depth=2))
    assert classes == (frozenset({"a", "b"}),)


def test_quotient_single_world():
    classes = quotient(single_world_model(), formula_universe(("p",), depth=1))
    assert len(classes) == 1 and classes[0] == frozenset({"w"})


def test_quotient_classes_partition_worlds():
    rng = random.Random(6677)
    universe = formula_universe(("p", "q"), depth=1)
    for _ in range(30):
        model = corpus.random_kripke(rng)
        classes = quotient(model, universe)
        scattered = [w for c in classes for w in c]
        assert sorted(scattered) == sorted(model.worlds)
        assert [min(c) for c in classes] == sorted(min(c) for c in classes)


def test_quotient_soundness_via_naive_satisfaction():
    rng = random.Random(7788)
    universe = formula_universe(("p", "q"), depth=1)
    for _ in range(12):
        model = corpus.random_kripke(rng)
        for cls in quotient(model, universe):
            members = sorted(cls)
            for other in members[1:]:
                for f in universe.members:
                    assert oracles.naive_satisfies(
                        model.worlds, model.relation, model.valuation, members[0], f
                    ) == oracles.naive_satisfies(
                        model.worlds, model.relation, model.valuation, other, f
                    )


# ---------------------------------------------------------------------------
# the extension table and the modal-atom quotient, on random models
# ---------------------------------------------------------------------------

@st.composite
def kripke_models(draw):
    """1 to 10 worlds, any relation, any valuation of p, q and r."""
    n = draw(st.integers(1, 10))
    worlds = tuple(f"w{i}" for i in range(n))  # w10 sorts before w2
    relation = {(a, b) for a in worlds for b in worlds if draw(st.booleans())}
    valuation = {
        atom: {w for w in worlds if draw(st.booleans())} for atom in ("p", "q", "r")
    }
    return KripkeModel(worlds, relation, valuation)


# (atoms, depth, cap) of the universes drawn below: formula_universe is the
# one builder, so the settings vary the shapes, every one of the six member
# kinds among them, and each table stays under the guard at 10 worlds
UNIVERSE_SETTINGS = (
    (("p", "q"), 1, 1),  # the default
    (("p", "q"), 2, 0),  # cap 0: no ~, & or -> member
    (("p",), 0, 1),  # no []/<> member
    (("p", "q", "r"), 1, 0),  # every atom the models valuate, one modal level
    (("p",), 2, 1),  # ~ under [] and <>, two modal levels
)


@cache
def generated_universe(settings_index):
    atoms, depth, cap = UNIVERSE_SETTINGS[settings_index]
    universe = formula_universe(atoms, depth, cap=cap)
    assert len(universe) * 10 <= modal_context.DEFAULT_TABLE_GUARD
    return universe


universes = st.integers(0, len(UNIVERSE_SETTINGS) - 1).map(generated_universe)


@settings(max_examples=150)
@given(kripke_models(), universes)
def test_table_masks_are_the_evaluator_extensions(model, universe):
    table = extension_table(model, universe)  # masks in member order
    assert len(table) == len(universe)
    extension = extensions_of(model, universe)
    for f, mask in zip(universe.members, table):
        worlds = {w for i, w in enumerate(model.worlds) if mask >> i & 1}
        assert worlds == extension[f], f
        assert mask >> len(model.worlds) == 0


@settings(max_examples=80)
@given(kripke_models(), universes)
def test_modal_atom_quotient_is_the_full_theory_quotient(model, universe):
    expected = oracles.full_theory_quotient(
        model.worlds, model.relation, model.valuation, universe.members
    )
    classes = quotient(model, universe)
    assert [tuple(sorted(c)) for c in classes] == [ws for ws, _ in expected]
    mc = to_modal_context(model, universe)
    assert [mc.theory_at(name) for name in mc.world_names] == [t for _, t in expected]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_to_modal_context_single_world_vacuity():
    universe = formula_universe(("p",), depth=1)
    mc = to_modal_context(single_world_model(), universe)
    assert mc.world_names == ("c0",)
    theory = mc.theory_at("c0")
    assert P in theory
    boxes = {f for f in universe.members if isinstance(f, Box)}
    assert boxes and boxes <= theory


def test_to_modal_context_collapses_duplicates():
    mc = to_modal_context(twin_model(), formula_universe(("p",), depth=2))
    assert len(mc.world_names) == 1 < len(twin_model().worlds)


def test_to_modal_context_empty_relation():
    mc = to_modal_context(twin_model(), formula_universe(("p",), depth=1))
    assert mc.relation == frozenset()


def test_to_modal_context_relation_lifts_member_edges():
    model = KripkeModel(
        ("a", "b", "c"),
        frozenset({("a", "b"), ("b", "c")}),
        {"p": frozenset({"a"}), "q": frozenset({"b"})},
    )
    universe = formula_universe(("p", "q"), depth=1)
    mc = to_modal_context(model, universe)
    names = class_world_map(model, mc)
    assert (names["a"], names["b"]) in mc.relation
    assert (names["b"], names["c"]) in mc.relation
    assert (names["a"], names["c"]) not in mc.relation


# ---------------------------------------------------------------------------
# modal-context conditions
# ---------------------------------------------------------------------------

def test_constructed_contexts_satisfy_the_conditions():
    rng = random.Random(8899)
    universes = [
        formula_universe(("p",), depth=1),
        formula_universe(("p", "q"), depth=1),
        formula_universe(("p", "q"), depth=2),
    ]
    for k in range(30):
        model = corpus.random_kripke(rng)
        mc = to_modal_context(model, universes[k % len(universes)])
        violations = is_modal_context(mc)
        assert not violations, violations[:3]


def test_hand_built_violation_is_caught():
    universe = formula_universe(("p",), depth=1)
    # n1 has no successors: every box formula must be present, no diamond may be
    mc = oracles.modal_context_of(
        ("n0", "n1"), {"n0": {Box(P)}, "n1": {Diamond(P)}}, {("n0", "n1")}, universe
    )
    violations = is_modal_context(mc)
    assert violations
    assert any(
        v.world == "n0" and v.operator == "box" and v.side == "forward" and v.formula == P
        for v in violations
    )
    assert any(v.world == "n1" and v.operator == "diamond" and v.side == "forward"
               for v in violations)
    assert any(v.world == "n1" and v.operator == "box" and v.side == "backward"
               for v in violations)


def test_empty_context_is_vacuously_modal():
    universe = formula_universe(("p",), depth=1)
    mc = ModalContext.from_masks((), (0,) * len(universe), (), universe)
    assert is_modal_context(mc) == ()


def test_successors_follow_world_names_order():
    # world order is not name order, so both checks must place each world's
    # successors by world_names
    rng, depth_one = random.Random(4411), formula_universe(("p", "q"), depth=1)
    answers = set()
    for k in range(60):
        mc = to_modal_context(corpus.random_kripke(rng, max_worlds=8), depth_one)
        theories = theories_of(mc)
        if k % 2:  # one flipped membership, so that some answers are "no"
            theories[rng.choice(mc.world_names)] ^= {rng.choice(depth_one.members)}
        names = list(mc.world_names)
        rng.shuffle(names)
        try:
            shuffled = oracles.modal_context_of(tuple(names), theories, mc.relation, depth_one)
        except ValueError as exc:
            assert "equal as functions" in str(exc)
            continue
        violations = checked_like_the_frozenset_form(shuffled)
        fixed = requotient_is_identity(shuffled)
        assert fixed == oracles.reference_requotient(shuffled)
        answers.add((not violations, fixed))
    assert answers == {(True, True), (False, False), (True, False)}
    universe = formula_universe(("p", "q"), depth=0, cap=0)
    mc = oracles.modal_context_of(("n2", "n0", "n1"), {"n2": {P}, "n0": {Q}, "n1": {P, Q}},
                                  {("n0", "n1"), ("n1", "n2")}, universe)
    with pytest.raises(ValueError, match="unknown context world 'n9'"):
        mc.theory_at("n9")


# ---------------------------------------------------------------------------
# representation and proving
# ---------------------------------------------------------------------------

def test_representation_holds_for_own_output():
    rng = random.Random(9900)
    universe = formula_universe(("p", "q"), depth=1)
    for _ in range(25):
        model = corpus.random_kripke(rng)
        mc = to_modal_context(model, universe)
        assert verify_representation(model, mc)


def test_representation_fails_after_perturbation():
    model = single_world_model()
    universe = formula_universe(("p",), depth=1)
    mc = to_modal_context(model, universe)
    theory = mc.theory_at("c0")
    poke = next(iter(theory))
    perturbed = oracles.modal_context_of(
        mc.world_names, {"c0": theory - {poke}}, mc.relation, universe
    )
    assert not verify_representation(model, perturbed)


def test_representation_single_world():
    model = single_world_model()
    mc = to_modal_context(model, formula_universe(("p",), depth=1))
    assert verify_representation(model, mc)


def test_carriers_store_the_naive_theories():
    # a world's carrier is the context world that stores the world's theory
    # by naive satisfaction; contexts are the model's own, another model's,
    # or one of those with one stored bit flipped
    rng = random.Random(15015)
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1)]
    outcomes = set()
    for k in range(120):
        drawn = corpus.random_kripke(rng, max_worlds=6)
        worlds = list(drawn.worlds)
        rng.shuffle(worlds)  # model order is not name order
        model = KripkeModel(tuple(worlds), drawn.relation, drawn.valuation)
        universe = universes[k % 2]
        mc = to_modal_context(model if k % 3 else corpus.random_kripke(rng), universe)
        if k % 3 == 2:
            theories = theories_of(mc)
            theories[rng.choice(mc.world_names)] ^= {rng.choice(universe.members)}
            try:
                mc = oracles.modal_context_of(mc.world_names, theories, mc.relation, universe)
            except ValueError as exc:
                assert "equal as functions" in str(exc)
                continue
        carrier = {mc.theory_at(name): name for name in mc.world_names}
        expected = {w: carrier.get(frozenset(
            f for f in universe.members
            if oracles.naive_satisfies(model.worlds, model.relation, model.valuation, w, f)))
            for w in model.worlds}
        missing = [w for w in model.worlds if expected[w] is None]
        assert verify_representation(model, mc) == (not missing)
        if missing:
            with pytest.raises(ValueError,
                               match=f"^world {missing[0]!r} has no matching context world$"):
                class_world_map(model, mc)
        else:
            assert class_world_map(model, mc) == expected
        outcomes.add(not missing)
    assert outcomes == {True, False}


def test_prove_in_context_membership_and_bounds():
    model = single_world_model()
    universe = formula_universe(("p",), depth=1)
    mc = to_modal_context(model, universe)
    assert prove_in_context(mc, "c0", P)
    assert prove_in_context(mc, "c0", Box(P))
    assert not prove_in_context(mc, "c0", Not(P))
    too_deep = Box(Box(P))
    assert too_deep not in universe
    with pytest.raises(ValueError, match="outside the universe"):
        prove_in_context(mc, "c0", too_deep)
    with pytest.raises(ValueError, match="^unknown context world 'c9'$"):
        prove_in_context(mc, "c9", P)


def test_provers_agree_end_to_end():
    rng = random.Random(11011)
    universe = formula_universe(("p", "q"), depth=1)
    for _ in range(20):
        model = corpus.random_kripke(rng)
        mc = to_modal_context(model, universe)
        names = class_world_map(model, mc)
        extension = extensions_of(model, universe)
        for w in model.worlds:
            for f in universe.members:
                assert prove_in_context(mc, names[w], f) == (w in extension[f])


def test_construction_is_deterministic():
    rng = random.Random(12012)
    universe = formula_universe(("p", "q"), depth=1)
    for _ in range(10):
        model = corpus.random_kripke(rng)
        assert to_modal_context(model, universe) == to_modal_context(model, universe)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_modal_context_validation():
    universe = formula_universe(("p",), depth=0, cap=0)  # the one member p
    with pytest.raises(ValueError, match="^2 columns for 1 members$"):
        corpus.modal_context(("n0",), (1, 0), (), universe)
    with pytest.raises(ValueError, match="^a column has bits outside the named worlds$"):
        corpus.modal_context(("n0",), (2,), (), universe)
    with pytest.raises(ValueError, match="^a column has bits outside the named worlds$"):
        corpus.modal_context(("n0",), (-1,), (), universe)
    with pytest.raises(ValueError, match="^worlds 'n0' and 'n2' are equal as functions$"):
        corpus.modal_context(("n0", "n1", "n2"), (0b010,), (), universe)
    for successors in ((0b10,), (-1,), ()):
        with pytest.raises(ValueError, match="^successor masks outside the named worlds$"):
            ModalContext.from_masks(("n0",), (1,), successors, universe)
    with pytest.raises(ValueError, match="^worlds 'n0' and 'n1' are equal as functions$"):
        ModalContext.from_masks(("n0", "n1"), (0,), (0, 0), universe)
    mc = corpus.modal_context(("n0", "n1"), [0b10], [("n1", "n0")], universe)
    assert mc.columns == (0b10,) and mc.relation == frozenset({("n1", "n0")})
    assert mc.successors == (0b00, 0b01)  # n1's successor n0 is bit 0
    assert ModalContext.from_masks(iter(("n0", "n1")), iter([0b10]), iter([0, 1]), universe) == mc
    assert mc.theory_at("n1") == {P} and mc.theory_at("n0") == frozenset()
    with pytest.raises(ValueError, match="^unknown context world 'n9'$"):
        mc.theory_at("n9")
    assert print_formula(universe.members[0]) == "p"


def test_a_modal_context_is_built_from_masks_not_from_pairs():
    universe = formula_universe(("p",), depth=0, cap=0)
    with pytest.raises(TypeError):
        ModalContext(("a",), (1,), (), universe)


def test_equal_worlds_error_names_the_first_pair_in_name_order():
    # w1 == w2 is met first walking the worlds, but the pair scan in name
    # order meets w0 == w3 first, and that is the pair the error names
    universe = formula_universe(("p", "q"), depth=0)
    stored = {"w0": {P}, "w1": {Q}, "w2": {Q}, "w3": {P}}
    with pytest.raises(ValueError, match="^worlds 'w0' and 'w3' are equal as functions$"):
        oracles.modal_context_of(tuple(stored), stored, frozenset(), universe)


def test_every_world_is_checked_before_equal_worlds_are_reported():
    universe = formula_universe(("p",), depth=0, cap=0)
    # w0 and w1 store the same, and a column has a bit past w1
    with pytest.raises(ValueError, match="^a column has bits outside the named worlds$"):
        ModalContext.from_masks(("w0", "w1"), (0b111,), (0, 0), universe)


# ---------------------------------------------------------------------------
# one quotient per (model, universe)
# ---------------------------------------------------------------------------

def test_one_model_over_two_universes_quotients_like_fresh_models():
    rng = random.Random(929)
    small = formula_universe(("p",), depth=1)
    large = formula_universe(("p", "q"), depth=2)
    for _ in range(20):
        model = corpus.random_kripke(rng, max_worlds=7)
        for universe in (small, large, small):
            fresh = KripkeModel(model.worlds, model.relation, model.valuation)
            assert quotient(model, universe) == quotient(fresh, universe)
            assert to_modal_context(model, universe) == to_modal_context(fresh, universe)


def test_verify_theorem_builds_one_extension_table_and_one_model(monkeypatch, tmp_path, capsys):
    # the table is the loaded model's; the requotient check reads the stored
    # columns, so no model is built after the .kr load
    calls, models = [], []

    def counted(model, universe):
        calls.append(model)
        return extension_table(model, universe)

    def built(cls, *masks, build=KripkeModel.from_masks.__func__):
        # every constructor, by pairs or by masks, ends in this one check
        models.append(build(cls, *masks))
        return models[-1]

    path = tmp_path / "m.kr"
    path.write_text(render_kripke(corpus.random_kripke(random.Random(5), max_worlds=6)))
    monkeypatch.setattr(modal_context, "extension_table", counted)
    monkeypatch.setattr(KripkeModel, "from_masks", classmethod(built))
    code = cli_dispatch(["modal", "verify-theorem", str(path), "--atoms", "p,q", "--depth", "2"])
    assert code == 0, capsys.readouterr()
    assert len(models) == 1
    assert calls == models


def test_verify_theorem_applies_the_rule_once_per_table(monkeypatch, tmp_path, capsys):
    # the model's extension table, then the context's one check table, which
    # both the modal check and the requotient check read
    calls = []

    def counted(universe, stored, *rest, rule=modal_context._rule):
        calls.append("check" if stored is not None else "extension")
        return rule(universe, stored, *rest)

    path = tmp_path / "m.kr"
    path.write_text(render_kripke(gen_random_kripke(3, 8, ("p", "q"), 0.3)))
    monkeypatch.setattr(modal_context, "_rule", counted)
    code = cli_dispatch(["modal", "verify-theorem", str(path), "--atoms", "p,q", "--depth", "1"])
    assert code == 0, capsys.readouterr()
    assert calls == ["extension", "check"]


# ---------------------------------------------------------------------------
# column contexts against the frozenset form
# ---------------------------------------------------------------------------

def frozenset_form(model, universe):
    """(names, {name: theory}, relation) of the quotient context, with
    classes grouped on the oracle evaluator's world theories."""
    extension, groups = extensions_of(model, universe), {}
    for w in model.worlds:
        theory = frozenset(f for f in universe.members if w in extension[f])
        groups.setdefault(theory, []).append(w)
    classes = sorted((min(ws), ws, theory) for theory, ws in groups.items())
    names = tuple(f"c{k}" for k in range(len(classes)))
    name_of = {w: name for name, (_, ws, _) in zip(names, classes) for w in ws}
    theories = {name: theory for name, (_, _, theory) in zip(names, classes)}
    relation = frozenset((name_of[a], name_of[b]) for a, b in model.relation)
    return names, theories, relation


def theories_of(mc):
    return {name: mc.theory_at(name) for name in mc.world_names}


def described(violations):
    return [(v.world, v.formula, v.operator, v.side) for v in violations]


def checked_like_the_frozenset_form(mc):
    """is_modal_context on the columns gives the frozenset check's list."""
    expected = oracles.frozenset_violations(
        mc.world_names, theories_of(mc), mc.relation, mc.universe.members
    )
    violations = is_modal_context(mc)
    assert described(violations) == expected
    return violations


def test_columns_match_the_frozenset_form_on_the_acceptance_corpus():
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)]
    inputs = [(gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), (0.0, 0.3, 0.7, 1.0)[seed % 4]),
               universes[seed % 3]) for seed in range(200)]
    rng = random.Random(517)
    for seed, worlds, density in ((1, 40, 0.05), (2, 52, 0.15), (3, 64, 0.3)):
        # classes of many worlds, stored out of name order, so that a class's
        # number is neither its least world's position nor any one world's
        model = gen_random_kripke(seed, worlds, ("p", "q"), density)
        shuffled = rng.sample(model.worlds, len(model.worlds))
        inputs.append((KripkeModel(shuffled, model.relation, model.valuation), universes[1]))
    for model, universe in inputs:
        mc = to_modal_context(model, universe)
        names, theories, relation = frozenset_form(model, universe)
        assert mc == oracles.modal_context_of(names, theories, relation, universe)
        assert theories_of(mc) == theories
        violations = checked_like_the_frozenset_form(mc)
        assert not violations


def test_mutated_contexts_report_the_frozenset_violations():
    rng = random.Random(4242)
    universes = [formula_universe(("p", "q"), depth=d) for d in (1, 2)]
    mutated = 0
    for seed in range(120):
        model = gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), (0.0, 0.3, 0.7, 1.0)[seed % 4])
        universe = universes[seed % 2]
        mc = to_modal_context(model, universe)
        column = list(mc.columns)
        for _ in range(rng.randint(1, 6)):  # flip memberships, operator formulas among them
            i = rng.randrange(len(column))
            if rng.random() < 0.7:
                i = rng.choice([k for k, kind in enumerate(universe.kinds)
                                if kind in (Box, Diamond)])
            column[i] ^= 1 << rng.randrange(len(mc.world_names))
        try:
            broken = ModalContext.from_masks(mc.world_names, column, mc.successors, universe)
        except ValueError as exc:
            assert "equal as functions" in str(exc)
            continue
        rebuilt = oracles.modal_context_of(broken.world_names, theories_of(broken),
                                           broken.relation, universe)
        assert rebuilt == broken
        violations = checked_like_the_frozenset_form(broken)
        mutated += bool(violations)
    assert mutated >= 80


def test_hand_built_contexts_check_like_the_frozenset_form():
    rng = random.Random(777)
    universe = formula_universe(("p",), depth=1)
    members = universe.members
    boxes = [f for f in members if isinstance(f, (Box, Diamond))]
    checked = 0
    for _ in range(150):
        names = tuple(f"n{k}" for k in range(rng.randint(1, 4)))
        theories = {
            name: frozenset(rng.sample(boxes, rng.randint(0, len(boxes)))
                            + rng.sample(members, rng.randint(0, 3)))
            for name in names
        }
        relation = {(a, b) for a in names for b in names if rng.random() < 0.4}
        try:
            mc = oracles.modal_context_of(names, theories, relation, universe)
        except ValueError as exc:
            assert "equal as functions" in str(exc)
            continue
        checked += 1
        assert theories_of(mc) == theories
        for name in names:
            f = rng.choice(members)
            assert prove_in_context(mc, name, f) == (f in theories[name])
        checked_like_the_frozenset_form(mc)
    assert checked >= 120


# ---------------------------------------------------------------------------
# the requotient check and prover agreement
# ---------------------------------------------------------------------------

@cache
def acceptance_contexts():
    """(model, quotient context) for each acceptance model and each p,q
    universe of depth 0-2."""
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)]
    models = [gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), (0.0, 0.3, 0.7, 1.0)[seed % 4])
              for seed in range(200)]
    return [(model, to_modal_context(model, u)) for model in models for u in universes]


def test_requotient_check_is_the_second_quotient_on_the_acceptance_corpus():
    # every quotient is a fixed point, so each context is also checked with
    # one non-modal member's bit flipped at one world, where "no" is common
    rng, noes = random.Random(2525), 0
    for _, mc in acceptance_contexts():
        assert requotient_is_identity(mc) == oracles.reference_requotient(mc)
        columns = list(mc.columns)
        i = rng.choice([i for i, kind in enumerate(mc.universe.kinds)
                        if kind is not Box and kind is not Diamond])
        columns[i] ^= 1 << rng.randrange(len(mc.world_names))
        try:
            flipped = ModalContext.from_masks(mc.world_names, columns, mc.successors, mc.universe)
        except ValueError as exc:
            assert "equal as functions" in str(exc)
            continue
        answer = oracles.reference_requotient(flipped)
        assert requotient_is_identity(flipped) == answer
        noes += not answer
    assert noes >= 500


def test_quotient_contexts_are_requotient_fixed_points():
    for _, mc in acceptance_contexts():
        assert requotient_is_identity(mc)
        violations = is_modal_context(mc)
        assert not violations


@st.composite
def hand_built_contexts(draw):
    """A model's quotient context, built by hand from per-world formula
    sets, with a random relation in place of its own or with some stored
    memberships flipped; a draw with two equal worlds is skipped."""
    model, universe = draw(kripke_models()), draw(universes)
    names, theories, relation = frozenset_form(model, universe)
    if draw(st.booleans()):
        relation = {(a, b) for a in names for b in names if draw(st.booleans())}
    else:
        members = universe.members
        for _ in range(draw(st.integers(0, 3))):
            name = draw(st.sampled_from(names))
            theories[name] ^= {members[draw(st.integers(0, len(members) - 1))]}
    try:
        return oracles.modal_context_of(names, theories, relation, universe)
    except ValueError as exc:
        assert "equal as functions" in str(exc)
        assume(False)


@settings(max_examples=200)
@given(hand_built_contexts())
def test_requotient_check_is_the_second_quotient_on_hand_built_contexts(mc):
    assert requotient_is_identity(mc) == oracles.reference_requotient(mc)


@settings(max_examples=200)
@given(hand_built_contexts())
def test_a_requotient_fixed_point_is_a_modal_context(mc):
    # the requotient check holds `_rule` for every member, the modal check
    # for the []/<> members only
    if requotient_is_identity(mc):
        violations = is_modal_context(mc)
        assert not violations


def by_hand_agreement(model, mc):
    """Every model world proves, in its context world, exactly the members
    the oracle evaluator says it satisfies."""
    names = class_world_map(model, mc)
    extension = extensions_of(model, mc.universe)
    return all(prove_in_context(mc, names[w], f) == (w in extension[f])
               for w in model.worlds for f in mc.universe.members)


def test_prover_agreement_is_the_by_hand_loop():
    rng = random.Random(13013)
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)]
    agreed = refused = 0
    for k in range(90):
        model = corpus.random_kripke(rng)
        # its own context, or another model's, which may lack one of its theories
        other = model if k % 2 else corpus.random_kripke(rng)
        mc = to_modal_context(other, universes[k % 3])
        try:
            expected = by_hand_agreement(model, mc)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                prover_agreement(model, mc)
            refused += 1
            continue
        assert prover_agreement(model, mc) == expected
        agreed += expected
    assert refused >= 20 and agreed >= 45


def test_prover_agreement_sees_a_wrong_evaluator(monkeypatch):
    # the library evaluator's [] rule read as <>: prover agreement sees it, and
    # the by-hand loop, on the oracle evaluator, still finds every model agreeing
    monkeypatch.setitem(modal_logic._MASK_RULES, Box, modal_logic._MASK_RULES[Diamond])
    rng = random.Random(14014)
    universe = formula_universe(("p", "q"), depth=1)
    answers = []
    for _ in range(30):
        model = corpus.random_kripke(rng)
        mc = to_modal_context(model, universe)
        answers.append(prover_agreement(model, mc))
        assert by_hand_agreement(model, mc)
    assert answers.count(False) >= 10


@pytest.mark.parametrize("density", (0.004, 0.05))
def test_the_mask_evaluator_and_the_checks_agree_with_the_oracles_on_1024_worlds(density):
    # `gen random-kripke --seed 3 --worlds 1024` at a density of 263 classes, and of 4
    model = gen_random_kripke(3, 1024, ("p", "q"), density)
    universe = formula_universe(("p", "q"), depth=2)
    extension = extensions_of(model, universe)
    bit = {w: 1 << j for j, w in enumerate(model.worlds)}
    assert Evaluator(model).member_masks(universe) == [
        sum(map(bit.__getitem__, extension[f])) for f in universe.members]
    mc = to_modal_context(model, universe)
    assert prover_agreement(model, mc)
    # one stored bit of a [] column flipped, in a world whose row stays its own
    boxes = [i for i, kind in enumerate(universe.kinds) if kind is Box]
    columns = list(mc.columns)
    columns[boxes[len(boxes) // 2]] ^= 1
    flipped = ModalContext.from_masks(mc.world_names, columns, mc.successors, universe)
    expected = oracles.frozenset_violations(flipped.world_names, theories_of(flipped),
                                            flipped.relation, universe.members)
    assert expected and described(is_modal_context(flipped)) == expected


RELATION_ENDPOINTS = """
from ctxkit.modal_logic import KripkeModel

try:
    KripkeModel(('a',), {('a', 'x'), ('y', 'a'), ('a', 'z')}, {})
except ValueError as exc:
    print(exc)
"""


def test_the_smallest_bad_relation_endpoint_is_named_under_every_hash_seed(ctxkit_src):
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-c", RELATION_ENDPOINTS], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": ctxkit_src, "PYTHONHASHSEED": str(seed)},
        )
        assert proc.stdout.splitlines() == [
            "relation endpoint outside the model: (a, x)",
        ], (seed, proc.stderr)


def test_a_relation_element_that_is_no_pair_is_refused():
    with pytest.raises(ValueError, match="too many values to unpack"):
        KripkeModel(("a",), {("a", "a", "a")}, {})


@pytest.mark.parametrize("count", (1, 7, 8, 9, 16, 17, 1_000))
def test_rows_and_columns_are_the_bitwise_transposition(count):
    # against a bit-by-bit reference: world j's row holds member i's bit j
    rng = random.Random(count)
    columns = [rng.getrandbits(count) for _ in range(13)] + [0, (1 << count) - 1]
    rows = [bytes(column >> j & 1 for column in columns) for j in range(count)]
    assert _rows(columns, count) == rows
    assert _columns(rows, len(columns)) == tuple(columns)
    assert _columns(_rows(columns, count), len(columns)) == tuple(columns)
    assert _rows(_columns(rows, len(columns)), count) == rows
