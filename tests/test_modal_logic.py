"""Formula AST, parser/printer, bounded universes, and Kripke satisfaction."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
import oracles
from ctxkit import modal_logic
from ctxkit.core import SizeGuardError
from ctxkit.modal_logic import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Box,
    Diamond,
    Evaluator,
    Formula,
    FormulaSyntaxError,
    FormulaUniverse,
    Iff,
    Implies,
    KripkeModel,
    Not,
    Or,
    Top,
    formula_universe,
    parse_formula,
    print_formula,
    satisfies,
    world_theory,
)
from ctxkit.generators import gen_random_kripke
from ctxkit.modal_context import ModalContext, quotient, to_modal_context
from ctxkit.modal_logic import _base_counts

P, Q, R = Atom("p"), Atom("q"), Atom("r")


@pytest.fixture
def two_world_model():
    return KripkeModel(("w1", "w2"), frozenset({("w1", "w2")}), {"p": frozenset({"w2"})})


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def test_parse_box_implies_diamond():
    assert parse_formula("[](p -> <>q)") == Box(Implies(P, Diamond(Q)))


def test_parse_stacked_unaries():
    assert parse_formula("~[]~p") == Not(Box(Not(P)))


def test_parse_precedence_and_over_or():
    assert parse_formula("p & q | r") == Or(And(P, Q), R)


def test_parse_implies_right_associative_iff_chains_left():
    assert parse_formula("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse_formula("p <-> q <-> r") == Iff(Iff(P, Q), R)


def test_parse_constants_and_parens():
    assert parse_formula("true & ~false") == And(TOP, Not(BOTTOM))
    assert parse_formula("(p | q) & r") == And(Or(P, Q), R)


def test_parse_atom_lexemes():
    assert parse_formula("alpha_2x") == Atom("alpha_2x")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("Palpha")


def test_syntax_errors_carry_position_and_expectations():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p & ")
    assert err.value.position == 4
    assert "atom" in err.value.expected

    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("(p -> q")
    assert err.value.expected == frozenset({"')'"})

    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p q")
    assert err.value.position == 2

    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p ? q")
    assert err.value.position == 2


def test_print_examples():
    assert print_formula(Box(Implies(P, Diamond(Q)))) == "[](p -> <>q)"
    assert print_formula(Not(Box(Not(P)))) == "~[]~p"
    assert print_formula(Or(And(P, Q), R)) == "p & q | r"
    assert print_formula(And(P, And(Q, R))) == "p & (q & r)"
    assert print_formula(Implies(Implies(P, Q), R)) == "(p -> q) -> r"


def test_parse_print_round_trip_on_random_asts():
    rng = random.Random(2233)
    for _ in range(400):
        formula = corpus.random_formula(rng)
        assert parse_formula(print_formula(formula)) == formula


def test_print_parse_is_canonical_on_strings():
    for text in ("p&q|r", "  [] ( p -> <> q )", "~ ~ p", "p -> (q -> r)"):
        canonical = print_formula(parse_formula(text))
        assert print_formula(parse_formula(canonical)) == canonical


def test_deep_formulas_parse_and_evaluate_without_recursion(monkeypatch, two_world_model):
    monkeypatch.setenv("CTXKIT_GUARD", "200000")
    chain = parse_formula("~" * 50_000 + "p")
    assert len(oracles.subformulas(chain)) == 50_001
    evaluator = Evaluator(two_world_model)
    assert evaluator.extension(chain) == frozenset({"w2"})  # an even number of ~
    monkeypatch.delenv("CTXKIT_GUARD")
    right = parse_formula("p -> " * 4_000 + "q")
    assert len(oracles.subformulas(right)) == 4_002 and right.right.right.left is P
    assert not satisfies(two_world_model, "w2", right)
    nested = parse_formula("(" * 9_000 + "[]p" + ")" * 9_000)
    assert nested is Box(P)
    assert print_formula(parse_formula("[]" * 9_999 + "p")).endswith("[][]p")


def test_formula_guard_counts_nodes_before_building_any(monkeypatch):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    guarded = parse_formula("(" * 10 + "~" * 9_999 + "q_guard" + ")" * 10)
    assert len(oracles.subformulas(guarded)) == 10_000
    nodes = dict(modal_logic._NODES)
    with pytest.raises(SizeGuardError) as err:
        parse_formula("~" * 10_000 + "r_guard")
    assert str(err.value) == (
        "formula needs a guard of at least 10001; "
        "current guard is 10000; set CTXKIT_GUARD to raise it"
    )
    assert modal_logic._NODES == nodes
    monkeypatch.setenv("CTXKIT_GUARD", "2")
    assert parse_formula("((~p))") is Not(P)
    with pytest.raises(SizeGuardError):
        parse_formula("p & q")


# ---------------------------------------------------------------------------
# hash-consed nodes: one constructor, identity, no stored text
# ---------------------------------------------------------------------------

# a formula as a nested (kind, *parts) spec, so that it can be built twice
formula_specs = st.recursive(
    st.one_of(
        st.sampled_from(("p", "q", "r_1")).map(lambda name: (Atom, name)),
        st.sampled_from(((Top,), (Bottom,))),
    ),
    lambda parts: st.one_of(
        st.tuples(st.sampled_from((Not, Box, Diamond)), parts),
        st.tuples(st.sampled_from((And, Or, Implies, Iff)), parts, parts),
    ),
    max_leaves=12,
)


def build(spec):
    """The formula a spec describes, built bottom up from fresh constructor calls."""
    kind, *parts = spec
    if kind is Atom:
        return Atom(*parts)
    return kind(*(build(part) for part in parts))


@settings(max_examples=400)
@given(formula_specs)
@example((Implies, (Box, (Atom, "p")), (Atom, "q")))
def test_formula_nodes_are_hash_consed(spec):
    formula = build(spec)
    assert build(spec) is formula
    text = print_formula(formula)
    assert parse_formula(text) is formula
    assert text == oracles.naive_print(formula)


def small_specs(nodes):
    """Every formula spec of exactly `nodes` nodes over p, q, true and false."""
    if nodes == 1:
        return [(Atom, "p"), (Atom, "q"), (Top,), (Bottom,)]
    specs = [(kind, part) for kind in (Not, Box, Diamond) for part in small_specs(nodes - 1)]
    for left in range(1, nodes - 1):
        pairs = [(a, b) for a in small_specs(left) for b in small_specs(nodes - 1 - left)]
        specs += [(kind, a, b) for kind in (And, Or, Implies, Iff) for a, b in pairs]
    return specs


def test_every_formula_of_at_most_four_nodes_is_one_node():
    specs = [spec for nodes in range(1, 5) for spec in small_specs(nodes)]
    assert len(specs) == len(set(specs)) == 800
    formulas = [build(spec) for spec in specs]
    assert len(set(formulas)) == len(specs)  # distinct formulas are distinct nodes
    for spec, formula in zip(specs, formulas):
        assert build(spec) is formula
        text = print_formula(formula)
        assert parse_formula(text) is formula
        assert text == oracles.naive_print(formula)
    for kind, fields in ((Atom, ()), (Top, ("p",)), (Not, (P, Q)), (And, (P,))):
        with pytest.raises(TypeError):
            kind(*fields)


def test_parsed_formula_is_the_constructed_node():
    assert parse_formula("[]p -> q") is Implies(Box(Atom("p")), Atom("q"))


def test_deep_box_chain_is_walked_without_recursion():
    formula = P
    for _ in range(10_000):
        formula = Box(formula)
    assert len(oracles.subformulas(formula)) == 10_001


def test_repr_is_constructor_syntax_at_any_depth(monkeypatch):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    assert repr(parse_formula("[]p -> q & ~r")) == (
        "Implies(Box(Atom('p')), And(Atom('q'), Not(Atom('r'))))"
    )
    assert repr(Iff(TOP, Or(BOTTOM, P))) == "Iff(Top(), Or(Bottom(), Atom('p')))"
    deep = parse_formula("~" * 9_999 + "p")
    assert repr(deep) == "Not(" * 9_999 + "Atom('p')" + ")" * 9_999


def test_unreferenced_nodes_leave_the_table():
    gc.collect()  # nodes an earlier test left in reference cycles are not counted
    baseline = len(modal_logic._NODES)
    node = And(Atom("only_here"), Box(Atom("only_here")))
    print_formula(node)
    assert len(modal_logic._NODES) == baseline + 3
    ref = weakref.ref(node)
    del node
    gc.collect()
    assert ref() is None
    assert len(modal_logic._NODES) == baseline
    assert (Atom, "only_here") not in modal_logic._NODES
    again = And(Atom("only_here"), Box(Atom("only_here")))
    assert len(modal_logic._NODES) == baseline + 3
    assert modal_logic._NODES[(Atom, "only_here")] is again.left
    assert modal_logic._NODES[(Box, again.left)] is again.right
    assert modal_logic._NODES[(And, again.left, again.right)] is again


def test_an_atom_name_that_does_not_print_as_itself_is_refused():
    gc.collect()
    nodes = dict(modal_logic._NODES)
    for name in ("true", "false", "P", "p q", "", "p#", "2p", "p-q"):
        with pytest.raises(ValueError, match="^invalid atom name "):
            Atom(name)
    with pytest.raises(TypeError):  # the field count is checked first
        Atom()
    assert dict(modal_logic._NODES) == nodes
    for name in ("p", "pQ_2", "r_guard"):
        assert parse_formula(print_formula(Not(Atom(name)))) is Not(Atom(name))


def test_formula_nodes_are_immutable():
    node = Box(P)
    with pytest.raises(AttributeError):
        node.operand = Q
    with pytest.raises(AttributeError):
        del node.operand
    assert not hasattr(node, "__dict__")
    assert node.operand is P


def test_copies_and_pickles_are_the_same_node():
    node = parse_formula("[](p -> <>q) & ~true")
    assert copy.copy(node) is node
    assert copy.deepcopy(node) is node
    assert pickle.loads(pickle.dumps(node)) is node


# ---------------------------------------------------------------------------
# the parser against the recursive-descent reference in oracles.py
# ---------------------------------------------------------------------------

# every token kind, a word that is one atom unspaced and two spaced, and a
# character the tokenizer rejects
TOKENS = ("~", "[]", "<>", "&", "|", "->", "<->", "(", ")", "p", "q", "true", "false", "?")


@st.composite
def token_strings(draw):
    """Any tokens, or a printed formula's tokens with up to two of them
    replaced by any token; the gaps between tokens vary."""
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=16))
    else:
        text = print_formula(build(draw(formula_specs)))
        tokens = [found for _, found, _ in modal_logic._tokenize(text)[:-1]]
        for _ in range(draw(st.integers(0, 2))):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
    gaps = draw(st.lists(st.sampled_from(("", " ", "  ")), min_size=len(tokens),
                         max_size=len(tokens)))
    return "".join(gap + token for gap, token in zip(gaps, tokens))


def parse_outcome(parse, text):
    """The node parse reads from text, or where and how the syntax error says it failed."""
    try:
        return parse(text)
    except FormulaSyntaxError as err:
        return err.position, err.found, err.expected


def tokenize_outcome(tokenize, text):
    """The tokens tokenize reads from text, or where and how it failed."""
    try:
        return tokenize(text)
    except FormulaSyntaxError as err:
        return err.position, err.found, err.expected


@settings(max_examples=1000)
@given(st.text(alphabet="pqtrufalsexyzP0_~[]<>-&|() \t\n\u00a0\u2003?!=[<{", max_size=40)
       | st.text(max_size=20))
@example("<-> <> -> [] ->>")
@example("trueish false_1 \u00a0p\u3000q")
@example("p\u0085\x1c ?")
def test_tokenizer_agrees_with_the_reference_tokenizer(text):
    assert tokenize_outcome(modal_logic._tokenize, text) == tokenize_outcome(
        oracles.tokenize, text
    )


@settings(max_examples=1000)
@given(token_strings())
@example("(p -> q")
@example("p -> q <-> ~r & (s | true) -> false")
@example("((p)) ) q")
def test_parser_agrees_with_recursive_descent_reference(text):
    ours, reference = parse_outcome(parse_formula, text), parse_outcome(oracles.recursive_parse, text)
    if isinstance(reference, Formula):
        assert ours is reference
    else:
        assert ours == reference


# ---------------------------------------------------------------------------
# satisfaction
# ---------------------------------------------------------------------------

def test_satisfies_diamond(two_world_model):
    assert satisfies(two_world_model, "w1", parse_formula("<>p"))


def test_satisfies_vacuous_box(two_world_model):
    assert satisfies(two_world_model, "w2", parse_formula("[]p"))


def test_satisfies_box_and_not_atom(two_world_model):
    # frozen by evaluating the clauses by hand: w1's only successor is w2,
    # which satisfies p, and p is false at w1 itself
    assert satisfies(two_world_model, "w1", parse_formula("[]p & ~p"))


def test_satisfies_unknown_world_and_missing_atom(two_world_model):
    with pytest.raises(ValueError):
        satisfies(two_world_model, "w9", P)
    assert not satisfies(two_world_model, "w1", Atom("brand_new"))


def test_satisfies_matches_naive_oracle_on_corpus():
    rng = random.Random(3344)
    for _ in range(60):
        model = corpus.random_kripke(rng)
        for _ in range(15):
            formula = corpus.random_formula(rng, depth=3)
            world = rng.choice(model.worlds)
            expected = oracles.naive_satisfies(
                model.worlds, model.relation, model.valuation, world, formula
            )
            assert satisfies(model, world, formula) == expected


def test_dual_law_and_k_axiom_on_corpus():
    rng = random.Random(4455)
    for _ in range(40):
        model = corpus.random_kripke(rng)
        ev = Evaluator(model)
        for _ in range(10):
            phi = corpus.random_formula(rng, depth=3)
            psi = corpus.random_formula(rng, depth=3)
            dual = Iff(Diamond(phi), Not(Box(Not(phi))))
            k_axiom = Implies(Box(Implies(phi, psi)), Implies(Box(phi), Box(psi)))
            for world in model.worlds:
                assert ev.satisfies(world, dual)
                assert ev.satisfies(world, k_axiom)


@st.composite
def models_with_dead_ends_loops_and_unreached_worlds(draw):
    """Worlds, pairs and name sets over 3 to 7 worlds: w0 on a self-loop, w1
    reached from no world, the last world a dead end, other pairs at random."""
    worlds = tuple(f"w{i}" for i in range(draw(st.integers(3, 7))))
    pairs = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds))))
    relation = {(a, b) for a, b in pairs | {("w0", "w0")} if b != "w1" and a != worlds[-1]}
    return worlds, relation, {atom: draw(st.sets(st.sampled_from(worlds)))
                              for atom in ("p", "q", "r_1")}


@settings(max_examples=200)
@given(models_with_dead_ends_loops_and_unreached_worlds(),
       st.lists(formula_specs, min_size=1, max_size=4))
def test_the_oracle_evaluator_agrees_with_the_naive_clauses_and_the_evaluator(parts, specs):
    worlds, relation, valuation = parts
    formulas = [build(spec) for spec in specs]
    extension = oracles.frozenset_extensions(worlds, relation, valuation, formulas)
    evaluator = Evaluator(KripkeModel(worlds, relation, valuation))
    for f in formulas:
        assert extension[f] == {w for w in worlds
                                if oracles.naive_satisfies(worlds, relation, valuation, w, f)}
        assert extension[f] == evaluator.extension(f)


# ---------------------------------------------------------------------------
# Kripke models: masks stored, pairs and name sets as views
# ---------------------------------------------------------------------------

MODEL = {"worlds": ("a", "b", "c"), "relation": {("a", "b"), ("b", "b"), ("c", "a")},
         "valuation": {"p": {"b", "c"}, "q": set(), "r": {"a"}}}


def test_a_model_stores_one_mask_per_world_and_per_atom():
    model = KripkeModel(**MODEL)
    assert model.successors == (0b010, 0b010, 0b001)
    assert model.atoms == {"p": 0b110, "r": 0b001}  # q is true nowhere
    assert model.relation == frozenset(MODEL["relation"])
    assert model.valuation == {"p": frozenset({"b", "c"}), "r": frozenset({"a"})}
    assert repr(KripkeModel(("a",), {("a", "a")}, {"p": {"a"}})) == (
        "KripkeModel(worlds=('a',), relation=frozenset({('a', 'a')}), "
        "valuation={'p': frozenset({'a'})})")


def masks_of(worlds, relation, valuation):
    """The successor and atom masks of pairs and name sets, bit j for worlds[j]."""
    bit = {w: 1 << j for j, w in enumerate(worlds)}
    successors = [sum(bit[b] for a, b in relation if a == w) for w in worlds]
    return successors, {atom: sum(bit[w] for w in ws) for atom, ws in valuation.items()}


@st.composite
def model_parts(draw):
    """Worlds, pairs and name sets with self-loops, isolated worlds and
    atoms true nowhere."""
    worlds = draw(st.lists(st.sampled_from(("a", "b", "w0", "w1", "w10")), min_size=1,
                           max_size=5, unique=True))
    relation = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds))))
    atoms = draw(st.lists(st.sampled_from(("p", "q", "r")), max_size=3, unique=True))
    return worlds, relation, {atom: draw(st.sets(st.sampled_from(worlds))) for atom in atoms}


@given(model_parts())
@example((["a", "b"], {("a", "a")}, {"p": set()}))
def test_pair_built_and_mask_built_models_are_equal_with_equal_views(parts):
    worlds, relation, valuation = parts
    by_pairs = KripkeModel(worlds, relation, valuation)
    by_masks = KripkeModel.from_masks(worlds, *masks_of(*parts))
    assert by_masks == by_pairs
    assert (by_masks.successors, by_masks.atoms) == (by_pairs.successors, by_pairs.atoms)
    held = {atom: frozenset(ws) for atom, ws in valuation.items() if ws}
    for model in (by_pairs, by_masks):
        assert (model.worlds, model.relation, model.valuation) == (
            tuple(worlds), frozenset(relation), held)


def test_a_generator_of_pairs_builds_the_model_of_the_set_it_yields():
    pairs = (list(pair) for pair in sorted(MODEL["relation"]))  # read once, lists as pairs
    model = KripkeModel(MODEL["worlds"], pairs, MODEL["valuation"])
    assert model == KripkeModel(**MODEL) and model.successors == (0b010, 0b010, 0b001)


def test_the_mask_constructor_checks_only_that_masks_stay_within_the_worlds():
    for successors, atoms in (((0b100, 0), {}), ((0, 0), {"p": 0b100}),
                              ((-1, 0), {}), ((0,), {})):
        with pytest.raises(ValueError, match="^masks outside the 2 worlds$"):
            KripkeModel.from_masks(("a", "b"), successors, atoms)
    # names are the caller's to check
    assert KripkeModel.from_masks(("a", "a"), (0, 0), {"P": 1}).atoms == {"P": 1}


def test_a_model_with_a_world_named_twice_or_an_edge_to_no_world_is_refused():
    with pytest.raises(ValueError, match="^duplicate world names$"):
        KripkeModel(("a", "b", "a"), (), {})
    with pytest.raises(ValueError, match=r"^relation endpoint outside the model: \(a, x\)$"):
        KripkeModel(("a",), [("a", "a"), ("a", "x")], {})


def test_a_valuation_naming_an_unknown_world_is_refused():
    with pytest.raises(ValueError, match=r"^valuation of 'p' names unknown worlds \['c', 'd'\]$"):
        KripkeModel(("a", "b"), (), {"q": {"a"}, "p": {"d", "b", "c"}})


def test_models_copy_and_pickle_as_equal_values():
    model = KripkeModel(**MODEL)
    quotient(model, formula_universe(("p",), 1))  # fills the model's memo
    for other in (copy.copy(model), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert type(other) is KripkeModel and other == model
        assert (other.relation, other.valuation) == (model.relation, model.valuation)
        assert "_quotients" not in vars(other)  # a copy starts with no quotient memo
    mc = to_modal_context(model, formula_universe(("p", "r"), 1))
    assert len(mc.world_names) == 3 and mc.relation  # the views are filled before copying
    for other in (copy.copy(mc), copy.deepcopy(mc), pickle.loads(pickle.dumps(mc))):
        assert type(other) is ModalContext and other == mc and hash(other) == hash(mc)
        assert (other.relation, other.rows) == (mc.relation, mc.rows)


@pytest.mark.parametrize("density", (0.0, 0.05, 0.3, 1.0))
def test_the_edge_count_is_the_relation_size(density):
    universe = formula_universe(("p", "q"), 1)
    for seed in range(10):
        model = gen_random_kripke(seed, 1 + seed * 3, ("p", "q"), density)
        assert model.edge_count() == len(model.relation)
        mc = to_modal_context(model, universe)  # its quotient context
        assert mc.edge_count() == len(mc.relation)


def test_equal_models_hash_equal_and_key_one_dict_entry():
    by_pairs = KripkeModel(**MODEL)
    quotient(by_pairs, formula_universe(("p",), 1))  # the memo takes no part in the hash
    by_masks = KripkeModel.from_masks(MODEL["worlds"], (0b010, 0b010, 0b001),
                                      {"r": 0b001, "p": 0b110})
    assert by_pairs == by_masks and hash(by_pairs) == hash(by_masks)
    keyed = {by_pairs: "pairs"}
    keyed[by_masks] = "masks"
    assert keyed == {by_pairs: "masks"}
    other = KripkeModel.from_masks(MODEL["worlds"], (0b010, 0b010, 0b001), {"p": 0b110})
    assert len({by_pairs, by_masks, other}) == 2


def test_model_pickles_load_under_another_hash_seed(ctxkit_src):
    # the atom dict and the views are rebuilt where the pickle is loaded
    check = (
        "import pickle, sys\n"
        "from ctxkit.modal_logic import KripkeModel\n"
        "got = pickle.loads(sys.stdin.buffer.read())\n"
        f"want = KripkeModel(**{MODEL!r})\n"
        "assert got == want, got\n"
        "assert (got.relation, got.valuation) == (want.relation, want.valuation)\n"
        "assert got.relation == {('a', 'b'), ('b', 'b'), ('c', 'a')}\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": ctxkit_src}
    result = subprocess.run([sys.executable, "-c", check],
                            input=pickle.dumps(KripkeModel(**MODEL)), env=env, capture_output=True)
    assert result.returncode == 0, result.stderr.decode()


# ---------------------------------------------------------------------------
# world theories
# ---------------------------------------------------------------------------

def test_theory_excluded_middle(two_world_model):
    universe = formula_universe(("p",), 0, cap=1)  # p, ~p, p & p, p -> p
    for world in two_world_model.worlds:
        theory = world_theory(two_world_model, world, universe)
        assert len(theory & {P, Not(P)}) == 1


def test_theory_of_terminal_world(two_world_model):
    universe = formula_universe(("p",), 1, cap=0)  # p, []p, <>p
    theory = world_theory(two_world_model, "w2", universe)
    assert P in theory and Box(P) in theory


def test_empty_relation_makes_all_boxes_true():
    model = KripkeModel(("a", "b"), frozenset(), {"p": frozenset({"a"})})
    universe = formula_universe(("p",), depth=1)
    boxes = {f for f in universe.members if isinstance(f, Box)}
    assert boxes
    for world in model.worlds:
        assert boxes <= world_theory(model, world, universe)


def test_theories_match_the_frozenset_extensions_on_the_acceptance_models():
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)]
    for seed in range(200):
        model = gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), (0.0, 0.3, 0.7, 1.0)[seed % 4])
        universe = universes[seed % 3]
        extension = oracles.frozenset_extensions(model.worlds, model.relation, model.valuation,
                                                 universe.members)
        for world in model.worlds:
            expected = frozenset(f for f in universe.members if world in extension[f])
            assert world_theory(model, world, universe) == expected, (seed, world)
    with pytest.raises(ValueError, match="unknown world 'nowhere'"):
        world_theory(model, "nowhere", universes[0])


def test_theory_monotone_in_universe():
    rng = random.Random(5566)
    small = formula_universe(("p", "q"), depth=1)
    large = formula_universe(("p", "q"), depth=2)
    in_small = set(small.members)
    assert in_small <= set(large.members)
    for _ in range(25):
        model = corpus.random_kripke(rng)
        parts = model.worlds, model.relation, model.valuation
        on_small = oracles.frozenset_extensions(*parts, small.members)
        on_large = oracles.frozenset_extensions(*parts, large.members)
        for world in model.worlds:
            t_small = {f for f in small.members if world in on_small[f]}
            t_large = {f for f in large.members if world in on_large[f]}
            assert t_small == t_large & in_small


# ---------------------------------------------------------------------------
# universes
# ---------------------------------------------------------------------------

def test_universe_is_subformula_closed():
    for depth in (0, 1, 2):
        universe = formula_universe(("p", "q"), depth=depth)
        members = set(universe.members)
        for f in members:
            assert oracles.subformulas(f) <= members


def test_universe_counts_grow_with_depth():
    sizes = [len(formula_universe(("p", "q"), depth=d)) for d in (0, 1, 2)]
    assert sizes[0] < sizes[1] < sizes[2]
    members0 = set(formula_universe(("p", "q"), depth=0).members)
    members1 = set(formula_universe(("p", "q"), depth=1).members)
    assert members0 <= members1


def test_universe_contains_expected_shapes():
    universe = formula_universe(("p", "q"), depth=2)
    for text in ("p", "~p", "p & []q", "[]p", "[]~p", "[][]p", "[]<>~q", "<>p -> q"):
        assert parse_formula(text) in universe
    assert parse_formula("[][][]p") not in universe  # depth 3
    assert parse_formula("<>p -> ~q") not in universe  # Boolean nesting 2 > cap


def test_universe_guard(monkeypatch):
    monkeypatch.setenv("CTXKIT_GUARD", "100")
    with pytest.raises(SizeGuardError) as err:
        formula_universe(("p", "q"), depth=2)
    assert str(err.value) == (
        "formula universe needs a guard of at least 3612; "
        "current guard is 100; set CTXKIT_GUARD to raise it"
    )
    # the figure is the universe's size here, and that guard suffices
    monkeypatch.setenv("CTXKIT_GUARD", "3612")
    assert len(formula_universe(("p", "q"), depth=2)) == 3612


def test_base_count_recurrence_matches_built_universes():
    for atoms in (("p",), ("p", "q"), ("p", "q", "r")):
        for cap in (0, 1):
            counts = list(_base_counts(len(atoms), 2, cap))
            for depth in (0, 1, 2):
                universe = formula_universe(atoms, depth, cap=cap)
                built = sum(isinstance(f, (Atom, Box, Diamond)) for f in universe.members)
                assert counts[depth] == built, (atoms, cap, depth)


def test_universe_guard_fires_before_any_node_is_built(monkeypatch):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    nodes = len(modal_logic._NODES)
    with pytest.raises(SizeGuardError) as err:
        formula_universe(("p", "q"), depth=40)
    assert str(err.value) == (
        "formula universe needs a guard of at least 174762; "
        "current guard is 50000; set CTXKIT_GUARD to raise it"
    )
    with pytest.raises(SizeGuardError):  # the counts stop at the first one too large
        formula_universe(("p", "q"), depth=10**6)
    assert len(modal_logic._NODES) == nodes


def test_a_later_boolean_round_is_refused_on_its_exact_size(monkeypatch):
    # the second round over the 60 members of (p, depth 1, cap 1) adds
    # 60 - 5 negations and 2 * (60 ** 2 - 5 ** 2) pairs: 7,265 members
    for guard in (3000, 7264):
        monkeypatch.setenv("CTXKIT_GUARD", str(guard))
        with pytest.raises(SizeGuardError) as err:
            formula_universe(("p",), 1, cap=2)
        assert str(err.value) == (
            f"formula universe needs a guard of at least 7265; "
            f"current guard is {guard}; set CTXKIT_GUARD to raise it"
        )
    monkeypatch.setenv("CTXKIT_GUARD", "7265")
    assert len(formula_universe(("p",), 1, cap=2)) == 7265


def test_every_universe_reads_the_guard(monkeypatch):
    monkeypatch.setenv("CTXKIT_GUARD", "abc")
    with pytest.raises(ValueError, match="^CTXKIT_GUARD must be a decimal integer of at most "
                                         "4300 digits, got 'abc'$"):
        formula_universe(("p",), 0, cap=0)
    monkeypatch.setenv("CTXKIT_GUARD", "1")
    with pytest.raises(SizeGuardError, match="^formula universe needs a guard of at least 2;"):
        formula_universe(("p", "q"), 0, cap=0)
    assert len(formula_universe(("p",), 0, cap=0)) == 1


def test_a_negative_cap_is_refused():
    with pytest.raises(ValueError, match="^cap must be non-negative$"):
        formula_universe(("p",), 1, cap=-1)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(st.sampled_from(("p", "q", "r", "s_1", "zz")), min_size=1, max_size=3,
                   unique=True),
    depth=st.integers(0, 2),
    cap=st.integers(0, 2),
    guard=st.sampled_from((40, 400, 4000)),
)
@example(atoms=["p", "q"], depth=1, cap=1, guard=4000)
@example(atoms=["p"], depth=2, cap=2, guard=4000)
def test_member_table_matches_the_node_and_sort_reference(atoms, depth, cap, guard):
    def outcome(build):
        # plain data only: a kept exception would keep its frames' nodes alive
        try:
            return build()
        except ValueError as exc:
            return type(exc).__name__, str(exc)

    # monkeypatch is function-scoped, so each example sets the guard here
    with mock.patch.dict(os.environ, {"CTXKIT_GUARD": str(guard)}):
        expected = outcome(lambda: tuple(oracles.reference_universe(atoms, depth, cap)))
        universe = outcome(lambda: formula_universe(atoms, depth, cap=cap))
    if not isinstance(universe, FormulaUniverse):
        assert universe == expected
        return
    assert universe.texts == tuple(print_formula(f) for f in expected)
    assert universe.members == expected
    for i, f in enumerate(expected):
        assert universe.kinds[i] is type(f)
        if type(f) is Atom:
            assert universe.args[i] == f.name
        else:
            assert tuple(expected[k] for k in universe.args[i]) == f.children


def test_universes_compare_and_hash_without_building_nodes(monkeypatch):
    built = []
    intern = modal_logic._intern
    monkeypatch.setattr(modal_logic, "_intern",
                        lambda node, key, *rest: built.append(key) or intern(node, key, *rest))
    a = formula_universe(("nodeless_p", "nodeless_q"), depth=1)
    b = formula_universe(("nodeless_p", "nodeless_q"), depth=1)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != formula_universe(("nodeless_p", "nodeless_q"), depth=1, cap=0)
    assert a != formula_universe(("nodeless_q", "nodeless_p"), depth=1)
    assert "nodeless_p -> []nodeless_q" in a.texts
    assert built == []
    assert len(a.members) == len(a) == 220 and len(built) == 220


def test_a_universe_takes_no_member_table():
    # a table the header does not define would render a file that does not load
    with pytest.raises(TypeError):
        FormulaUniverse(("p",), 0, 0, (Atom, Or), ("p", (0, 0)), ("p", "p | p"))


def test_universe_canonical_order_is_stable():
    a = formula_universe(("p", "q"), depth=1)
    b = formula_universe(("p", "q"), depth=1)
    assert a.members == b.members
    rendering = [print_formula(f) for f in a.members]
    assert rendering == sorted(rendering, key=lambda s: (len(s), s)) or rendering


def test_universe_rejects_bad_inputs():
    with pytest.raises(ValueError):
        formula_universe((), depth=1)
    with pytest.raises(ValueError):
        formula_universe(("P",), depth=1)
    with pytest.raises(ValueError):
        formula_universe(("p", "p"), depth=1)
    with pytest.raises(ValueError):
        formula_universe(("p",), depth=-1)


# ---------------------------------------------------------------------------
# modal operator laws
# ---------------------------------------------------------------------------

def test_box_never_collapses():
    universe = formula_universe(("p", "q"), depth=1)
    for f in universe.members:
        assert Box(f) != f
        assert Box(Box(f)) != Box(f)


def test_box_images_pairwise_distinct():
    universe = formula_universe(("p", "q"), depth=1)
    images = {Box(f) for f in universe.members}
    assert len(images) == len(universe.members)
