"""Exhaustive small scopes: every nonempty context over two small signatures,
and every Kripke model over a few worlds.

The differentials elsewhere sample their inputs. Here every input below a
bound is tried, so "no counterexample found" reads "none exists in this
scope" (the small scope hypothesis: Jackson, *Software Abstractions*, 2006;
Andoni, Daniliuc, Khurshid & Marinov, 2002).

The context scopes are 2 states, 1 entity, 3 times (8 rows, 255 contexts)
and 3 states, 1 entity, 2 times (9 rows, 511 contexts): 766 contexts, each
compared with the oracles on both modes' verdicts and witnesses, the
iterator map or conflict, determinism, and the `.ctx` round trip.

The Kripke scopes are every model with 2 worlds over p,q (256 models) and
with 2 worlds over p (64 models), at depth 1. Each model's quotient context
is compared with the full-theory quotient oracle, goes through the `.kr` and
`.mctx` round trips (the latter through both loaders), and must pass all
four checks. The "no" side comes from the 2-world p scope: every copy of
each distinct quotient context with one stored bit flipped, or one context
edge added or removed, is checked against the frozenset violations and the
second quotient, and prover agreement is compared with the by-hand loop on
the model with one valuation bit flipped. Larger scopes run in
`tests/small_scope.py --wide`.
"""

from itertools import combinations, product

import oracles
from ctxkit.core import Context, Signature
from ctxkit.formats import (
    parse_context,
    parse_kripke,
    parse_modal_context,
    render_context,
    render_kripke,
    render_modal_context,
)
from ctxkit.modal_context import (
    ModalContext,
    is_modal_context,
    prover_agreement,
    requotient_is_identity,
    to_modal_context,
    verify_representation,
)
from ctxkit.modal_logic import KripkeModel, formula_universe
from test_determinability import (
    assert_iterator_and_determinism_match_oracles,
    assert_matches_oracles,
)
from test_modal_context import by_hand_agreement, described, theories_of

SCOPES = (
    Signature(("s0", "s1"), ("e0",), ("0", "1", "2")),
    Signature(("s0", "s1", "s2"), ("e0",), ("0", "1")),
)


def every_context(sig, sizes=None):
    """Each nonempty set of rows over the signature, as a context, or each
    set of one of the given sizes."""
    rows = list(product(range(len(sig.states)), repeat=sig.cell_count()))
    for size in range(1, len(rows) + 1) if sizes is None else sizes:
        for chosen in combinations(rows, size):
            yield Context.from_rows(sig, chosen)


def check_context(ctx):
    """The context agrees with the oracles and survives the `.ctx` round trip."""
    for mode in ("literal", "windowed"):
        assert_matches_oracles(ctx, mode)
    assert_iterator_and_determinism_match_oracles(ctx)
    text = render_context(ctx)
    assert parse_context(text).context == ctx
    read_sig, kept, _, _ = oracles.parse_context_tokenwise(text)
    assert read_sig == ctx.signature and kept == [inst.cells for inst in ctx.instances]


def test_every_context_in_the_small_scopes_agrees_with_the_oracles():
    seen = 0
    for sig in SCOPES:
        for ctx in every_context(sig):
            check_context(ctx)
            seen += 1
    assert seen == 255 + 511


def every_model(worlds, atoms, relations=None):
    """(worlds, relation, valuation) of each model over `worlds` worlds: every
    relation, or those whose edge masks are in `relations` (bit k for the
    k-th pair in row-major order), and every set of worlds for each atom."""
    names = tuple(f"w{j}" for j in range(worlds))
    pairs = [(a, b) for a in names for b in names]
    for edges in range(1 << len(pairs)) if relations is None else relations:
        relation = frozenset(pair for k, pair in enumerate(pairs) if edges >> k & 1)
        for marks in product(range(1 << worlds), repeat=len(atoms)):
            valuation = {atom: frozenset(w for j, w in enumerate(names) if mark >> j & 1)
                         for atom, mark in zip(atoms, marks)}
            yield names, relation, valuation


def check_model(worlds, relation, valuation, universe):
    """The model's quotient context against the oracles, its round trips and
    its four checks; returns the model and the context."""
    model = KripkeModel(worlds, relation, valuation)
    mc = to_modal_context(model, universe)
    classes = oracles.full_theory_quotient(worlds, relation, valuation, universe.members)
    names = tuple(f"c{k}" for k in range(len(classes)))
    class_of = {w: name for name, (ws, _) in zip(names, classes) for w in ws}
    theories = {name: theory for name, (_, theory) in zip(names, classes)}
    lifted = {(class_of[a], class_of[b]) for a, b in relation}
    assert mc == oracles.modal_context_of(names, theories, lifted, universe)
    text = render_kripke(model)
    assert parse_kripke(text) == model
    assert oracles.reference_parse_kripke(text) == (
        worlds, relation, {atom: ws for atom, ws in valuation.items() if ws})
    text = render_modal_context(mc)
    assert parse_modal_context(text) == mc
    assert oracles.reference_parse_modal_context(text) == mc
    violations = is_modal_context(mc)
    assert not violations
    assert verify_representation(model, mc)
    assert prover_agreement(model, mc)
    assert requotient_is_identity(mc)
    return model, mc


def flipped_copies(mc):
    """Each copy of mc that `from_masks` accepts with one stored bit flipped,
    or with one context edge added or removed."""
    count = len(mc.world_names)
    columns, successors = list(mc.columns), list(mc.successors)
    flips = [(columns, i, j) for i in range(len(columns)) for j in range(count)]
    flips += [(successors, a, b) for a in range(count) for b in range(count)]
    for masks, i, j in flips:
        masks[i] ^= 1 << j
        try:
            copy = ModalContext.from_masks(mc.world_names, columns, successors, mc.universe)
        except ValueError as exc:  # the flip made two worlds equal
            assert "equal as functions" in str(exc)
        else:
            yield copy
        masks[i] ^= 1 << j


def flipped_models(model, atoms):
    """The model with one world's membership in one of the atoms flipped, for
    each world and each atom."""
    for atom, j in product(atoms, range(len(model.worlds))):
        masks = dict(model.atoms)
        masks[atom] = masks.get(atom, 0) ^ 1 << j
        yield KripkeModel.from_masks(model.worlds, model.successors, masks)


def answer_or_error(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def check_flipped(model, mc):
    """The "no" side: the flipped copies of a quotient context against the
    frozenset violations and the second quotient, and prover agreement on
    each flipped model against the by-hand loop; returns the counts of
    copies, violating copies, requotient "no"s and refused provers."""
    copies = violating = noes = refused = 0
    members = mc.universe.members
    for copy in flipped_copies(mc):
        expected = oracles.frozenset_violations(
            copy.world_names, theories_of(copy), copy.relation, members)
        violations = is_modal_context(copy)
        assert described(violations) == expected, render_modal_context(copy)
        answer = oracles.reference_requotient(copy)
        assert requotient_is_identity(copy) == answer, render_modal_context(copy)
        copies, violating, noes = copies + 1, violating + bool(expected), noes + (not answer)
    for flipped in flipped_models(model, mc.universe.atoms):
        answer = answer_or_error(by_hand_agreement, flipped, mc)
        assert answer_or_error(prover_agreement, flipped, mc) == answer, render_kripke(flipped)
        refused += isinstance(answer, str)
    return copies, violating, noes, refused


def distinct_quotients(checked):
    """The first (model, context) pair for each distinct quotient context."""
    first = {}
    for model, mc in checked:
        first.setdefault((mc.world_names, mc.columns, mc.successors), (model, mc))
    return list(first.values())


def test_every_kripke_model_in_the_small_scopes_agrees_with_the_oracles():
    universe = formula_universe(("p", "q"), depth=1)
    assert len([check_model(*model, universe) for model in every_model(2, ("p", "q"))]) == 256
    universe = formula_universe(("p",), depth=1)
    checked = [check_model(*model, universe) for model in every_model(2, ("p",))]
    assert len(checked) == 64
    totals = [0, 0, 0, 0]
    for model, mc in distinct_quotients(checked):
        totals = [a + b for a, b in zip(totals, check_flipped(model, mc))]
    copies, violating, noes, refused = totals
    assert violating > 0 and noes > 0 and refused > 0 and copies > violating
