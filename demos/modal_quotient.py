"""Walkthrough: from a Kripke model to a checked modal context.

Run: python demos/modal_quotient.py
"""

from ctxkit import (
    KripkeModel,
    class_world_map,
    formula_universe,
    is_modal_context,
    parse_formula,
    print_formula,
    prove_in_context,
    quotient,
    render_modal_context,
    satisfies,
    to_modal_context,
    verify_representation,
    world_theory,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


# a five-world model with two indistinguishable worlds (d and e)
model = KripkeModel(
    worlds=("a", "b", "c", "d", "e"),
    relation=frozenset({("a", "b"), ("a", "c"), ("b", "c"), ("d", "c"), ("e", "c")}),
    valuation={"p": frozenset({"b", "c"}), "q": frozenset({"c"})},
)

banner("A Kripke model and a finite formula universe")
universe = formula_universe(("p", "q"), depth=2)
print(f"Universe: atoms p,q, modal depth <= 2, {len(universe)} formulas")
for text in ("<>p", "[](p -> q)", "<>[]q"):
    f = parse_formula(text)
    holds = [w for w in model.worlds if satisfies(model, w, f)]
    print(f"  {text:12s} holds at: {', '.join(holds) if holds else '(nowhere)'}")

banner("World theories and the quotient")
for w in model.worlds:
    theory = world_theory(model, w, universe)
    print(f"theory({w}) has {len(theory)} formulas")
classes = quotient(model, universe)
print("Classes (worlds indistinguishable over the universe):")
for cls in classes:
    print(f"  [{min(cls)}] = {{{', '.join(sorted(cls))}}}")

banner("The modal context")
mc = to_modal_context(model, universe)
print(f"{len(model.worlds)} worlds collapsed to {len(mc.world_names)} context worlds")
print(f"Lifted relation: {sorted(mc.relation)}")
violations = is_modal_context(mc)
print(f"Box/diamond membership conditions hold: {not violations}")
print(f"Every world's theory is represented: {verify_representation(model, mc)}")

banner("Proving by membership")
names = class_world_map(model, mc)
for text in ("p & <>q", "[]p", "<>[]q"):
    f = parse_formula(text)
    for w in ("a", "d"):
        by_membership = prove_in_context(mc, names[w], f)
        by_semantics = satisfies(model, w, f)
        assert by_membership == by_semantics
        print(
            f"  {w} |= {print_formula(f):10s} membership={by_membership} "
            f"satisfaction={by_semantics}"
        )

banner("Serialized (first lines)")
for line in render_modal_context(mc).splitlines()[:8]:
    print(line)
print("...")
