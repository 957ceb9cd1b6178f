"""Walkthrough: contexts, consistency filtering, determinability, iterators.

Run: python demos/consistency_and_determinability.py
"""

from ctxkit import (
    consistency_context,
    extract_iterator,
    gen_alice_bob,
    gen_alice_bob_odd,
    gen_minigame,
    generate_from_iterator,
    is_determinable,
    render_iterator_map,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("Alice and Bob: a context defined by restriction")
alice = gen_alice_bob(3)
print(f"All timelines over horizon 3: 2^6 = 64")
print(f"Surviving 'Bob home => Alice home an hour later': {len(alice)}")
odd = gen_alice_bob_odd(3)
print(f"Additionally 'Bob home at odd hours': {len(odd)}")

banner("Consistency contexts: what a prefix still allows")
some = alice.instances[7]
print("Reference timeline:")
for e in ("Alice", "Bob"):
    print(f"  {e}: " + " ".join(some.value(e, t) for t in ("0", "1", "2")))
for t in ("0", "1", "2"):
    cc = consistency_context(alice, some, t)
    print(f"Agreeing with it up to t={t}: {len(cc)} timeline(s)")

banner("Determinability: literal vs windowed")
for mode in ("literal", "windowed"):
    report = is_determinable(alice, mode)
    print(f"{mode:9s}: {'yes' if report.determinable else 'no'}")
lit = is_determinable(alice, "literal")
w = lit.witness
print(
    f"The literal witness repeats snapshot {w.snapshot().render()} "
    f"at t={w.time} and t={w.other_time}: unequal suffix lengths, "
    "no monotone bijection."
)

banner("Iterators: the step function of a determinable context")
iterator = extract_iterator(alice)  # determinable, so the map and not a conflict
print("Alice/Bob iterator (snapshot -> next snapshots):")
print(render_iterator_map(iterator))

print("Unrolling the iterator from its initial snapshots reproduces")
regenerated = generate_from_iterator(
    iterator,
    {inst.snapshot("0") for inst in alice},
    horizon=3,
)
print(f"a context of {len(regenerated)} timelines (original had {len(alice)}).")

banner("The mini-game: why states must carry turn information")
base, tracked = gen_minigame()
base_report = is_determinable(base, "windowed")
print(f"Positions only : determinable = {base_report.determinable}")
bw = base_report.witness
print(
    f"  same position {bw.snapshot().render()} at t={bw.time} and "
    f"t={bw.other_time}: different players move next, futures differ"
)
tracked_report = is_determinable(tracked, "windowed")
print(f"With a turn bit: determinable = {tracked_report.determinable}")
