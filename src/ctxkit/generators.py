"""Reproducible example and corpus generators.

Everything here is a pure function of its arguments (plus the seed where one
is taken): same inputs, byte-identical artifacts, on every platform.
"""

from __future__ import annotations

import random
from typing import Sequence

from ctxkit import modal_logic
from ctxkit.core import DEFAULT_SPACE_GUARD, Context, Signature, check_full_space_guard, check_guard


def gen_alice_bob(horizon: int) -> Context:
    """Two flatmates over `horizon` hours, states Home/Out, one house rule:
    whenever Bob is at home, Alice is at home an hour later.

    The context is generated by the step rule: each hour extends every legal
    timeline so far by the choices the rule allows, so the cost is in the
    legal timelines, not in the 4^horizon full space. The guard still
    applies to the full space, exactly as if it were filtered.
    """
    return _alice_bob(horizon, odd=False)


def gen_alice_bob_odd(horizon: int) -> Context:
    """gen_alice_bob additionally requiring Bob to be home at every odd hour."""
    return _alice_bob(horizon, odd=True)


def _alice_bob(horizon: int, odd: bool) -> Context:
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    check_full_space_guard(2, 2, horizon)
    sig = Signature(
        ("Home", "Out"),
        ("Alice", "Bob"),
        tuple(str(t) for t in range(horizon)),
    )
    home, out = 0, 1  # state indices
    both = (home, out)
    rows = [((), ())]  # (Alice's states so far, Bob's states so far)
    for t in range(horizon):
        bob_choices = (home,) if odd and t % 2 else both
        rows = [
            (alice + (a,), bob + (b,))
            for alice, bob in rows
            for a in ((home,) if t and bob[-1] == home else both)
            for b in bob_choices
        ]
    return Context.from_rows(sig, [alice + bob for alice, bob in rows])


# ---------------------------------------------------------------------------
# the mini-game: turn information and determinability
# ---------------------------------------------------------------------------
#
# Rules (fixed, and pinned by the tests):
#   * board: 2x2 grid, cells c00 c01 c10 c11 (row, column);
#   * two tokens, P1 starting on c00 and P2 on c11; tokens may share a cell;
#   * four observed times 0..3, one move between consecutive times;
#   * turns alternate starting with P1, so P1 acts on steps 0->1 and 2->3
#     and P2 acts on step 1->2;
#   * the acting player either stays put or steps to an orthogonally
#     adjacent cell; the idle token does not move.
#
# base encoding: the state of a token is its cell. The same board position
# can then occur on different players' turns, and the futures differ, which
# breaks determinability.
#
# turn_tracked encoding: each token's state is cell:bit, bit 1 iff its owner
# acts next. The bit alternates as turns progress, snapshots now reveal the
# mover, and determinability is restored.

_CELLS = ("c00", "c01", "c10", "c11")
_ADJACENT = {
    "c00": ("c01", "c10"),
    "c01": ("c00", "c11"),
    "c10": ("c00", "c11"),
    "c11": ("c01", "c10"),
}
MINIGAME_HORIZON = 4


def _minigame_moves(cell: str) -> tuple[str, ...]:
    return (cell,) + _ADJACENT[cell]


def _minigame_position_rows() -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """(P1 positions, P2 positions) over times 0..3 for every legal play."""
    rows = []
    for move1 in _minigame_moves("c00"):        # P1, step 0 -> 1
        for move2 in _minigame_moves("c11"):    # P2, step 1 -> 2
            for move3 in _minigame_moves(move1):  # P1, step 2 -> 3
                rows.append(
                    (("c00", move1, move1, move3), ("c11", "c11", move2, move2))
                )
    return rows


def _turn_bit(player: int, t: int) -> int:
    # P1 (player 0) acts on even steps, P2 on odd ones
    return 1 if t % 2 == player else 0


def gen_minigame() -> tuple[Context, Context]:
    """The alternating-move token game, encoded twice: (base, turn_tracked)."""
    times = tuple(str(t) for t in range(MINIGAME_HORIZON))
    entities = ("P1", "P2")
    plays = _minigame_position_rows()
    cell = {c: i for i, c in enumerate(_CELLS)}

    base = Context.from_rows(
        Signature(_CELLS, entities, times),
        [tuple(cell[c] for c in p1 + p2) for p1, p2 in plays],
    )
    # state cell:bit has index 2 * (index of cell) + bit
    tracked_states = tuple(f"{c}:{b}" for c in _CELLS for b in (0, 1))
    turn_tracked = Context.from_rows(
        Signature(tracked_states, entities, times),
        [
            tuple(
                2 * cell[c] + _turn_bit(player, t)
                for player, cells in enumerate((p1, p2))
                for t, c in enumerate(cells)
            )
            for p1, p2 in plays
        ],
    )
    return base, turn_tracked


# ---------------------------------------------------------------------------
# seeded random corpora
# ---------------------------------------------------------------------------

def gen_random_context(
    seed: int, n_states: int, n_entities: int, n_times: int, count: int
) -> Context:
    """Uniform cellwise sampling of `count` instances; duplicates collapse.

    The count x cells draws, then the signature's labels, are checked against
    the full-space guard first. Every cell, row by row, is drawn as
    `random.Random(seed).randrange(n_states)` draws it on CPython 3.10-3.13:
    getrandbits of the bit length of n_states, again while the value is out of
    range. One C call per draw gives the same stream, so the files keep their
    bytes."""
    if min(n_states, n_entities, n_times) < 1:
        raise ValueError("state, entity, and time counts must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    check_guard(count * n_entities * n_times, DEFAULT_SPACE_GUARD, "random context draws")
    check_guard(n_states + n_entities + n_times, DEFAULT_SPACE_GUARD,
                "random context signature")
    sig = Signature(
        tuple(f"s{i}" for i in range(n_states)),
        tuple(f"e{i}" for i in range(n_entities)),
        tuple(str(i) for i in range(n_times)),
    )
    draw, k, cells = random.Random(seed).getrandbits, n_states.bit_length(), []
    for _ in range(count * sig.cell_count()):
        i = draw(k)
        while i >= n_states:
            i = draw(k)
        cells.append(i)
    return Context.from_rows(sig, zip(*[iter(cells)] * sig.cell_count()))  # rows of the cells


def gen_random_kripke(
    seed: int, n_worlds: int, atoms: Sequence[str], edge_density: float
) -> modal_logic.KripkeModel:
    """Each ordered world pair becomes an edge with probability edge_density;
    each (atom, world) pair is valuated true with probability one half.

    The atoms are checked as a universe checks them, so no atom is drawn
    twice, and the worlds x worlds edge draws are checked against the
    full-space guard first."""
    if n_worlds < 1:
        raise ValueError("at least one world is required")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must lie in [0, 1]")
    atoms = modal_logic.check_atoms(atoms)
    check_guard(n_worlds * n_worlds, DEFAULT_SPACE_GUARD, "random Kripke model")
    rng, bits = random.Random(seed), [1 << j for j in range(n_worlds)]  # world j's bit
    successors = [sum([b for b in bits if rng.random() < edge_density]) for _ in bits]
    valuation = {atom: sum([b for b in bits if rng.random() < 0.5]) for atom in atoms}
    worlds = [f"w{i}" for i in range(n_worlds)]
    return modal_logic.KripkeModel.from_masks(worlds, successors, valuation)
