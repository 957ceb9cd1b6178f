"""Compiling Kripke models into modal contexts and checking them.

One table shape runs the whole pipeline: a column per universe member, in
the universe's canonical member order, each an int mask over some worlds.
`extension_table` fills it over the model's worlds in one forward pass over
the member rows, reading kinds and child rows, never formula nodes. Worlds
with equal rows across the table have equal theories, and each such class
becomes a context world; its bit in every column is the bit of any of its
worlds, and each model edge, mapped through world -> class, relates two
context worlds. That is the smallest filtration of the model through the
subformula-closed universe (Blackburn, de Rijke & Venema, Modal Logic, CUP
2001, section 2.3). A `ModalContext` is those class columns, the class
names and the lifted relation. It must satisfy the box/diamond membership
biconditionals against its relation, and must represent every original
world by theory; both facts are re-checked here, on the columns, rather
than assumed.

Each kind's mask rule is written once, in `_rule`. The table applies it to
its own growing columns, the modal check to a context's stored []/<>
members, and the requotient check to every stored member.

The paper's power context indexes formula sets by (entity, time) cells; the
construction uses a single cell, so a context stores one formula set per
world, and reports name that cell as (0,0).

Rows and columns convert into each other by byte-wise transposition
(`_rows`, `_columns`): a world's row is a bytes object with one 0/1 byte per
member, so equal theories are equal rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from ctxkit.core import check_guard
from ctxkit.modal_logic import (
    And,
    Atom,
    Box,
    Diamond,
    Evaluator,
    Formula,
    FormulaUniverse,
    Implies,
    KripkeModel,
    Not,
    check_relation,
    check_world_name,
    print_formula,
)

DEFAULT_TABLE_GUARD = 1 << 24  # universe members x model worlds of one extension table


@dataclass(frozen=True)
class WorldClass:
    """One theory-equivalence class of Kripke worlds, represented by its smallest name."""

    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValueError("a world class cannot be empty")

    @property
    def representative(self) -> str:
        return min(self.members)


# byte value -> its bit b, as a byte 0 or 1: one translation table per bit
_BIT = [bytes([value >> b & 1 for value in range(256)]) for b in range(8)]


def _rows(column: Sequence[int], count: int) -> list[bytes]:
    """Each of count worlds' rows under a column table: byte i is 1 when
    member i's mask has the world's bit, else 0. Every mask is written as
    little-endian bytes, one after another; a strided slice takes one byte
    plane (eight worlds) of every member, and each plane is translated once
    per world."""
    width = (count + 7) // 8
    data = b"".join([mask.to_bytes(width, "little") for mask in column])
    rows: list[bytes] = []
    for k in range(width):
        plane = data[k::width]
        rows += [plane.translate(_BIT[b]) for b in range(min(8, count - 8 * k))]
    return rows


def _columns(rows: Sequence[bytes], count: int) -> tuple[int, ...]:
    """The column table of rows over count members: `_rows` inverted. Read
    as base-256 numbers, eight rows shifted by their bit and added carry
    into no byte, so one sum holds eight worlds' bits of every member."""
    columns = [0] * count
    for low in range(0, len(rows), 8):
        plane = 0
        for b, row in enumerate(rows[low : low + 8]):
            plane += int.from_bytes(row, "little") << b
        columns = [c | bits << low for c, bits in zip(columns, plane.to_bytes(count, "little"))]
    return tuple(columns)


@dataclass(frozen=True)
class ModalContext:
    """A finite modal context: named worlds, the formulas each stores, and a
    relation between the worlds.

    Stored column-wise, in the shape of `extension_table`: one int mask per
    universe member, in member order, with bit j set when world_names[j]
    stores the member. `rows` and `theory_at` are views of the columns.
    """

    world_names: tuple[str, ...]
    columns: tuple[int, ...]
    relation: frozenset[tuple[str, str]]
    universe: FormulaUniverse

    def __post_init__(self):
        names, columns = tuple(self.world_names), tuple(self.columns)
        _set = object.__setattr__
        _set(self, "world_names", names)
        _set(self, "columns", columns)
        _set(self, "relation", frozenset(tuple(p) for p in self.relation))
        if len(set(names)) != len(names):
            raise ValueError("duplicate context-world names")
        for name in names:
            check_world_name(name)
        if len(columns) != len(self.universe):
            raise ValueError(f"{len(columns)} columns for {len(self.universe)} members")
        if columns and (min(columns) < 0 or max(columns) >> len(names)):
            raise ValueError("a column has bits outside the named worlds")
        first_with: dict[bytes, int] = {}
        equal = []  # (i, j): world j has the row world i was first to have
        for j, row in enumerate(self.rows):
            i = first_with.setdefault(row, j)
            if i != j:
                equal.append((i, j))
        if equal:  # the pair a scan over all pairs in name order meets first
            i, j = min(equal)
            raise ValueError(f"worlds {names[i]!r} and {names[j]!r} are equal as functions")
        check_relation(set(names), self.relation, "context")

    @cached_property
    def rows(self) -> list[bytes]:
        """Each world's row, in world order: byte i is 1 when the world
        stores member i, else 0."""
        return _rows(self.columns, len(self.world_names))

    @cached_property
    def _position(self) -> dict[str, int]:
        """World name -> its bit position."""
        return {w: j for j, w in enumerate(self.world_names)}

    @cached_property
    def _successor_masks(self) -> list[tuple[int, int]]:
        """(world bit, successor mask) per world, in world order."""
        return _successor_pairs(self.world_names, self.relation)

    def _world_index(self, name: str) -> int:
        """The world's bit position; a name outside the context is refused."""
        j = self._position.get(name)
        if j is None:
            raise ValueError(f"unknown context world {name!r}")
        return j

    def theory_at(self, name: str) -> frozenset[Formula]:
        """The formulas the world stores."""
        return frozenset(compress(self.universe.members, self.rows[self._world_index(name)]))


def _successor_pairs(names: Sequence[str], relation: frozenset) -> list[tuple[int, int]]:
    """(world bit, successor mask) per world, in the order of names, from one
    pass over the relation: the same pairs for a model and a context."""
    index = {w: j for j, w in enumerate(names)}
    masks = [0] * len(index)
    for a, b in relation:
        masks[index[a]] |= 1 << index[b]
    return [(1 << j, mask) for j, mask in enumerate(masks)]


def _rule(kind, arg, masks: Sequence[int], everywhere: int,
          successors: list[tuple[int, int]], atoms: dict[str, int]) -> int:
    """A member's mask from its children's masks (masks[c] for each child
    row c in arg), or an atom's from atoms; []/<> read per-world successor
    masks, and everywhere is the mask of all worlds. A universe holds six
    kinds, atoms and `~ & -> [] <>`, so a member that is none of the first
    five is an atom."""
    if kind is And:  # the two kinds most members have come first
        return masks[arg[0]] & masks[arg[1]]
    if kind is Implies:
        return (everywhere ^ masks[arg[0]]) | masks[arg[1]]
    if kind is Box:  # the worlds all of whose successors are in the operand
        inner = masks[arg[0]]
        return sum([bit for bit, succ in successors if succ & inner == succ])
    if kind is Diamond:  # the worlds some of whose successors are in the operand
        inner = masks[arg[0]]
        return sum([bit for bit, succ in successors if succ & inner])
    if kind is Not:
        return everywhere ^ masks[arg[0]]
    return atoms.get(arg, 0)


def extension_table(model: KripkeModel, universe: FormulaUniverse) -> list[int]:
    """Each universe member's extension as an int bitmask over the model's
    worlds, in member order: bit i is set when model.worlds[i] satisfies the
    member.

    One forward pass of `_rule` over the member rows fills it, because the
    canonical order puts every child row before its parent. A table of more
    members x worlds than the guard (`DEFAULT_TABLE_GUARD`, or
    `CTXKIT_GUARD`) is refused before it is built.
    """
    check_guard(
        len(universe) * len(model.worlds), DEFAULT_TABLE_GUARD,
        f"extension table of {len(universe)} members over {len(model.worlds)} worlds",
    )
    bit = {w: 1 << i for i, w in enumerate(model.worlds)}
    everywhere = (1 << len(bit)) - 1
    successors = _successor_pairs(model.worlds, model.relation)
    atoms = {a: sum([bit[w] for w in ws]) for a, ws in model.valuation.items()}
    table: list[int] = []
    for kind, arg in zip(universe.kinds, universe.args):
        table.append(_rule(kind, arg, table, everywhere, successors, atoms))
    return table


class _Quotient(NamedTuple):
    """A model's theory classes over a universe, ordered by representative."""

    worlds: tuple[tuple[str, ...], ...]  # each class's worlds, in model order
    rows: tuple[bytes, ...]  # each class's theory row
    columns: tuple[int, ...]  # each member's mask over the classes


def _classes(model: KripkeModel, universe: FormulaUniverse) -> _Quotient:
    """The theory classes of the model's worlds over the universe.

    Computed once per (model, universe) and kept on the model, so every
    function below that quotients the same model reads the same classes.
    """
    memo = model._quotients
    classes = memo.get(universe)
    if classes is None:
        classes = memo[universe] = _filtration(model, universe)
    return classes


def _filtration(model: KripkeModel, universe: FormulaUniverse) -> _Quotient:
    """The classes `_classes` returns, from one extension table.

    Worlds are grouped by their rows of the table, which are their theories
    over the universe. By the filtration lemma (Blackburn, de Rijke & Venema,
    section 2.3) the classes, related through the model's edges, are the
    smallest filtration through the subformula-closed universe and keep the
    truth of every member. A class's row is the row of any of its worlds, and
    transposing the class rows gives the class columns.
    """
    worlds = model.worlds
    groups: dict[bytes, list[str]] = {}
    for world, row in zip(worlds, _rows(extension_table(model, universe), len(worlds))):
        groups.setdefault(row, []).append(world)
    classes = sorted((min(ws), tuple(ws), row) for row, ws in groups.items())
    rows = tuple([row for _, _, row in classes])
    return _Quotient(tuple([ws for _, ws, _ in classes]), rows, _columns(rows, len(universe)))


def quotient(model: KripkeModel, universe: FormulaUniverse) -> tuple[WorldClass, ...]:
    """Partition the worlds by equality of their theories over the universe."""
    return tuple(WorldClass(frozenset(ws)) for ws in _classes(model, universe).worlds)


def to_modal_context(model: KripkeModel, universe: FormulaUniverse) -> ModalContext:
    """Build the quotient modal context of a Kripke model.

    Context worlds are named c0, c1, ... in class order (classes ordered by
    representative), each storing its class theory: the class columns are
    the context's columns. Two context worlds are related iff some members
    of their classes are.
    """
    classes = _classes(model, universe)
    names = tuple(f"c{k}" for k in range(len(classes.worlds)))
    name_of = {w: name for name, worlds in zip(names, classes.worlds) for w in worlds}
    relation = frozenset((name_of[a], name_of[b]) for a, b in model.relation)
    return ModalContext(names, classes.columns, relation, universe)


@dataclass(frozen=True)
class ModalViolation:
    """One failed instance of the box/diamond membership biconditional."""

    world: str
    formula: Formula  # the state s under the operator
    operator: str  # "box" | "diamond"
    side: str  # "forward": operator formula present, condition fails
    #          # "backward": condition holds, operator formula absent

    def describe(self) -> str:
        op = "[]" if self.operator == "box" else "<>"
        if self.side == "forward":
            reason = "present but the successor condition fails"
        else:
            reason = "absent although the successor condition holds"
        return f"{self.world} at (0,0): {op}{print_formula(self.formula)} {reason}"


@dataclass(frozen=True)
class ModalContextReport:
    """The violations of a modal-context check; none means the verdict is yes."""

    violations: tuple[ModalViolation, ...]

    @property
    def is_modal_context(self) -> bool:
        return not self.violations


def is_modal_context(mc: ModalContext) -> ModalContextReport:
    """Check the box/diamond biconditionals at every world.

    For each s with []s in the universe: []s is in a world iff every relation
    successor has s; dually, <>s iff some successor has s. Only operator
    formulas inside the universe are checkable under the truncation, and
    those are checked exactly: `_rule` is applied to each []/<> member over
    the context's own relation and stored columns, and the result is
    compared with the member's stored column. Violations are read off the
    differing bits, world by world, boxes before diamonds, each in member
    order.
    """
    kinds, args, columns = mc.universe.kinds, mc.universe.args, mc.columns
    everywhere = (1 << len(mc.world_names)) - 1
    successors = mc._successor_masks
    differ = []  # (s, operator, forward bits, backward bits) where a column differs
    for operator, modal in (("box", Box), ("diamond", Diamond)):
        for i, kind in enumerate(kinds):
            if kind is modal:
                held = _rule(kind, args[i], columns, everywhere, successors, {})
                stored = columns[i]
                if held != stored:
                    differ.append((args[i][0], operator, stored & ~held, held & ~stored))
    violations = []
    if differ:
        members = mc.universe.members
        for j, name in enumerate(mc.world_names):
            bit = 1 << j
            for s, operator, forward, backward in differ:
                if forward & bit:
                    violations.append(ModalViolation(name, members[s], operator, "forward"))
                elif backward & bit:
                    violations.append(ModalViolation(name, members[s], operator, "backward"))
    return ModalContextReport(tuple(violations))


def verify_representation(model: KripkeModel, mc: ModalContext) -> bool:
    """Every Kripke world's theory appears verbatim as some context world's
    stored formula set."""
    stored = set(mc.rows)
    return all(row in stored for row in _classes(model, mc.universe).rows)


def class_world_map(model: KripkeModel, mc: ModalContext) -> dict[str, str]:
    """Kripke world -> name of the context world carrying its theory."""
    by_row = dict(zip(mc.rows, mc.world_names))
    classes = _classes(model, mc.universe)
    found = {}
    for worlds, row in zip(classes.worlds, classes.rows):
        for world in worlds:
            found[world] = by_row.get(row)
    out = {}
    for world in model.worlds:
        name = found[world]
        if name is None:
            raise ValueError(f"world {world!r} has no matching context world")
        out[world] = name
    return out


def requotient_is_identity(mc: ModalContext) -> bool:
    """Exploratory check, reported but never asserted: does quotienting the
    induced Kripke model (the context's worlds and relation, atoms valuated
    by their columns) reproduce the context up to renaming?

    It does iff the induced model's extension table is the context's columns.
    A renaming s that fits keeps atoms and the relation, so it is an
    automorphism of the induced model, and those keep every theory
    (Blackburn, de Rijke & Venema, chapter 2): world w's stored row is the
    induced row of s(w), hence of w. Conversely, equal tables make s the
    identity, as no two rows are equal. And the table is the columns iff
    every member's column is `_rule` of its children's columns (an atom's
    of its own), by induction over the member order, where children come
    first. So no model and no table is built.

    The construction does not claim this fixed-point property; the answer is
    surfaced so corpora can be inspected for it.
    """
    u, columns = mc.universe, mc.columns
    everywhere = (1 << len(mc.world_names)) - 1
    successors = mc._successor_masks
    atoms = {arg: column for kind, arg, column in zip(u.kinds, u.args, columns) if kind is Atom}
    for kind, arg, column in zip(u.kinds, u.args, columns):
        if _rule(kind, arg, columns, everywhere, successors, atoms) != column:
            return False
    return True


def prover_agreement(model: KripkeModel, mc: ModalContext) -> bool:
    """Does proving by membership agree with the independent frozenset
    `Evaluator`? Per member, the model worlds whose context world (through
    `class_world_map`) stores it must be exactly the member's extension."""
    rows = dict(zip(mc.world_names, mc.rows))
    lifted = _columns([rows[name] for name in class_world_map(model, mc).values()],
                      len(mc.universe))
    bit = {w: 1 << i for i, w in enumerate(model.worlds)}
    extension = Evaluator(model).extension
    return all(sum(map(bit.__getitem__, extension(f))) == mask
               for f, mask in zip(mc.universe.members, lifted))


def prove_in_context(mc: ModalContext, world: str, formula: Formula) -> bool:
    """Proving by membership: is the formula in the world's stored set?

    Formulas outside the universe are not decidable within the truncation
    and are rejected rather than silently reported false.
    """
    i = mc.universe.index_of(formula)
    if i is None:
        raise ValueError(
            f"formula {print_formula(formula)} is outside the universe; "
            "membership is undecidable within this truncation"
        )
    return mc.columns[i] >> mc._world_index(world) & 1 == 1
