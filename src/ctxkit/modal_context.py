"""Compiling Kripke models into modal contexts and checking them.

One table shape runs the whole pipeline: a column per universe member, in
the universe's canonical member order, each an int mask over some worlds.
`extension_table` fills it over the model's worlds in one forward pass over
the member rows, reading kinds and child rows, never formula nodes. Worlds
with equal rows across the table have equal theories, and each such class
becomes a context world; its bit in every column is the bit of any of its
worlds, and it reaches the classes of the worlds in the OR of its worlds'
successor masks. That is the smallest filtration of the model through the
subformula-closed universe (Blackburn, de Rijke & Venema, Modal Logic, CUP
2001, section 2.3). A `ModalContext` holds those class columns, the class
names and a successor mask per class, with the relation's name pairs as a
view. It must satisfy the box/diamond membership biconditionals against
its relation, and must represent every original world by theory; both
facts are re-checked here, on the columns, rather than assumed.

Each kind's mask rule is written once, in `_rule`, which fills a table in
one pass over the member rows: the extension table from its own growing
columns, and a context's cached check table from its stored columns. The
modal check and the requotient check both compare the stored columns with it.

The paper's power context indexes formula sets by (entity, time) cells; the
construction uses a single cell, so a context stores one formula set per
world, and reports name that cell as (0,0).

Rows and columns convert into each other by byte-wise transposition
(`_rows`, `_columns`): a world's row is a bytes object with one 0/1 byte per
member, so equal theories are equal rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from ctxkit.core import check_guard, position
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
    picked,
    print_formula,
    successor_masks,
    successor_pairs,
    world_index,
)

DEFAULT_TABLE_GUARD = 1 << 24  # universe members x model worlds of one extension table


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


@dataclass(frozen=True, init=False)
class ModalContext:
    """A finite modal context: named worlds, the formulas each stores, and a
    relation between the worlds.

    Stored as int masks: one column per universe member, in member order
    (as in `extension_table`), bit j set when world_names[j] stores it, and
    one successor mask per world (as in `KripkeModel`). `rows` and
    `theory_at` are views of the columns, and `relation` of the successors.
    """

    world_names: tuple[str, ...]
    columns: tuple[int, ...]
    successors: tuple[int, ...]
    universe: FormulaUniverse

    def __new__(cls, world_names: Iterable[str], columns: Iterable[int],
                relation: Iterable[tuple[str, str]], universe: FormulaUniverse):
        """A context over named worlds: the names are checked first, then the
        relation, read once in `successor_masks`, then the masks in `from_masks`."""
        names = tuple(world_names)
        successors = successor_masks(world_index(names, "context-world"), relation, "context")
        return cls.from_masks(names, columns, successors, universe)

    @classmethod
    def from_masks(cls, world_names: Iterable[str], columns: Iterable[int],
                   successors: Iterable[int], universe: FormulaUniverse) -> ModalContext:
        """A context from masks whose names the caller checked. It refuses a
        column count other than one per member, a bit past the last world,
        and two worlds with equal rows."""
        names, columns, successors = tuple(world_names), tuple(columns), tuple(successors)
        if len(columns) != len(universe):
            raise ValueError(f"{len(columns)} columns for {len(universe)} members")
        if columns and (min(columns) < 0 or max(columns) >> len(names)):
            raise ValueError("a column has bits outside the named worlds")
        if len(successors) != len(names) or any(m < 0 or m >> len(names) for m in successors):
            raise ValueError("successor masks outside the named worlds")
        mc = object.__new__(cls)  # frozen
        vars(mc).update(world_names=names, columns=columns, successors=successors,
                        universe=universe)
        first_with: dict[bytes, int] = {}  # row -> the first world to have it
        pairs = [(first_with.setdefault(row, j), j) for j, row in enumerate(mc.rows)]
        if len(first_with) < len(names):  # the pair a scan in name order meets first
            i, j = min((i, j) for i, j in pairs if i != j)
            error = ValueError(f"worlds {names[i]!r} and {names[j]!r} are equal as functions")
            error.pair = names[i], names[j]  # for a loader to name the later one's line
            raise error
        return mc

    def __reduce__(self):
        return self.from_masks, (self.world_names, self.columns, self.successors, self.universe)

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        return frozenset(successor_pairs(self.world_names, self.successors))

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.successors))

    @cached_property
    def rows(self) -> list[bytes]:
        """Each world's row, in world order: byte i is 1 when the world
        stores member i, else 0."""
        return _rows(self.columns, len(self.world_names))

    @cached_property
    def _held(self) -> list[int]:
        """The check table: `_rule` over the context's own relation, from
        the stored columns, each atom reading its own."""
        u = self.universe
        atoms = {arg: column for kind, arg, column in zip(u.kinds, u.args, self.columns)
                 if kind is Atom}
        return _rule(u, self.columns, self.successors, atoms)

    def theory_at(self, name: str) -> frozenset[Formula]:
        """The formulas the world stores."""
        j = position(self.world_names, name, "context world")
        return frozenset(compress(self.universe.members, self.rows[j]))


def _rule(universe: FormulaUniverse, stored: Sequence[int] | None, successors: Sequence[int],
          atoms: dict[str, int]) -> list[int]:
    """Every member's mask over the worlds of the successor masks, in member
    order, from one loop over the member rows. Children's masks are read
    from stored when it is given, else from the masks filled so far, as
    children come first; an atom's mask is atoms[name], or none. []/<> test
    each world's successor mask. A universe holds six kinds, atoms and
    `~ & -> [] <>`, so a member that is none of the first five is an atom."""
    worlds = [(1 << j, succ) for j, succ in enumerate(successors)]  # (its bit, its successors)
    everywhere = (1 << len(worlds)) - 1
    out: list[int] = []
    masks = out if stored is None else stored
    for kind, arg in zip(universe.kinds, universe.args):
        if kind is And:  # the two kinds most members have come first
            mask = masks[arg[0]] & masks[arg[1]]
        elif kind is Implies:
            mask = (everywhere ^ masks[arg[0]]) | masks[arg[1]]
        elif kind is Box:  # the worlds all of whose successors are in the operand
            inner = masks[arg[0]]
            mask = sum([bit for bit, succ in worlds if succ & inner == succ])
        elif kind is Diamond:  # the worlds some of whose successors are in the operand
            inner = masks[arg[0]]
            mask = sum([bit for bit, succ in worlds if succ & inner])
        elif kind is Not:
            mask = everywhere ^ masks[arg[0]]
        else:
            mask = atoms.get(arg, 0)
        out.append(mask)
    return out


def extension_table(model: KripkeModel, universe: FormulaUniverse) -> list[int]:
    """Each universe member's extension as an int bitmask over the model's
    worlds, in member order: bit i is set when model.worlds[i] satisfies the
    member.

    `_rule` fills it in one forward pass over the member rows, each member
    reading its children's rows of the table itself. A table of more
    members x worlds than the guard (`DEFAULT_TABLE_GUARD`, or
    `CTXKIT_GUARD`) is refused before it is built.
    """
    check_guard(
        len(universe) * len(model.worlds), DEFAULT_TABLE_GUARD,
        f"extension table of {len(universe)} members over {len(model.worlds)} worlds",
    )
    return _rule(universe, None, model.successors, model.atoms)


class _Quotient(NamedTuple):
    """A model's theory classes over a universe, ordered by least world, and
    the extension table they group the worlds by."""

    rows: tuple[bytes, ...]  # each class's theory row
    table: tuple[int, ...]  # each member's extension over the model's worlds
    of: tuple[int, ...]  # each world's class, in model order


def _classes(model: KripkeModel, universe: FormulaUniverse) -> _Quotient:
    """The theory classes of the model's worlds over the universe, from one
    extension table.

    Worlds are grouped by their rows of the table, which are their theories
    over the universe. By the filtration lemma (Blackburn, de Rijke & Venema,
    section 2.3) the classes, related through the model's edges, are the
    smallest filtration through the subformula-closed universe and keep the
    truth of every member. A class's row is the row of any of its worlds.
    Computed once per (model, universe) and kept on the model, table and
    all, so every function below that quotients the same model reads the
    same classes and the same table. The memo is made here, in the model's
    `__dict__` beside its fields, on first use; a copy or an unpickled model
    starts without one.
    """
    memo = vars(model).setdefault("_quotients", {})
    if universe in memo:
        return memo[universe]
    worlds, table = model.worlds, tuple(extension_table(model, universe))
    rows = _rows(table, len(worlds))
    number: dict[bytes, int] = {}  # row -> its class, numbered in order of least world
    for _, row in sorted(zip(worlds, rows)):
        number.setdefault(row, len(number))
    memo[universe] = _Quotient(tuple(number), table, tuple(map(number.__getitem__, rows)))
    return memo[universe]


def quotient(model: KripkeModel, universe: FormulaUniverse) -> tuple[frozenset[str], ...]:
    """Partition the worlds by equality of their theories over the universe,
    the classes ordered by their least world."""
    classes = _classes(model, universe)
    members: list[list[str]] = [[] for _ in classes.rows]
    for world, k in zip(model.worlds, classes.of):
        members[k].append(world)
    return tuple(map(frozenset, members))


def to_modal_context(model: KripkeModel, universe: FormulaUniverse) -> ModalContext:
    """Build the quotient modal context of a Kripke model.

    Context worlds are named c0, c1, ... in class order (classes ordered by
    least world), each storing its class theory: transposing the class rows
    gives the context's columns. Two context worlds are related iff some
    members of their classes are, read off one OR of successor masks per class.
    """
    classes = _classes(model, universe)
    reach, of = [0] * len(classes.rows), classes.of  # each class's worlds' successors
    for k, succ in zip(of, model.successors):
        reach[k] |= succ
    successors = [sum({1 << c for c in picked(of, succ)}) for succ in reach]  # classes reached
    return ModalContext.from_masks([f"c{k}" for k in range(len(reach))],
                                   _columns(classes.rows, len(universe)), successors, universe)


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
    those are checked exactly: each []/<> member's stored column is
    compared with its entry in the context's check table (`_held`).
    Violations are read off the differing bits, world by world, boxes before
    diamonds, each in member order.
    """
    kinds, args, columns, held = mc.universe.kinds, mc.universe.args, mc.columns, mc._held
    differ = []  # (s, operator, stored column, bits where it differs from the rule)
    for operator, modal in (("box", Box), ("diamond", Diamond)):
        for i, kind in enumerate(kinds):
            if kind is modal and held[i] != columns[i]:
                differ.append((args[i][0], operator, columns[i], held[i] ^ columns[i]))
    violations = []
    if differ:
        members = mc.universe.members
        for j, name in enumerate(mc.world_names):
            bit = 1 << j
            for s, operator, stored, wrong in differ:
                if wrong & bit:  # stored where the rule fails is forward, else backward
                    side = "forward" if stored & bit else "backward"
                    violations.append(ModalViolation(name, members[s], operator, side))
    return ModalContextReport(tuple(violations))


def _carriers(model: KripkeModel, mc: ModalContext) -> list[str | None]:
    """Each Kripke world's carrier, in model order: the name of the context
    world that stores the world's row of the extension table, or None."""
    by_row = dict(zip(mc.rows, mc.world_names))
    classes = _classes(model, mc.universe)
    return [by_row.get(classes.rows[k]) for k in classes.of]


def verify_representation(model: KripkeModel, mc: ModalContext) -> bool:
    """Every Kripke world's theory appears verbatim as some context world's
    stored formula set."""
    return None not in _carriers(model, mc)


def class_world_map(model: KripkeModel, mc: ModalContext) -> dict[str, str]:
    """Kripke world -> name of the context world carrying its theory; the
    first world in model order with no carrier is refused."""
    out = dict(zip(model.worlds, _carriers(model, mc)))
    for world, name in out.items():
        if name is None:
            raise ValueError(f"world {world!r} has no matching context world")
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
    first. So no model and no extension table is built: the check is one
    comparison with the context's check table.

    The construction does not claim this fixed-point property; the answer is
    surfaced so corpora can be inspected for it.
    """
    return mc._held == list(mc.columns)


def prover_agreement(model: KripkeModel, mc: ModalContext) -> bool:
    """Does proving by membership agree with the independent frozenset
    `Evaluator`? Per member, the model worlds whose context world (through
    `class_world_map`) stores it must be exactly the member's extension.

    Once every world has a carrier, a world's carrier stores exactly the
    world's own row of the model's extension table. So the member columns
    lifted through the carriers are the kept table bit for bit, and each
    member's extension is compared with its column of that table."""
    class_world_map(model, mc)  # refuses a world with no carrier
    bit = {w: 1 << i for i, w in enumerate(model.worlds)}
    extension = Evaluator(model).extension
    return all(sum(map(bit.__getitem__, extension(f))) == mask
               for f, mask in zip(mc.universe.members, _classes(model, mc.universe).table))


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
    return mc.columns[i] >> position(mc.world_names, world, "context world") & 1 == 1
