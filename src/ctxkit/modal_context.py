"""Compiling Kripke models into modal contexts and checking them.

One extension table per (model, universe) drives the construction: every
universe member's extension as an int bitmask over the model's worlds, filled
in one forward pass over the canonically ordered members. Worlds are grouped
by their bits on the modal-atom columns (atoms, constants, []/<> members)
alone, which decides agreement on the whole universe; each class becomes a
context world carrying its class theory, built once per class, at the single
(entity, time) index; and each model edge, mapped through world -> class,
relates two context worlds. That is the smallest filtration of the model
through the subformula-closed universe (Blackburn, de Rijke & Venema, Modal
Logic, CUP 2001, section 2.3). The resulting structure must satisfy the
box/diamond membership biconditionals against its relation, and must
represent every original world by theory; both facts are re-checked here
rather than assumed.

The construction itself never uses non-trivial entities or times (the index
set is a single cell), but verification iterates over whatever (entity, time)
grid a context declares, so hand-built power contexts check the same way.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

from ctxkit.modal_logic import (
    And,
    Atom,
    Bottom,
    Box,
    Diamond,
    Formula,
    FormulaUniverse,
    Implies,
    KripkeModel,
    Not,
    Or,
    Top,
    print_formula,
)

UNIT = ("0",)


@dataclass(frozen=True)
class WorldClass:
    """One theory-equivalence class of Kripke worlds."""

    representative: str
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise ValueError("a world class cannot be empty")
        if self.representative != min(self.members):
            raise ValueError("representative must be the smallest member name")


Assignment = Mapping[tuple[str, str], frozenset[Formula]]


@dataclass(frozen=True)
class ModalContext:
    """A finite power context: named worlds mapping (entity, time) cells to
    formula sets, plus a relation between the worlds."""

    entities: tuple[str, ...]
    times: tuple[str, ...]
    world_names: tuple[str, ...]
    assignments: Mapping[str, Assignment]
    relation: frozenset[tuple[str, str]]
    universe: FormulaUniverse

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "world_names", tuple(self.world_names))
        object.__setattr__(
            self,
            "assignments",
            {
                name: {cell: frozenset(fs) for cell, fs in table.items()}
                for name, table in dict(self.assignments).items()
            },
        )
        object.__setattr__(self, "relation", frozenset(tuple(p) for p in self.relation))

        names = self.world_names
        if len(set(names)) != len(names):
            raise ValueError("duplicate context-world names")
        grid = [(e, t) for e in self.entities for t in self.times]
        cells = set(grid)
        if set(self.assignments) != set(names):
            raise ValueError("assignments must cover exactly the named worlds")
        members = self.universe._member_set
        first_with: dict[tuple[frozenset[Formula], ...], int] = {}
        equal = []  # (i, j): world j has the assignment world i was first to have
        for j, name in enumerate(names):
            table = self.assignments[name]
            if table.keys() != cells:
                raise ValueError(f"world {name!r} is not total over the (entity, time) grid")
            for formula_set in table.values():
                if not formula_set <= members:
                    f = next(f for f in formula_set if f not in members)
                    raise ValueError(
                        f"world {name!r} stores {print_formula(f)}, "
                        "which is outside the universe"
                    )
            i = first_with.setdefault(tuple([table[cell] for cell in grid]), j)
            if i != j:
                equal.append((i, j))
        if equal:  # the pair a scan over all pairs in name order meets first
            i, j = min(equal)
            raise ValueError(f"worlds {names[i]!r} and {names[j]!r} are equal as functions")
        known = set(names)
        for a, b in self.relation:
            if a not in known or b not in known:
                raise ValueError(f"relation endpoint outside the context: ({a}, {b})")

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        """World -> its successors in world_names order, from one pass over
        the relation."""
        index = {w: i for i, w in enumerate(self.world_names)}
        out: dict[str, list[str]] = {w: [] for w in self.world_names}
        for a, b in self.relation:
            out[a].append(b)
        return {w: tuple(sorted(vs, key=index.__getitem__)) for w, vs in out.items()}

    def successors(self, name: str) -> tuple[str, ...]:
        try:
            return self._successors[name]
        except KeyError:
            raise ValueError(f"unknown context world {name!r}") from None

    def theory_at(self, name: str, entity: str | None = None, time: str | None = None):
        e = self.entities[0] if entity is None else entity
        t = self.times[0] if time is None else time
        try:
            return self.assignments[name][(e, t)]
        except KeyError:
            raise ValueError(f"unknown world or cell: {name!r} at ({e!r}, {t!r})") from None


def extension_table(model: KripkeModel, universe: FormulaUniverse) -> dict[Formula, int]:
    """Each universe member's extension as an int bitmask over the model's
    worlds: bit i is set when model.worlds[i] satisfies the member.

    One forward pass fills it, because the canonical member order puts every
    subformula before the formulas built on it; []/<> read per-world
    successor masks.
    """
    bit = {w: 1 << i for i, w in enumerate(model.worlds)}
    everywhere = (1 << len(bit)) - 1
    successors = [(bit[w], sum(bit[v] for v in model.successors(w))) for w in model.worlds]
    table: dict[Formula, int] = {}
    for f in universe.members:
        kind = type(f)
        if kind is Atom:
            mask = sum(bit[w] for w in model.valuation.get(f.name, ()))
        elif kind is Top:
            mask = everywhere
        elif kind is Bottom:
            mask = 0
        elif kind is Box:
            inner = table[f.operand]
            mask = sum(b for b, succ in successors if succ & inner == succ)
        elif kind is Diamond:
            inner = table[f.operand]
            mask = sum(b for b, succ in successors if succ & inner)
        elif kind is Not:
            mask = everywhere ^ table[f.operand]
        else:
            left, right = table[f.left], table[f.right]
            if kind is And:
                mask = left & right
            elif kind is Or:
                mask = left | right
            elif kind is Implies:
                mask = (everywhere ^ left) | right
            else:  # Iff
                mask = everywhere ^ (left ^ right)
        table[f] = mask
    return table


# the members every other member is a Boolean combination of
_MODAL_ATOMS = (Atom, Top, Bottom, Box, Diamond)


_Classes = tuple[tuple[tuple[str, ...], frozenset[Formula]], ...]


def _classes(model: KripkeModel, universe: FormulaUniverse) -> _Classes:
    """The theory classes of the model's worlds over the universe, ordered by
    representative (smallest member name), each with its member worlds in
    model order and its theory.

    Computed once per (model, universe) and kept on the model, so every
    function below that quotients the same model reads the same classes.
    """
    memo = model._quotients
    classes = memo.get(universe)
    if classes is None:
        classes = memo[universe] = _filtration(model, universe)
    return classes


def _filtration(model: KripkeModel, universe: FormulaUniverse) -> _Classes:
    """The classes `_classes` returns, from one extension table.

    Worlds are grouped by their bits on the modal-atom columns alone. Every
    member is a Boolean combination of the atoms, constants and []/<>
    members among its subformulas, which the subformula-closed universe
    holds, so agreeing on those is agreeing on the whole universe. By the
    filtration lemma (Blackburn, de Rijke & Venema, section 2.3) the classes,
    related through the model's edges, are the smallest filtration through
    the universe and keep the truth of every member.
    """
    table = extension_table(model, universe)
    columns = [mask for f, mask in table.items() if type(f) in _MODAL_ATOMS]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i in range(len(model.worlds)):
        groups.setdefault(tuple([mask >> i & 1 for mask in columns]), []).append(i)
    classes = []
    for indices in groups.values():
        one = 1 << indices[0]
        theory = frozenset([f for f, mask in table.items() if mask & one])
        classes.append((tuple([model.worlds[i] for i in indices]), theory))
    classes.sort(key=lambda c: min(c[0]))
    return tuple(classes)


def quotient(model: KripkeModel, universe: FormulaUniverse) -> tuple[WorldClass, ...]:
    """Partition the worlds by equality of their theories over the universe."""
    return tuple(WorldClass(min(ws), frozenset(ws)) for ws, _ in _classes(model, universe))


def to_modal_context(model: KripkeModel, universe: FormulaUniverse) -> ModalContext:
    """Build the quotient modal context of a Kripke model.

    Context worlds are named c0, c1, ... in class order (classes ordered by
    representative), each carrying its class theory at the unique cell; two
    context worlds are related iff some members of their classes are.
    """
    classes = _classes(model, universe)
    names = tuple(f"c{k}" for k in range(len(classes)))
    cell = (UNIT[0], UNIT[0])
    assignments = {name: {cell: theory} for name, (_, theory) in zip(names, classes)}
    name_of = {w: name for name, (worlds, _) in zip(names, classes) for w in worlds}
    relation = frozenset((name_of[a], name_of[b]) for a, b in model.relation)
    return ModalContext(UNIT, UNIT, names, assignments, relation, universe)


@dataclass(frozen=True)
class ModalViolation:
    """One failed instance of the box/diamond membership biconditional."""

    world: str
    entity: str
    time: str
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
        return (
            f"{self.world} at ({self.entity},{self.time}): "
            f"{op}{print_formula(self.formula)} {reason}"
        )


@dataclass(frozen=True)
class ModalContextReport:
    is_modal_context: bool
    violations: tuple[ModalViolation, ...]

    def __post_init__(self):
        if self.is_modal_context != (not self.violations):
            raise ValueError("verdict must match the violation list")


def is_modal_context(mc: ModalContext) -> ModalContextReport:
    """Check the box/diamond biconditionals at every world and cell.

    For each s with []s in the universe: []s is in a world's cell iff every
    relation successor has s there; dually, <>s iff some successor has s.
    Only operator formulas inside the universe are checkable under the
    truncation, and those are checked exactly.
    """
    boxed = [(f.operand, f) for f in mc.universe.members if isinstance(f, Box)]
    diamonded = [(f.operand, f) for f in mc.universe.members if isinstance(f, Diamond)]
    violations = []
    for name in mc.world_names:
        successors = mc.successors(name)
        for e in mc.entities:
            for t in mc.times:
                own = mc.assignments[name][(e, t)]
                successor_sets = [mc.assignments[s][(e, t)] for s in successors]
                for s, box_s in boxed:
                    everywhere = all(s in succ for succ in successor_sets)
                    if box_s in own and not everywhere:
                        violations.append(ModalViolation(name, e, t, s, "box", "forward"))
                    elif everywhere and box_s not in own:
                        violations.append(ModalViolation(name, e, t, s, "box", "backward"))
                for s, dia_s in diamonded:
                    somewhere = any(s in succ for succ in successor_sets)
                    if dia_s in own and not somewhere:
                        violations.append(
                            ModalViolation(name, e, t, s, "diamond", "forward")
                        )
                    elif somewhere and dia_s not in own:
                        violations.append(
                            ModalViolation(name, e, t, s, "diamond", "backward")
                        )
    return ModalContextReport(not violations, tuple(violations))


def verify_representation(model: KripkeModel, mc: ModalContext) -> bool:
    """Every Kripke world's theory appears verbatim as some context world's
    formula set at the first cell."""
    stored = {mc.theory_at(name) for name in mc.world_names}
    return all(theory in stored for _, theory in _classes(model, mc.universe))


def class_world_map(model: KripkeModel, mc: ModalContext) -> dict[str, str]:
    """Kripke world -> name of the context world carrying its theory."""
    by_theory = {mc.theory_at(name): name for name in mc.world_names}
    found = {}
    for worlds, theory in _classes(model, mc.universe):
        for world in worlds:
            found[world] = by_theory.get(theory)
    out = {}
    for world in model.worlds:
        name = found[world]
        if name is None:
            raise ValueError(f"world {world!r} has no matching context world")
        out[world] = name
    return out


def induced_kripke(mc: ModalContext) -> KripkeModel:
    """Read a single-cell modal context back as a Kripke model: its worlds,
    its relation, and atoms valuated by stored membership."""
    valuation = {
        atom: frozenset(w for w in mc.world_names if Atom(atom) in mc.theory_at(w))
        for atom in mc.universe.atoms
    }
    return KripkeModel(mc.world_names, mc.relation, valuation)


def requotient_is_identity(mc: ModalContext) -> bool:
    """Exploratory check, reported but never asserted: does quotienting the
    induced Kripke model reproduce the context (up to renaming)?

    The construction does not claim this fixed-point property; the answer is
    surfaced so corpora can be inspected for it.
    """
    redone = to_modal_context(induced_kripke(mc), mc.universe)
    if len(redone.world_names) != len(mc.world_names):
        return False
    rename = {}
    for w in mc.world_names:
        matches = [v for v in redone.world_names if redone.theory_at(v) == mc.theory_at(w)]
        if len(matches) != 1:
            return False
        rename[w] = matches[0]
    return {(rename[a], rename[b]) for a, b in mc.relation} == set(redone.relation)


def prove_in_context(
    mc: ModalContext,
    world: str,
    formula: Formula,
    entity: str | None = None,
    time: str | None = None,
) -> bool:
    """Proving by membership: is the formula in the world's stored set?

    Formulas outside the universe are not decidable within the truncation
    and are rejected rather than silently reported false.
    """
    if formula not in mc.universe:
        raise ValueError(
            f"formula {print_formula(formula)} is outside the universe; "
            "membership is undecidable within this truncation"
        )
    if world not in mc.assignments:  # keyed by exactly the world names
        raise ValueError(f"unknown context world {world!r}")
    return formula in mc.theory_at(world, entity, time)
