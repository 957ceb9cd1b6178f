"""Modal formulas, their parser and printer, bounded universes, and Kripke models.

Formula nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): building a node whose kind and fields
already exist returns the existing node, so equality and hashing are object
identity. Syntax is still never normalized, so `[]p` and `~<>~p` are
different set members even though they are semantically equivalent. That
distinction is load-bearing: world theories must witness syntax, and the
box/diamond constructors double as the loop-free injective state tagging the
framework asks of a modal operator.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from ctxkit.core import SizeGuardError, effective_guard

DEFAULT_UNIVERSE_GUARD = 50_000
DEFAULT_CONNECTIVES = ("~", "&", "->", "[]", "<>")
_ALL_CONNECTIVES = ("~", "&", "|", "->", "<->", "[]", "<>", "true", "false")

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

# printing precedences: a child binding looser than its floor gets parentheses
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5, 6

_set = object.__setattr__  # nodes refuse setattr once built


class _Entry(weakref.ref):
    """A weak reference to one live node that remembers its table key."""

    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    # a dead node's entry may already have been replaced by a newer node's
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


# (kind, *fields) -> weak entry for the one live node with them
_NODES: dict[tuple, _Entry] = {}


class Formula:
    """Base class for formula nodes: immutable, hash-consed, compared by identity.

    Each kind declares its `fields` (children, except an atom's name), its
    `symbol`, its printing precedence `prec`, whether it associates to the
    right, and whether it is modal. The children tuple, size and modal depth
    are stored at construction, printed text on first print. Each arity has
    its own constructor, below.
    """

    __slots__ = ("children", "size", "depth", "_text", "__weakref__")
    fields: tuple[str, ...] = ()
    symbol = ""
    prec = _PREC_ATOM
    right_assoc = False
    modal = False

    def __setattr__(self, name, value=None):
        raise AttributeError(f"formula nodes are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, name)) for name in self.fields)
        return f"{type(self).__name__}({args})"


def _live(key: tuple) -> Formula | None:
    entry = _NODES.get(key)
    return None if entry is None else entry()


def _intern(node: Formula, key: tuple, children: tuple, size: int, depth: int) -> Formula:
    _set(node, "children", children)
    _set(node, "size", size)
    _set(node, "depth", depth)
    entry = _Entry(node, _drop)
    entry.key = key
    _NODES[key] = entry
    return node


def _new_constant(cls):
    key = (cls,)
    node = _live(key)
    if node is None:
        node = _intern(object.__new__(cls), key, (), 1, 0)
    return node


def _new_atom(cls, name):
    key = (cls, name)
    node = _live(key)
    if node is None:
        node = object.__new__(cls)
        _set(node, "name", name)
        _intern(node, key, (), 1, 0)
    return node


def _new_unary(cls, operand):
    key = (cls, operand)
    node = _live(key)
    if node is None:
        node = object.__new__(cls)
        _set(node, "operand", operand)
        _intern(node, key, (operand,), operand.size + 1, operand.depth + cls.modal)
    return node


def _new_binary(cls, left, right):
    key = (cls, left, right)
    node = _live(key)
    if node is None:
        node = object.__new__(cls)
        _set(node, "left", left)
        _set(node, "right", right)
        depth, other = left.depth, right.depth
        _intern(node, key, (left, right), left.size + right.size + 1,
                depth if depth >= other else other)
    return node


class Atom(Formula):
    __slots__ = fields = ("name",)
    __new__ = _new_atom
    symbol = property(lambda self: self.name)  # an atom prints as its name


class Top(Formula):
    __slots__ = ()
    __new__ = _new_constant
    symbol = "true"


class Bottom(Formula):
    __slots__ = ()
    __new__ = _new_constant
    symbol = "false"


class Not(Formula):
    __slots__ = fields = ("operand",)
    __new__ = _new_unary
    symbol, prec = "~", _PREC_UNARY


class And(Formula):
    __slots__ = fields = ("left", "right")
    __new__ = _new_binary
    symbol, prec = "&", _PREC_AND


class Or(Formula):
    __slots__ = fields = ("left", "right")
    __new__ = _new_binary
    symbol, prec = "|", _PREC_OR


class Implies(Formula):
    __slots__ = fields = ("left", "right")
    __new__ = _new_binary
    symbol, prec, right_assoc = "->", _PREC_IMP, True


class Iff(Formula):
    __slots__ = fields = ("left", "right")
    __new__ = _new_binary
    symbol, prec = "<->", _PREC_IFF


class Box(Formula):
    __slots__ = fields = ("operand",)
    __new__ = _new_unary
    symbol, prec, modal = "[]", _PREC_UNARY, True


class Diamond(Formula):
    __slots__ = fields = ("operand",)
    __new__ = _new_unary
    symbol, prec, modal = "<>", _PREC_UNARY, True


TOP = Top()
BOTTOM = Bottom()


def modal_depth(formula: Formula) -> int:
    """Maximum box/diamond nesting; atoms and constants have depth 0."""
    return formula.depth


def subformulas(formula: Formula) -> set[Formula]:
    """The formula and all of its descendants."""
    out, todo = {formula}, [formula]
    while todo:
        for kid in todo.pop().children:
            if kid not in out:
                out.add(kid)
                todo.append(kid)
    return out


def atom_names(formula: Formula) -> set[str]:
    return {f.name for f in subformulas(formula) if isinstance(f, Atom)}


# ---------------------------------------------------------------------------
# printing: minimal parentheses, canonical whitespace
# ---------------------------------------------------------------------------

def print_formula(formula: Formula) -> str:
    """Render a formula so that parse_formula reads it back unchanged.

    The text is memoised on every node printed, so printing a whole universe
    builds each member's text once, from its children's.
    """
    text = getattr(formula, "_text", None)  # the slot is empty until first printed
    if text is not None:
        return text
    kids, prec = formula.children, formula.prec
    if not kids:
        text = formula.symbol
    elif len(kids) == 1:  # no unary node associates to the right
        kid = kids[0]
        part = getattr(kid, "_text", None) or print_formula(kid)
        text = formula.symbol + (f"({part})" if kid.prec < prec else part)
    else:  # the side a binary node associates to may hold its own precedence
        left, right = kids
        lpart = getattr(left, "_text", None) or print_formula(left)
        rpart = getattr(right, "_text", None) or print_formula(right)
        if left.prec < prec + formula.right_assoc:
            lpart = f"({lpart})"
        if right.prec <= prec - formula.right_assoc:
            rpart = f"({rpart})"
        text = f"{lpart} {formula.symbol} {rpart}"
    _set(formula, "_text", text)
    return text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    """Syntax error with the offending position and the acceptable tokens."""

    def __init__(self, position: int, found: str, expected: Iterable[str]):
        self.position = position
        self.found = found
        self.expected = frozenset(expected)
        shown = ", ".join(sorted(self.expected))
        super().__init__(
            f"syntax error at position {position}: unexpected {found}; "
            f"expected one of: {shown}"
        )


_FIXED_TOKENS = ("<->", "<>", "->", "[]", "~", "&", "|", "(", ")")
_UNARY_EXPECTED = ("atom", "'true'", "'false'", "'~'", "'[]'", "'<>'", "'('")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for tok in _FIXED_TOKENS:
            if text.startswith(tok, i):
                tokens.append((tok, tok, i))
                i += len(tok)
                break
        else:
            match = _ATOM_RE.match(text, i)
            if match:
                word = match.group(0)
                kind = word if word in ("true", "false") else "atom"
                tokens.append((kind, word, i))
                i = match.end()
            else:
                raise FormulaSyntaxError(i, repr(c), _UNARY_EXPECTED)
    tokens.append(("end", "end of input", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        formula = self.iff()
        kind, found, position = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(
                position, repr(found), ("'&'", "'|'", "'->'", "'<->'", "end of input")
            )
        return formula

    def iff(self) -> Formula:
        left = self.imp()
        while self.peek()[0] == "<->":
            self.advance()
            left = Iff(left, self.imp())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek()[0] == "|":
            self.advance()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind, found, position = self.peek()
        if kind == "~":
            self.advance()
            return Not(self.unary())
        if kind == "[]":
            self.advance()
            return Box(self.unary())
        if kind == "<>":
            self.advance()
            return Diamond(self.unary())
        if kind == "(":
            self.advance()
            inner = self.iff()
            close_kind, close_found, close_pos = self.peek()
            if close_kind != ")":
                raise FormulaSyntaxError(close_pos, repr(close_found), ("')'",))
            self.advance()
            return inner
        if kind == "true":
            self.advance()
            return TOP
        if kind == "false":
            self.advance()
            return BOTTOM
        if kind == "atom":
            self.advance()
            return Atom(found)
        raise FormulaSyntaxError(position, repr(found), _UNARY_EXPECTED)


def parse_formula(text: str) -> Formula:
    """Parse the `~ [] <> & | -> <->` grammar; `->` associates to the right."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# bounded formula universes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaUniverse:
    """A finite, subformula-closed set of formulas standing in for all of them.

    Generated universes are identified by (atoms, depth, cap, connectives);
    cap is None for universes built by subformula closure of explicit
    formulas, which cannot be regenerated from a header line.
    """

    atoms: tuple[str, ...]
    depth: int
    cap: int | None
    connectives: tuple[str, ...]
    members: tuple[Formula, ...]

    @cached_property
    def _member_set(self) -> frozenset[Formula]:
        return frozenset(self.members)

    @cached_property
    def _by_text(self) -> dict[str, Formula]:
        return {print_formula(f): f for f in self.members}

    def __contains__(self, formula: object) -> bool:
        return formula in self._member_set

    def member_printed_as(self, text: str) -> Formula | None:
        """The member whose `print_formula` text is exactly text, else None.

        The printer round-trips, so this is the member parse_formula(text)
        would equal, found without parsing.
        """
        return self._by_text.get(text)

    def __len__(self) -> int:
        return len(self.members)


def _canonical_members(members: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(sorted(members, key=lambda f: (f.size, print_formula(f))))


_BINARY = (("&", And), ("|", Or), ("->", Implies), ("<->", Iff))


def _refuse_layer(grown: int, n: int, binary_ops: int, guard: int) -> None:
    """Refuse a Boolean layer over n formulas whose next layer, with `grown`
    formulas before the binary operators apply, could outgrow the guard."""
    projected = grown + binary_ops * n * n
    if projected > guard and n * n > guard:
        raise SizeGuardError(projected, guard, "formula universe", exact=False)


def _boolean_layers(
    base: set[Formula], cap: int, connectives: tuple[str, ...], guard: int
) -> set[Formula]:
    """Close base under the chosen Boolean connectives to nesting depth cap."""
    binary_ops = [op for name, op in _BINARY if name in connectives]
    layer = set(base)
    for _ in range(cap):
        grown = set(layer)
        if "~" in connectives:
            grown |= {Not(f) for f in layer}
        n = len(layer)
        _refuse_layer(len(grown), n, len(binary_ops), guard)
        ordered = list(layer)
        for op in binary_ops:
            for a in ordered:
                for b in ordered:
                    grown.add(op(a, b))
            if len(grown) > guard:
                raise SizeGuardError(len(grown), guard, "formula universe", exact=False)
        if grown == layer:
            break
        layer = grown
        if len(layer) > guard:
            raise SizeGuardError(len(layer), guard, "formula universe", exact=False)
    return layer


def _base_counts(
    atom_count: int, depth: int, connectives: tuple[str, ...], cap: int
) -> Iterator[int]:
    """How many modal atoms (atoms, constants, []/<> members) formula_universe
    holds after each modal level 1..depth, computed without building any.

    Every []/<> image of a target is a new member, so the count is exact:
    |M_d| = |M_0| + (modal operators) * (2 with ~ and cap >= 1, else 1) * |M_(d-1)|.
    Lazy, so that a guard stops it before the counts grow huge.
    """
    first = atom_count + ("true" in connectives) + ("false" in connectives)
    grows = (("[]" in connectives) + ("<>" in connectives)) * (
        2 if "~" in connectives and cap >= 1 else 1
    )
    count = first
    for _ in range(depth):
        count = first + grows * count
        yield count


def formula_universe(
    atoms: Iterable[str],
    depth: int,
    connectives: Iterable[str] = DEFAULT_CONNECTIVES,
    cap: int = 1,
    guard: int | None = None,
) -> FormulaUniverse:
    """All formulas of modal depth <= depth over the atoms, within the caps.

    Modalities apply to modal atoms (atoms, constants, nested modal
    formulas) and, when negation is available and cap >= 1, to their single
    negations; full Boolean structure never nests under a modality, which is
    what keeps depth-2 universes at desk scale. Within each modal level,
    Boolean connectives combine to nesting depth <= cap. The result is
    subformula-closed, canonically ordered, and monotone in depth.
    """
    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("a universe needs at least one atom")
    seen = set()
    for a in atoms:
        if not _ATOM_RE.fullmatch(a):
            raise ValueError(f"invalid atom name {a!r}")
        if a in seen:
            raise ValueError(f"duplicate atom {a!r}")
        seen.add(a)
    connectives = tuple(connectives)
    for c in connectives:
        if c not in _ALL_CONNECTIVES:
            raise ValueError(f"unknown connective {c!r}")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    limit = effective_guard(guard, DEFAULT_UNIVERSE_GUARD)
    count = len(atoms) + ("true" in connectives) + ("false" in connectives)  # at depth 0
    for count in _base_counts(len(atoms), depth, connectives, cap):
        if count > limit:
            raise SizeGuardError(count, limit, "formula universe", exact=False)
    if cap >= 1:  # the first Boolean layer's size is exact: no ~f is a modal atom
        _refuse_layer(count * (1 + ("~" in connectives)), count,
                      sum(name in connectives for name, _ in _BINARY), limit)

    bases: set[Formula] = {Atom(a) for a in atoms}
    if "true" in connectives:
        bases.add(TOP)
    if "false" in connectives:
        bases.add(BOTTOM)
    for _ in range(depth):
        targets = set(bases)
        if "~" in connectives and cap >= 1:
            targets |= {Not(f) for f in bases}
        if "[]" in connectives:
            bases |= {Box(f) for f in targets}
        if "<>" in connectives:
            bases |= {Diamond(f) for f in targets}

    members = _boolean_layers(bases, cap, connectives, limit)
    return FormulaUniverse(atoms, depth, cap, connectives, _canonical_members(members))


def closure_universe(formulas: Iterable[Formula]) -> FormulaUniverse:
    """The subformula closure of explicit formulas, as a universe."""
    members: set[Formula] = set()
    for f in formulas:
        members |= subformulas(f)
    if not members:
        raise ValueError("a universe needs at least one formula")
    atoms = tuple(sorted({a for f in members for a in atom_names(f)}))
    depth = max(modal_depth(f) for f in members)
    return FormulaUniverse(atoms, depth, None, (), _canonical_members(members))


def check_modal_operator(universe: FormulaUniverse) -> bool:
    """Executable witness that box/diamond are injective and loop-free on the
    universe: distinct members get distinct images, no member equals its own
    image, and no iterate within the depth budget falls back onto the first
    application.
    """
    members = universe.members
    for wrap in (Box, Diamond):
        if len({wrap(f) for f in members}) != len(members):
            return False
        budget = universe.depth + 2
        for f in members:
            once = wrap(f)
            if once == f:
                return False
            iterate = wrap(once)
            steps = 2
            while modal_depth(f) + steps <= budget:
                if iterate == once:
                    return False
                iterate = wrap(iterate)
                steps += 1
    return True


# ---------------------------------------------------------------------------
# Kripke models and satisfaction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeModel:
    """<W, R, V>: worlds in a fixed order, accessibility pairs, atom valuation.

    Atoms missing from the valuation are false everywhere, so evaluation is
    total over syntactically valid formulas. An atom true nowhere is dropped
    from the stored valuation, as it is from the file `render_kripke` writes,
    so a model equals its reloaded copy.
    """

    worlds: tuple[str, ...]
    relation: frozenset[tuple[str, str]]
    valuation: Mapping[str, frozenset[str]]

    def __post_init__(self):
        worlds = tuple(self.worlds)
        valuation = {atom: frozenset(ws) for atom, ws in dict(self.valuation).items()}
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relation", frozenset(tuple(p) for p in self.relation))
        object.__setattr__(self, "valuation", {a: ws for a, ws in valuation.items() if ws})
        if len(set(worlds)) != len(worlds):
            raise ValueError("duplicate world names")
        known = set(worlds)
        for name in worlds:
            if not name or any(c.isspace() or c == "#" for c in name):
                raise ValueError(f"invalid world name {name!r}")
        for a, b in self.relation:
            if a not in known or b not in known:
                raise ValueError(f"relation endpoint outside the model: ({a}, {b})")
        for atom, ws in valuation.items():
            if not _ATOM_RE.fullmatch(atom):
                raise ValueError(f"invalid atom name {atom!r}")
            stray = ws - known
            if stray:
                raise ValueError(f"valuation of {atom!r} names unknown worlds {sorted(stray)}")

    @cached_property
    def _successors(self) -> dict[str, frozenset[str]]:
        out: dict[str, set[str]] = {w: set() for w in self.worlds}
        for a, b in self.relation:
            out[a].add(b)
        return {w: frozenset(s) for w, s in out.items()}

    @cached_property
    def _quotients(self) -> dict:
        """universe -> the model's theory classes over it, filled by
        `modal_context` on first use; the memo dies with the model."""
        return {}

    def successors(self, world: str) -> frozenset[str]:
        try:
            return self._successors[world]
        except KeyError:
            raise ValueError(f"unknown world {world!r}") from None


class Evaluator:
    """One satisfaction session over a fixed model.

    Extensions (the set of worlds satisfying a formula) are memoized per
    formula, which makes theory computation over a whole universe cheap.
    The cache belongs to this evaluator alone.
    """

    def __init__(self, model: KripkeModel):
        self.model = model
        self._extensions: dict[Formula, frozenset[str]] = {}
        self._all = frozenset(model.worlds)

    def extension(self, formula: Formula) -> frozenset[str]:
        cached = self._extensions.get(formula)
        if cached is not None:
            return cached
        model = self.model
        if isinstance(formula, Atom):
            ext = model.valuation.get(formula.name, frozenset())
        elif isinstance(formula, Top):
            ext = self._all
        elif isinstance(formula, Bottom):
            ext = frozenset()
        elif isinstance(formula, Not):
            ext = self._all - self.extension(formula.operand)
        elif isinstance(formula, And):
            ext = self.extension(formula.left) & self.extension(formula.right)
        elif isinstance(formula, Or):
            ext = self.extension(formula.left) | self.extension(formula.right)
        elif isinstance(formula, Implies):
            ext = (self._all - self.extension(formula.left)) | self.extension(formula.right)
        elif isinstance(formula, Iff):
            left = self.extension(formula.left)
            right = self.extension(formula.right)
            ext = (left & right) | ((self._all - left) & (self._all - right))
        elif isinstance(formula, Box):
            inner = self.extension(formula.operand)
            ext = frozenset(w for w in model.worlds if model.successors(w) <= inner)
        elif isinstance(formula, Diamond):
            inner = self.extension(formula.operand)
            ext = frozenset(w for w in model.worlds if model.successors(w) & inner)
        else:
            raise TypeError(f"unknown formula node {formula!r}")
        self._extensions[formula] = ext
        return ext

    def satisfies(self, world: str, formula: Formula) -> bool:
        if world not in self.model._successors:
            raise ValueError(f"unknown world {world!r}")
        return world in self.extension(formula)


def satisfies(model: KripkeModel, world: str, formula: Formula) -> bool:
    """Standard satisfaction: box over all successors, diamond over some."""
    return Evaluator(model).satisfies(world, formula)


def world_theory(
    model: KripkeModel,
    world: str,
    universe: FormulaUniverse,
    evaluator: Evaluator | None = None,
) -> frozenset[Formula]:
    """The universe members true at the world."""
    ev = evaluator if evaluator is not None else Evaluator(model)
    if ev.model is not model:
        raise ValueError("evaluator belongs to a different model")
    if world not in model._successors:
        raise ValueError(f"unknown world {world!r}")
    return frozenset(f for f in universe.members if world in ev.extension(f))
