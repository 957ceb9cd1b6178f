"""Modal formulas, their parser and printer, bounded universes, and Kripke models.

Formula nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): building a node whose kind and fields
already exist returns the existing node, so equality and hashing are object
identity. Every kind is built by one constructor, which looks the node up by
(kind, *fields) in a table of weak entries and builds it only on a miss; a
node holds its fields, its children and, once printed, its text. Syntax is
still never normalized, so `[]p` and `~<>~p` are different set members even
though they are semantically equivalent. That distinction is load-bearing:
world theories must witness syntax, and the box/diamond constructors double
as the loop-free injective state tagging the framework asks of a modal
operator.

The parser, the printer and the evaluator walk explicit stacks, so a
formula's depth costs memory, never interpreter frames. Precedence and
associativity are declared once, on the node classes, and both the parser
and the printer read them there. A formula of more nodes than the guard
(`DEFAULT_FORMULA_GUARD`, or `CTXKIT_GUARD`) is refused before any of its
nodes is built, because memoised text grows with the square of its depth.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from ctxkit.core import check_guard

DEFAULT_UNIVERSE_GUARD = 50_000
DEFAULT_FORMULA_GUARD = 10_000  # nodes of one parsed formula

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")  # an atom, or a word in _CONSTANTS
_WORLD_RE = re.compile(r"[^\s#]+")  # a world name: one token that no comment cuts

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


def _new(cls, *fields):
    """The live node of kind cls with these fields, else a new one."""
    key = (cls,) + fields
    entry = _NODES.get(key)
    node = None if entry is None else entry()
    return _intern(cls, key, fields) if node is None else node


def _intern(cls, key: tuple, fields: tuple) -> Formula:
    """Build the node of kind cls and enter it under key: the one place a node is built."""
    if len(fields) != len(cls.fields):
        raise TypeError(f"{cls.__name__} takes {len(cls.fields)} fields, not {len(fields)}")
    node = object.__new__(cls)
    for name, value in zip(cls.fields, fields):
        _set(node, name, value)
    _set(node, "children", () if cls is Atom else fields)
    entry = _Entry(node, _drop)
    entry.key = key
    _NODES[key] = entry
    return node


class Formula:
    """Base class for formula nodes: immutable, hash-consed, compared by identity.

    Each kind declares its `fields` (children, except an atom's name), its
    `symbol`, its printing precedence `prec`, and whether it associates to
    the right. A node holds its fields and its children tuple, and its
    printed text once printed. Every kind is built by the one constructor,
    `_new`, with its fields in order.
    """

    __slots__ = ("children", "_text", "__weakref__")
    fields: tuple[str, ...] = ()
    symbol = ""
    prec = _PREC_ATOM
    right_assoc = False

    __new__ = _new

    def __setattr__(self, name, value=None):
        raise AttributeError(f"formula nodes are immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.fields)

    def __repr__(self) -> str:
        """Constructor syntax, such as `Not(Atom('p'))`, written from an
        explicit stack, so that nesting depth costs no interpreter frames."""
        out: list[str] = []
        todo: list = [self]  # nodes still to write, and text to copy out
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{type(item).__name__}(")
            todo.append(")")
            for k, name in enumerate(reversed(item.fields)):
                value = getattr(item, name)
                if k:
                    todo.append(", ")
                todo.append(value if isinstance(value, Formula) else repr(value))
        return "".join(out)


class Atom(Formula):
    __slots__ = fields = ("name",)
    symbol = property(lambda self: self.name)  # an atom prints as its name


class Top(Formula):
    __slots__ = ()
    symbol = "true"


class Bottom(Formula):
    __slots__ = ()
    symbol = "false"


class Not(Formula):
    __slots__ = fields = ("operand",)
    symbol, prec = "~", _PREC_UNARY


class And(Formula):
    __slots__ = fields = ("left", "right")
    symbol, prec = "&", _PREC_AND


class Or(Formula):
    __slots__ = fields = ("left", "right")
    symbol, prec = "|", _PREC_OR


class Implies(Formula):
    __slots__ = fields = ("left", "right")
    symbol, prec, right_assoc = "->", _PREC_IMP, True


class Iff(Formula):
    __slots__ = fields = ("left", "right")
    symbol, prec = "<->", _PREC_IFF


class Box(Formula):
    __slots__ = fields = ("operand",)
    symbol, prec = "[]", _PREC_UNARY


class Diamond(Formula):
    __slots__ = fields = ("operand",)
    symbol, prec = "<>", _PREC_UNARY


TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# printing: minimal parentheses, canonical whitespace
# ---------------------------------------------------------------------------

def _part(text: str, kid: type[Formula], op: type[Formula], right: bool = False) -> str:
    """A child's text as it prints under op: in parentheses when the child's
    kind binds looser than op admits on that side. The side a binary node
    associates to may hold a child of its own precedence; a unary node's
    operand is its left side.
    """
    floor = op.prec - op.right_assoc + 1 if right else op.prec + op.right_assoc
    return f"({text})" if kid.prec < floor else text


def print_formula(formula: Formula) -> str:
    """Render a formula so that parse_formula reads it back unchanged.

    The text is memoised on every node printed, so printing a whole universe
    builds each member's text once, from its children's. A node whose
    children have no text yet waits on an explicit stack under them.
    """
    text = getattr(formula, "_text", None)  # the slot is empty until first printed
    if text is None:
        todo = [formula]
        while todo:
            node = todo[-1]
            kids, op = node.children, type(node)
            parts = [getattr(kid, "_text", None) for kid in kids]
            if None in parts:
                todo += [kid for kid, part in zip(kids, parts) if part is None]
                continue
            if not kids:
                text = node.symbol
            elif len(kids) == 1:
                text = op.symbol + _part(parts[0], type(kids[0]), op)
            else:
                left, right = kids
                text = (f"{_part(parts[0], type(left), op)} {op.symbol} "
                        f"{_part(parts[1], type(right), op, right=True)}")
            _set(node, "_text", text)
            todo.pop()
    return text  # the last node printed is the formula, at the stack's bottom


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


# the operators, with their precedence and associativity, as the printer reads them
_PREFIX = {cls.symbol: cls for cls in (Not, Box, Diamond)}
_INFIX = {cls.symbol: cls for cls in (And, Or, Implies, Iff)}
_CONSTANTS = {"true": TOP, "false": BOTTOM}

_UNARY_EXPECTED = ("atom", "'true'", "'false'", *(f"'{symbol}'" for symbol in _PREFIX), "'('")
_END_EXPECTED = (*(f"'{symbol}'" for symbol in _INFIX), "end of input")
# one scan for an operator or parenthesis, an atom or constant word, or the
# one character no token starts with; the scan steps over whitespace
_TOKEN_RE = re.compile(
    r"(?P<fixed><->|<>|->|\[\]|[~&|()])|(?P<word>" + _ATOM_RE.pattern + r")|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "end of input", len(text))."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        group = match.lastgroup
        found, position = match.group(group), match.start(group)
        if group == "fixed":
            tokens.append((found, found, position))
        elif group == "word":
            tokens.append((found if found in _CONSTANTS else "atom", found, position))
        else:
            raise FormulaSyntaxError(position, repr(found), _UNARY_EXPECTED)
    tokens.append(("end", "end of input", len(text)))
    return tokens


def _reduce(operands: list[Formula], pending: list, floor: int) -> None:
    """Apply the pending operators that bind at least as tightly as floor,
    down to the innermost open parenthesis (a None on the stack)."""
    while pending and pending[-1] is not None and pending[-1].prec >= floor:
        op = pending.pop()
        if len(op.fields) == 1:
            operands[-1] = op(operands[-1])
        else:
            right = operands.pop()
            operands[-1] = op(operands[-1], right)


def parse_formula(text: str) -> Formula:
    """Parse the `~ [] <> & | -> <->` grammar; `->` associates to the right.

    One operator-precedence loop over explicit stacks (Pratt, "Top down
    operator precedence", POPL 1973) reads each operator's precedence and
    associativity off its node class. The node-count guard is checked on the
    tokens, before any node is built.
    """
    tokens = _tokenize(text)
    nodes = len(tokens) - 1 - text.count("(") - text.count(")")  # every paren is a token
    check_guard(nodes, DEFAULT_FORMULA_GUARD, "formula")
    operands: list[Formula] = []
    pending: list = []  # operator classes, and None for each open parenthesis
    open_parens = 0
    want_operand = True
    for kind, found, position in tokens:
        if want_operand:
            if kind in _PREFIX:
                pending.append(_PREFIX[kind])
            elif kind == "(":
                pending.append(None)
                open_parens += 1
            elif kind == "atom" or kind in _CONSTANTS:
                operands.append(Atom(found) if kind == "atom" else _CONSTANTS[kind])
                want_operand = False
            else:
                raise FormulaSyntaxError(position, repr(found), _UNARY_EXPECTED)
        elif kind in _INFIX:
            op = _INFIX[kind]
            _reduce(operands, pending, op.prec + op.right_assoc)
            pending.append(op)
            want_operand = True
        elif kind == ")" and open_parens:
            _reduce(operands, pending, 0)
            pending.pop()
            open_parens -= 1
        elif kind == "end" and not open_parens:
            _reduce(operands, pending, 0)
            return operands[0]
        else:
            raise FormulaSyntaxError(
                position, repr(found), ("')'",) if open_parens else _END_EXPECTED
            )


# ---------------------------------------------------------------------------
# bounded formula universes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FormulaUniverse:
    """A finite, subformula-closed set of formulas standing in for all of them.

    The header (atoms, depth, cap) defines the universe: it is the whole
    identity, so equality, hashing and repr read only the header, and it
    regenerates the universe from a `.mctx` header line. The members are
    the rows of one table, filled from the header on construction, in
    canonical order (size, then printed text): row i holds member i's kind
    (its node class), its args (the rows of its children, or an atom's
    name) and its printed text. A child's row comes before its parent's, so
    one forward pass over the rows computes anything bottom-up. Formula
    nodes are built only when `members` is first read.
    """

    atoms: tuple[str, ...]
    depth: int
    cap: int = 1
    kinds: tuple[type[Formula], ...] = field(init=False, compare=False, repr=False)
    args: tuple[tuple[int, ...] | str, ...] = field(init=False, compare=False, repr=False)
    texts: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kinds, args, texts = _member_table(self.atoms, self.depth, self.cap)
        _set(self, "kinds", kinds)
        _set(self, "args", args)
        _set(self, "texts", texts)

    @cached_property
    def members(self) -> tuple[Formula, ...]:
        """The member nodes in canonical order, built from the rows on first read."""
        nodes: list[Formula] = []
        for kind, arg in zip(self.kinds, self.args):
            nodes.append(Atom(arg) if kind is Atom else kind(*[nodes[i] for i in arg]))
        return tuple(nodes)

    @cached_property
    def _by_text(self) -> dict[str, int]:
        return {text: i for i, text in enumerate(self.texts)}

    def index_of(self, formula: Formula) -> int | None:
        """The row of formula, else None: found by its printed text, which
        names exactly one formula, so no member node is built."""
        return self._by_text.get(print_formula(formula))

    def __contains__(self, formula: object) -> bool:
        return isinstance(formula, Formula) and self.index_of(formula) is not None

    def __len__(self) -> int:
        return len(self.texts)


def check_atom(name: str) -> None:
    """Refuse a non-atom name; a constant word would print as the constant."""
    if not _ATOM_RE.fullmatch(name) or name in _CONSTANTS:
        raise ValueError(f"invalid atom name {name!r}")


def check_atoms(atoms: Iterable[str]) -> tuple[str, ...]:
    """The atoms as a tuple; refuse a non-atom name, or a name given twice."""
    atoms = tuple(atoms)
    seen = set()
    for a in atoms:
        check_atom(a)
        if a in seen:
            raise ValueError(f"duplicate atom {a!r}")
        seen.add(a)
    return atoms


_BINARY = (And, Implies)  # the universe language is `~ & -> [] <>`


def _base_counts(atom_count: int, depth: int, cap: int) -> Iterator[int]:
    """How many modal atoms (atoms and []/<> members) formula_universe holds
    after each modal level 0..depth, computed without building any.

    Every []/<> image of a target is a new member, so the count is exact:
    |M_d| = |M_0| + 2 * (2 with cap >= 1, else 1) * |M_(d-1)|.
    Lazy, so that a guard stops it before the counts grow huge.
    """
    grows = 4 if cap >= 1 else 2
    count = atom_count
    yield count
    for _ in range(depth):
        count = atom_count + grows * count
        yield count


def formula_universe(atoms: Iterable[str], depth: int, cap: int = 1) -> FormulaUniverse:
    """All formulas over `~ & -> [] <>` of modal depth <= depth over the
    atoms, within the cap.

    Modalities apply to modal atoms (atoms and nested modal formulas) and,
    when cap >= 1, to their single negations; full Boolean structure never
    nests under a modality, which is what keeps depth-2 universes at desk
    scale. Within each modal level, the Boolean connectives combine to
    nesting depth <= cap. The result is subformula-closed, canonically
    ordered, and monotone in depth.
    """
    return FormulaUniverse(tuple(atoms), depth, cap)


def _member_table(atoms: tuple[str, ...], depth: int, cap: int) -> tuple[tuple, tuple, tuple]:
    """The (kinds, args, texts) rows of `formula_universe(atoms, depth, cap)`,
    filled layer by layer, one row per distinct (kind, child rows), each text
    composed from its children's by the printer's own parenthesis rule, then
    sorted. No formula node is built."""
    atoms = check_atoms(atoms)
    if not atoms:
        raise ValueError("a universe needs at least one atom")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    for count in _base_counts(len(atoms), depth, cap):
        check_guard(count, DEFAULT_UNIVERSE_GUARD, "formula universe")
    if cap >= 1:  # the first Boolean round, before any row: no ~f is a modal atom
        check_guard(2 * count + len(_BINARY) * count * count, DEFAULT_UNIVERSE_GUARD,
                    "formula universe")

    kinds: list[type[Formula]] = []
    args: list = []
    sizes: list[int] = []  # the sort key, with the texts
    texts: list[str] = []
    row_of: dict[tuple, int] = {}  # (kind, args) -> row of an atom or unary member

    def row(kind, arg, size: int, text: str) -> int:
        key = (kind, arg)
        found = row_of.get(key)
        if found is None:
            found = row_of[key] = len(kinds)
            kinds.append(kind)
            args.append(arg)
            sizes.append(size)
            texts.append(text)
        return found

    def wrap(op, f: int) -> int:
        return row(op, (f,), sizes[f] + 1, op.symbol + _part(texts[f], kinds[f], op))

    bases = [row(Atom, a, 1, a) for a in atoms]
    for _ in range(depth):
        targets = bases + [wrap(Not, f) for f in bases] if cap >= 1 else bases
        start = len(kinds)  # a []/<> row made before this level is already a base
        for op in (Box, Diamond):
            for f in targets:
                wrap(op, f)
        bases = bases + list(range(start, len(kinds)))

    # Semi-naive layers: a layer is the previous one, then the rows new to
    # it, and the previous round already combined every pair of the previous
    # layer, so a round combines only the pairs with a new side. Each such
    # pair is a new row for each operator, so a round's size is known, and
    # checked, before its binary rows are built.
    layer, known = bases, 0  # known: the layer's leading rows seen last round
    for _ in range(cap):
        in_layer = set(layer)
        grown = layer + [g for g in (wrap(Not, f) for f in layer) if g not in in_layer]
        n = len(layer)
        check_guard(len(grown) + len(_BINARY) * (n * n - known * known),
                    DEFAULT_UNIVERSE_GUARD, "formula universe")
        for op in _BINARY:
            start, infix = len(kinds), f" {op.symbol} "
            rights = [_part(texts[b], kinds[b], op, right=True) for b in layer]
            right_sizes = [sizes[b] + 1 for b in layer]
            sides = (layer, right_sizes, rights)
            new_sides = (layer[known:], right_sizes[known:], rights[known:])
            for i, a in enumerate(layer):
                bs, bsizes, btexts = new_sides if i < known else sides
                left, size = _part(texts[a], kinds[a], op) + infix, sizes[a]
                kinds += [op] * len(bs)
                args += [(a, b) for b in bs]
                sizes += [size + z for z in bsizes]
                texts += [left + t for t in btexts]
            grown += range(start, len(kinds))
        layer, known = grown, n

    order = sorted(layer, key=texts.__getitem__)
    order.sort(key=sizes.__getitem__)  # stable: by size, then by text
    place = [0] * len(kinds)  # row -> canonical position; children are renumbered
    for i, r in enumerate(order):  # through it, and an atom keeps its name
        place[r] = i
    return (
        tuple(map(kinds.__getitem__, order)),
        tuple([arg if type(arg) is str else (place[arg[0]], place[arg[1]]) if len(arg) == 2
               else (place[arg[0]],) for arg in map(args.__getitem__, order)]),
        tuple(map(texts.__getitem__, order)),
    )


def check_modal_operator(universe: FormulaUniverse) -> bool:
    """Executable witness that box/diamond are injective and loop-free on the
    universe: distinct members get distinct images, no member equals its own
    image, and no iterate of up to `universe.depth + 2` applications falls
    back onto the first application.
    """
    members = universe.members
    for wrap in (Box, Diamond):
        if len({wrap(f) for f in members}) != len(members):
            return False
        for f in members:
            once = iterate = wrap(f)
            if once == f:
                return False
            for _ in range(universe.depth + 1):
                iterate = wrap(iterate)
                if iterate == once:
                    return False
    return True


# ---------------------------------------------------------------------------
# Kripke models and satisfaction
# ---------------------------------------------------------------------------

def world_index(names: tuple[str, ...], noun: str) -> dict[str, int]:
    """Each world name's bit position. A name given twice is refused, as is
    one the file formats cannot write back: an empty one, or one with
    whitespace (which splits a line) or `#` (which starts a comment)."""
    index = {w: j for j, w in enumerate(names)}
    if len(index) != len(names):
        raise ValueError(f"duplicate {noun} names")
    for name in names:
        if not _WORLD_RE.fullmatch(name):
            raise ValueError(f"invalid world name {name!r}")
    return index


def successor_masks(index: Mapping[str, int], relation: Iterable[tuple[str, str]],
                    owner: str) -> list[int]:
    """Each world's mask of the worlds it reaches, world w's bit being
    index[w], from pairs in any iterable, read once. A non-pair, or a pair
    with an endpoint outside index, is refused; of the latter, the smallest
    is named, whatever the pairs' order. It is the one reader of such pairs."""
    relation = list(relation)
    outside = [(a, b) for a, b in relation if a not in index or b not in index]
    if outside:
        a, b = min(outside)
        raise ValueError(f"relation endpoint outside the {owner}: ({a}, {b})")
    masks = [0] * len(index)
    for a, b in relation:
        masks[index[a]] |= 1 << index[b]
    return masks


def picked(items: Sequence, mask: int) -> list:
    """The items at the positions of a mask's set bits, in order."""
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def successor_pairs(names: Sequence[str], successors: Iterable[int]) -> list[tuple[str, str]]:
    """Each (world, successor) name pair, in world order: `successor_masks` inverted."""
    return [(a, b) for a, succ in zip(names, successors) for b in picked(names, succ)]


@dataclass(frozen=True, init=False, repr=False)
class KripkeModel:
    """<W, R, V>: worlds in a fixed order, and each world's successors and
    each atom's worlds as an int mask over them, bit j for worlds[j]; the
    views `relation` and `valuation` give them as pairs and name sets. An
    atom true nowhere is dropped, as from the file `render_kripke` writes."""

    worlds: tuple[str, ...]
    successors: tuple[int, ...]
    atoms: Mapping[str, int]

    def __new__(cls, worlds: Iterable[str], relation: Iterable[tuple[str, str]],
                valuation: Mapping[str, Iterable[str]]):
        worlds = tuple(worlds)
        valuation = {atom: frozenset(ws) for atom, ws in dict(valuation).items()}
        index = world_index(worlds, "world")
        successors = successor_masks(index, relation, "model")
        for atom, ws in valuation.items():
            check_atom(atom)
            stray = ws.difference(index)
            if stray:
                raise ValueError(f"valuation of {atom!r} names unknown worlds {sorted(stray)}")
        atoms = {atom: sum([1 << index[w] for w in ws]) for atom, ws in valuation.items()}
        return cls.from_masks(worlds, successors, atoms)

    @classmethod
    def from_masks(cls, worlds: Iterable[str], successors: Iterable[int],
                   atoms: Mapping[str, int]) -> KripkeModel:
        """A model from masks whose names the caller checked; it refuses only
        a mask count other than one per world, or a bit past the last world."""
        worlds, successors = tuple(worlds), tuple(successors)
        atoms, n = {atom: mask for atom, mask in atoms.items() if mask}, len(worlds)
        if len(successors) != n or any(m < 0 or m >> n for m in (*successors, *atoms.values())):
            raise ValueError(f"masks outside the {n} worlds")
        model = object.__new__(cls)  # frozen: the fields go straight into vars
        vars(model).update(worlds=worlds, successors=successors, atoms=atoms)
        return model

    @cached_property
    def relation(self) -> frozenset[tuple[str, str]]:
        return frozenset(successor_pairs(self.worlds, self.successors))

    @cached_property
    def valuation(self) -> dict[str, frozenset[str]]:
        return {atom: frozenset(picked(self.worlds, mask)) for atom, mask in self.atoms.items()}

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.successors))

    def __hash__(self) -> int:  # by the compared fields, as equality goes
        return hash((self.worlds, self.successors, frozenset(self.atoms.items())))

    def __reduce__(self):
        return type(self).from_masks, (self.worlds, self.successors, self.atoms)

    def __repr__(self) -> str:
        return (f"KripkeModel(worlds={self.worlds!r}, relation={self.relation!r}, "
                f"valuation={self.valuation!r})")


_NOWHERE: frozenset[str] = frozenset()

# node kind -> its extension, from the evaluator and its children's extensions
_RULES = {
    Atom: lambda ev, f: ev.model.valuation.get(f.name, _NOWHERE),
    Top: lambda ev, f: ev._all,
    Bottom: lambda ev, f: _NOWHERE,
    Not: lambda ev, f, a: ev._all - a,
    And: lambda ev, f, a, b: a & b,
    Or: lambda ev, f, a, b: a | b,
    Implies: lambda ev, f, a, b: (ev._all - a) | b,
    Iff: lambda ev, f, a, b: ev._all - (a ^ b),
    Box: lambda ev, f, a: frozenset([w for w, succ in ev._successors if succ <= a]),
    Diamond: lambda ev, f, a: frozenset(
        [w for w, succ in ev._successors if not succ.isdisjoint(a)]
    ),
}


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
        self._successors = [(w, frozenset(picked(model.worlds, succ)))  # in world order
                            for w, succ in zip(model.worlds, model.successors)]

    def extension(self, formula: Formula) -> frozenset[str]:
        """The worlds satisfying formula, by a post-order walk on an explicit
        stack, so nesting depth costs memory, not interpreter frames."""
        known = self._extensions
        ext = known.get(formula)
        if ext is None:
            todo = [formula]
            while todo:
                node = todo[-1]
                kids = node.children
                waiting = [kid for kid in kids if kid not in known]
                if waiting:
                    todo += waiting
                else:
                    ext = known[node] = _RULES[type(node)](self, node, *[known[k] for k in kids])
                    todo.pop()
        return ext  # the last node evaluated is the formula at the stack's bottom

    def satisfies(self, world: str, formula: Formula) -> bool:
        if world not in self._all:
            raise ValueError(f"unknown world {world!r}")
        return world in self.extension(formula)


def satisfies(model: KripkeModel, world: str, formula: Formula) -> bool:
    """Standard satisfaction: box over all successors, diamond over some."""
    return Evaluator(model).satisfies(world, formula)


def world_theory(model: KripkeModel, world: str, universe: FormulaUniverse) -> frozenset[Formula]:
    """The universe members true at the world."""
    ev = Evaluator(model)
    return frozenset(f for f in universe.members if ev.satisfies(world, f))
