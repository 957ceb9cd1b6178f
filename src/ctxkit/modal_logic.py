"""Modal formulas, their parser and printer, bounded universes, and Kripke models.

Formula nodes are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): building a node whose kind and fields
already exist returns the existing node, so equality and hashing are object
identity. Every kind is built by one constructor, which looks the node up by
(kind, *fields) in a `weakref.WeakValueDictionary`, so a node leaves the
table when nothing else holds it, and builds it only on a miss; a node
holds its fields and its children, never its text. Syntax is still
never normalized, so `[]p` and `~<>~p` are different set members even
though they are semantically equivalent. That distinction is load-bearing:
world theories must witness syntax, and the box/diamond constructors double
as the loop-free injective state tagging the framework asks of a modal
operator.

The parser, the one text writer (behind both `print_formula` and `repr`)
and the evaluator walk explicit stacks, so a formula's depth costs memory
linear in its size, never interpreter frames. Precedence and associativity
are declared once, on the node classes, and the parser and the printer read
them there. A formula of more nodes than the guard (`DEFAULT_FORMULA_GUARD`,
or `CTXKIT_GUARD`) is refused before any of its nodes is built, so one line
of input cannot hold an unbounded number of nodes.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Iterable, Iterator, Mapping, Sequence

from ctxkit.core import brief, check_guard, position

DEFAULT_UNIVERSE_GUARD = 50_000
DEFAULT_FORMULA_GUARD = 10_000  # nodes of one parsed formula

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")  # an atom, or a word in _CONSTANTS
_WORLD_RE = re.compile(r"[^\s#]+")  # a world name: one token that no comment cuts

# printing precedences: a child binding looser than its floor gets parentheses
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4, 5, 6

_set = object.__setattr__  # nodes refuse setattr once built


# (kind, *fields) -> the one live node with them
_NODES: weakref.WeakValueDictionary[tuple, Formula] = weakref.WeakValueDictionary()


def _new(cls, *fields):
    """The live node of kind cls with these fields, else a new one."""
    key = (cls,) + fields
    node = _NODES.get(key)
    return _intern(cls, key, fields) if node is None else node


def _intern(cls, key: tuple, fields: tuple) -> Formula:
    """Build the node of kind cls and enter it under key: the one place a node is built."""
    if len(fields) != len(cls.fields):
        raise TypeError(f"{cls.__name__} takes {len(cls.fields)} fields, not {len(fields)}")
    if cls is Atom:
        check_atom(fields[0])  # a name that prints as itself, so text reads back
    node = object.__new__(cls)
    for name, value in zip(cls.fields, fields):
        _set(node, name, value)
    _set(node, "children", () if cls is Atom else fields)
    _NODES[key] = node
    return node


class Formula:
    """Base class for formula nodes: immutable, hash-consed, compared by identity.

    Each kind declares its `fields` (children, except an atom's name), its
    `symbol`, its printing precedence `prec`, and whether it associates to
    the right. A node holds its fields and its children tuple, never its
    text. Every kind is built by the one constructor, `_new`, with its
    fields in order; an atom's name must print as itself.
    """

    __slots__ = ("children", "__weakref__")
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
        """Constructor syntax, such as `Not(Atom('p'))`."""
        return _write(self, _constructed)


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
# writing: minimal parentheses, canonical whitespace
# ---------------------------------------------------------------------------

def _write(formula: Formula, spell) -> str:
    """A formula's text, written top down: spell(node) gives a node's text
    as strings and child nodes, and each child is spelled in its place from
    an explicit stack, so nesting depth costs no interpreter frames."""
    out: list[str] = []
    todo: list = [formula]  # nodes still to spell, and strings to copy out
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo += reversed(spell(item))
    return "".join(out)


def _constructed(node: Formula) -> tuple:
    """A node in constructor syntax: its kind, then its name or its children."""
    kids = [repr(node.name)] if type(node) is Atom else node.children
    commas = [piece for kid in kids[1:] for piece in (", ", kid)]  # one before each later kid
    return (f"{type(node).__name__}(", *kids[:1], *commas, ")")


def _bare(kid: type[Formula], op: type[Formula], right: bool = False) -> bool:
    """Does a child of kind kid print without parentheses under op? Not when
    it binds looser than op admits on that side. The side a binary node
    associates to may hold a child of its own precedence; a unary node's
    operand is its left side.
    """
    return kid.prec >= (op.prec - op.right_assoc + 1 if right else op.prec + op.right_assoc)


def _part(text: str, kid: type[Formula], op: type[Formula], right: bool = False) -> str:
    """A child's text as it prints under op."""
    return text if _bare(kid, op, right) else f"({text})"


def _printed(node: Formula) -> tuple:
    """A node as print_formula spells it: its symbol before its operand, or
    between its sides, and a child in parentheses where `_bare` says so."""
    sides = [(kid,) if _bare(type(kid), type(node), right) else ("(", kid, ")")
             for right, kid in enumerate(node.children)]  # right: 0, then 1
    if len(sides) == 2:
        return (*sides[0], f" {node.symbol} ", *sides[1])
    return (node.symbol, *sides[0]) if sides else (node.symbol,)


def print_formula(formula: Formula) -> str:
    """Render a formula so that parse_formula reads it back unchanged."""
    return _write(formula, _printed)


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
            raise FormulaSyntaxError(position, repr(found), _UNARY_EXPECTED)  # one character
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
                raise FormulaSyntaxError(position, brief(found), _UNARY_EXPECTED)
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
                position, brief(found), ("')'",) if open_parens else _END_EXPECTED
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
        raise ValueError(f"invalid atom name {brief(name)}")


def check_atoms(atoms: Iterable[str]) -> tuple[str, ...]:
    """The atoms as a tuple; refuse a non-atom name, or a name given twice."""
    atoms = tuple(atoms)
    seen = set()
    for a in atoms:
        check_atom(a)
        if a in seen:
            raise ValueError(f"duplicate atom {brief(a)}")
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


# ---------------------------------------------------------------------------
# Kripke models and satisfaction
# ---------------------------------------------------------------------------

def picked(items: Sequence, mask: int) -> list:
    """The items at the positions of a mask's set bits, in order."""
    out = []
    while mask:
        out.append(items[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return out


def successor_pairs(names: Sequence[str], successors: Iterable[int]) -> list[tuple[str, str]]:
    """Each (world, successor) name pair, in world order: the successor masks inverted."""
    return [(a, b) for a, succ in zip(names, successors) for b in picked(names, succ)]


@dataclass(frozen=True, init=False, repr=False)
class KripkeModel:
    """<W, R, V>: worlds in a fixed order, and each world's successors and
    each atom's worlds as an int mask over them, bit j for worlds[j]; the
    views `relation` and `valuation` give them as pairs and name sets. An
    atom true nowhere is dropped, as from the file `render_kripke` writes.

    The constructor is the one reader of name pairs, read once from any
    iterable. It refuses a world named twice or one no file can write back
    (empty, or holding whitespace or `#`), then a non-pair or a pair with an
    endpoint outside the worlds, naming the smallest whatever their order."""

    worlds: tuple[str, ...]
    successors: tuple[int, ...]
    atoms: Mapping[str, int]

    def __new__(cls, worlds: Iterable[str], relation: Iterable[tuple[str, str]],
                valuation: Mapping[str, Iterable[str]]):
        worlds = tuple(worlds)
        valuation = {atom: frozenset(ws) for atom, ws in dict(valuation).items()}
        index = {w: j for j, w in enumerate(worlds)}  # each world's bit position
        if len(index) != len(worlds):
            raise ValueError("duplicate world names")
        for name in worlds:
            if not _WORLD_RE.fullmatch(name):
                raise ValueError(f"invalid world name {brief(name)}")
        relation = list(relation)
        outside = [(a, b) for a, b in relation if a not in index or b not in index]
        if outside:
            a, b = min(outside)
            raise ValueError(f"relation endpoint outside the model: ({a}, {b})")
        successors = [0] * len(worlds)
        for a, b in relation:
            successors[index[a]] |= 1 << index[b]
        for atom, ws in valuation.items():
            check_atom(atom)
            stray = ws.difference(index)
            if stray:
                raise ValueError(f"valuation of {brief(atom)} names unknown worlds {sorted(stray)}")
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


# node kind -> its mask, from the evaluator and its children's masks or an
# atom's name. <>A is the OR of the predecessor masks of A's worlds, the
# backward image of symbolic model checking (Clarke, Grumberg & Peled, Model
# Checking, 1999, chapter 4), and []A is the complement of <> of A's complement.
_MASK_RULES = {
    Atom: lambda ev, name: ev.model.atoms.get(name, 0),
    Top: lambda ev: ev.everywhere,
    Bottom: lambda ev: 0,
    Not: lambda ev, a: ev.everywhere ^ a,
    And: lambda ev, a, b: a & b,
    Or: lambda ev, a, b: a | b,
    Implies: lambda ev, a, b: (ev.everywhere ^ a) | b,
    Iff: lambda ev, a, b: ev.everywhere ^ a ^ b,
    Box: lambda ev, a: ev.everywhere ^ ev.diamond(ev.everywhere ^ a),
    Diamond: lambda ev, a: ev.diamond(a),
}


class Evaluator:
    """One satisfaction session over a fixed model, on int masks over its
    worlds. `_MASK_RULES` serves two walks: `mask` over a formula's nodes,
    memoized for this evaluator alone, and `member_masks` over a universe's
    member rows, which builds no node."""

    def __init__(self, model: KripkeModel):
        self.model, self.everywhere, self._masks = model, (1 << len(model.worlds)) - 1, {}
        self._predecessors = before = [0] * len(model.worlds)  # one transposition
        for j, succ in enumerate(model.successors):
            for k in picked(range(len(before)), succ):
                before[k] |= 1 << j

    def diamond(self, a: int) -> int:
        return reduce(int.__or__, picked(self._predecessors, a), 0)

    def mask(self, formula: Formula) -> int:
        """The worlds satisfying formula, by a post-order walk on an explicit
        stack, so nesting depth costs memory, not interpreter frames."""
        known, todo = self._masks, [formula]
        while formula not in known:  # it is computed last, at the stack's bottom
            node = todo[-1]
            waiting = [kid for kid in node.children if kid not in known]
            if waiting:
                todo += waiting
                continue
            args = [node.name] if type(node) is Atom else map(known.get, node.children)
            known[node] = _MASK_RULES[type(node)](self, *args)
            todo.pop()
        return known[formula]

    def member_masks(self, universe: FormulaUniverse) -> list[int]:
        """Every member's mask, in member order, in one pass over the rows."""
        masks: list[int] = []
        for kind, arg in zip(universe.kinds, universe.args):
            args = [arg] if kind is Atom else [masks[i] for i in arg]  # children come first
            masks.append(_MASK_RULES[kind](self, *args))
        return masks

    def extension(self, formula: Formula) -> frozenset[str]:
        return frozenset(picked(self.model.worlds, self.mask(formula)))

    def satisfies(self, world: str, formula: Formula) -> bool:
        j = position(self.model.worlds, world, "world")
        return self.mask(formula) >> j & 1 == 1


def satisfies(model: KripkeModel, world: str, formula: Formula) -> bool:
    """Standard satisfaction: box over all successors, diamond over some."""
    return Evaluator(model).satisfies(world, formula)


def world_theory(model: KripkeModel, world: str, universe: FormulaUniverse) -> frozenset[Formula]:
    """The universe members true at the world: those whose mask, from one
    walk over the member rows, holds the world's bit."""
    j = position(model.worlds, world, "world")
    masks = Evaluator(model).member_masks(universe)
    return frozenset(f for f, mask in zip(universe.members, masks) if mask >> j & 1)
