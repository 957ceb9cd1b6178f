"""Independent brute-force oracles used to freeze expected test values.

Everything in here works on plain dicts and tuples and re-derives results
directly from the definitions, without calling the library code it is used
to check. Deliberately naive: enumerate, filter, compare.
"""

from __future__ import annotations

import functools
import itertools
import re

# the node constructors serve tokenize and recursive_parse, the reference parser
from ctxkit.modal_logic import (
    BOTTOM, TOP, And, Atom, Box, Diamond, FormulaSyntaxError, Iff, Implies, Not, Or,
    _UNARY_EXPECTED,
)

Table = dict  # {(entity, time): state}


# ---------------------------------------------------------------------------
# contexts as lists of {(entity, time): state} dicts
# ---------------------------------------------------------------------------

def enumerate_tables(states, entities, times):
    """All total (entity, time) -> state dicts, one per function."""
    cells = [(e, t) for e in entities for t in times]
    out = []
    for combo in itertools.product(states, repeat=len(cells)):
        out.append(dict(zip(cells, combo)))
    return out


def snap(table, entities, t):
    return tuple(table[(e, t)] for e in entities)


def consistency(tables, ref, entities, times, t_index):
    """Members agreeing with ref on every cell at time positions <= t_index."""
    kept = []
    for w in tables:
        if all(w[(e, times[k])] == ref[(e, times[k])]
               for e in entities for k in range(t_index + 1)):
            kept.append(w)
    return kept


def future_bundle(tables, ref, entities, times, t_index):
    """Suffix traces (tuples of snapshots from t_index on) of the consistency set."""
    members = consistency(tables, ref, entities, times, t_index)
    return {
        tuple(snap(w, entities, times[k]) for k in range(t_index, len(times)))
        for w in members
    }


def _bundle_table(tables, entities, times):
    """(table position, time position) -> future bundle, each built once."""
    return functools.cache(lambda a, i: future_bundle(tables, tables[a], entities, times, i))


def _bundles_agree(b1, b2, i, j, n, mode):
    if mode == "literal":
        return n - i == n - j and b1 == b2
    k = min(n - i, n - j)
    return {tr[:k] for tr in b1} == {tr[:k] for tr in b2}


def determinable(tables, entities, times, mode):
    """Definition-level determinability check: compare future bundles for
    every pair of occurrences of equal snapshots.

    literal: suffixes must have equal length (the unique monotone bijection
    on a finite chain) and the untruncated bundles must agree.
    windowed: bundles are compared after truncation to the shorter suffix.
    Each occurrence's bundle is built once and reused for all its pairs.
    """
    n = len(times)
    bundle = _bundle_table(tables, entities, times)
    for a, w1 in enumerate(tables):
        for b, w2 in enumerate(tables):
            for i in range(n):
                for j in range(n):
                    if snap(w1, entities, times[i]) != snap(w2, entities, times[j]):
                        continue
                    if not _bundles_agree(bundle(a, i), bundle(b, j), i, j, n, mode):
                        return False
    return True


def first_failing_pair(tables, entities, times, mode):
    """The first equal-snapshot occurrence pair whose bundles disagree.

    Canonical scan order: snapshots by first occurrence (tables in order,
    then times); within one snapshot, the pairs (x, y) of its occurrences
    with x before y, in that same order. Returns (a, i, b, j, bundle_a,
    bundle_b) with table positions a, b and time positions i, j, or None
    when every pair agrees.
    """
    n = len(times)
    bundle = _bundle_table(tables, entities, times)
    occurrences = {}
    for a, w in enumerate(tables):
        for i in range(n):
            occurrences.setdefault(snap(w, entities, times[i]), []).append((a, i))
    for occs in occurrences.values():
        for x, (a, i) in enumerate(occs):
            for b, j in occs[x + 1 :]:
                if not _bundles_agree(bundle(a, i), bundle(b, j), i, j, n, mode):
                    return a, i, b, j, bundle(a, i), bundle(b, j)
    return None


def next_set(tables, w, entities, times, t_index):
    """Snapshots one step after t_index across the consistency set of w."""
    members = consistency(tables, w, entities, times, t_index)
    return frozenset(snap(v, entities, times[t_index + 1]) for v in members)


def extract_iterator(tables, entities, times):
    """The snapshot -> next-snapshot-set map, or the first conflict.

    Scan order: tables in order, then times. Returns (images, None), where
    a snapshot seen only at the final time gets the empty image, or (None,
    (snapshot, first image, second image, (a, i), (b, j))) for the first
    occurrence (b, j) demanding another image than the snapshot's first
    occurrence (a, i) did; a, b are table positions, i, j time positions.
    """
    images, first = {}, {}
    for b, w in enumerate(tables):
        for j in range(len(times) - 1):
            s = snap(w, entities, times[j])
            nxt = next_set(tables, w, entities, times, j)
            if s not in images:
                images[s], first[s] = nxt, (b, j)
            elif images[s] != nxt:
                return None, (s, images[s], nxt, first[s], (b, j))
    for w in tables:
        images.setdefault(snap(w, entities, times[-1]), frozenset())
    return images, None


def has_iterator(tables, entities, times):
    """Does one snapshot -> next-snapshot-set map fit every occurrence?"""
    return extract_iterator(tables, entities, times)[0] is not None


def deterministic(tables, entities, times):
    """Exactly one next snapshot for every occurrence at a non-final time."""
    return all(
        len(next_set(tables, w, entities, times, i)) == 1
        for w in tables
        for i in range(len(times) - 1)
    )


# ---------------------------------------------------------------------------
# the Alice/Bob scenario, filtered by hand over the raw function space
# ---------------------------------------------------------------------------

ALICE_BOB_STATES = ("Home", "Out")
ALICE_BOB_ENTITIES = ("Alice", "Bob")


def alice_bob_tables(horizon, odd=False):
    """Brute-force filter over all |S|^(2*horizon) assignments."""
    times = list(range(horizon))
    kept = []
    for w in enumerate_tables(ALICE_BOB_STATES, ALICE_BOB_ENTITIES, times):
        ok = all(w[("Bob", t)] != "Home" or w[("Alice", t + 1)] == "Home"
                 for t in range(horizon - 1))
        if ok and odd:
            ok = all(w[("Bob", t)] == "Home" for t in range(1, horizon, 2))
        if ok:
            kept.append(w)
    return kept


def table_key(table):
    """Order-free canonical form for comparing instance sets."""
    return frozenset(table.items())


# ---------------------------------------------------------------------------
# context files, read token by token with no line memo
# ---------------------------------------------------------------------------

def parse_context_tokenwise(text, source="<string>"):
    """Reference reader for context files: every cell token of every line is
    checked afresh, in file order.

    Returns (signature, kept cell tuples in file order, {name: cells} for
    every instance, a duplicate's name included, duplicate-instance warning
    texts). Only the header checks (`check_alphabet`) and the error type
    (`ModelFileError`, so that messages and line numbers compare directly)
    come from the library.
    """
    from ctxkit.core import Signature, check_alphabet
    from ctxkit.formats import ModelFileError

    headers = {}
    sig = None
    names = {}
    kept = []
    warned = []

    current_name = None
    current_line = None
    cells = []

    def close_instance():
        nonlocal current_name, current_line
        if current_name is None:
            return
        if None in cells:
            e, t = divmod(cells.index(None), len(sig.times))
            raise ModelFileError(
                source,
                current_line,
                f"instance {current_name!r} is missing cell {sig.entities[e]}@{sig.times[t]}",
            )
        row = tuple(cells)
        if row in kept:
            warned.append(f"{source}: duplicate instance {current_name!r} collapsed (set semantics)")
        else:
            kept.append(row)
        names[current_name] = row
        current_name, current_line = None, None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        first = content.split()[0]
        if first in ("states:", "entities:", "time:"):
            key = first[:-1]
            if sig is not None or key in headers:
                raise ModelFileError(source, line_no, f"{first} after instances or repeated")
            headers[key] = tuple(content.split()[1:])
            try:  # each header's symbols are checked on its own line
                check_alphabet({"states": "state", "entities": "entity", "time": "time"}[key],
                               headers[key])
            except ValueError as exc:
                raise ModelFileError(source, line_no, str(exc)) from None
            continue
        if sig is None:
            missing = [k for k in ("states", "entities", "time") if k not in headers]
            if missing:
                raise ModelFileError(
                    source, line_no, f"missing header line(s): {', '.join(missing)}"
                )
            sig = Signature(headers["states"], headers["entities"], headers["time"])
            position = {(e, t): k for k, (e, t) in
                        enumerate((e, t) for e in sig.entities for t in sig.times)}
        if first == "instance":
            close_instance()
            rest = content[len("instance"):].strip()
            if not rest.endswith(":") or not rest[:-1].strip():
                raise ModelFileError(source, line_no, "expected `instance <name>:`")
            current_name = rest[:-1].strip()
            current_line = line_no
            if current_name in names:
                raise ModelFileError(source, line_no, f"instance name {current_name!r} reused")
            cells = [None] * len(position)
            continue
        if current_name is None:
            raise ModelFileError(source, line_no, f"unexpected line {content!r}")
        for token in content.split():
            entity, at, rest = token.partition("@")
            time, eq, state = rest.partition("=")
            if not at or not eq or not entity or not time or not state:
                raise ModelFileError(
                    source, line_no, f"malformed cell {token!r}, expected entity@time=state"
                )
            k = position.get((entity, time))
            if k is None:
                if entity not in sig.entities:
                    raise ModelFileError(source, line_no, f"unknown entity {entity!r}")
                raise ModelFileError(source, line_no, f"unknown time {time!r}")
            if state not in sig.states:
                raise ModelFileError(source, line_no, f"unknown state {state!r}")
            if cells[k] is not None:
                raise ModelFileError(source, line_no, f"cell {entity}@{time} given twice")
            cells[k] = state

    if sig is None:
        if not headers:
            raise ModelFileError(source, None, "empty context file")
        missing = [k for k in ("states", "entities", "time") if k not in headers]
        if missing:
            raise ModelFileError(source, None, f"missing header line(s): {', '.join(missing)}")
        sig = Signature(headers["states"], headers["entities"], headers["time"])
    close_instance()
    return sig, kept, names, warned


# ---------------------------------------------------------------------------
# Kripke satisfaction by the textbook clauses: per world by plain
# recursion, no sharing or caching, and per formula on frozensets
# ---------------------------------------------------------------------------

def naive_satisfies(worlds, relation, valuation, world, formula):
    """Textbook satisfaction clauses over (worlds, relation, valuation).

    formula is a ctxkit AST node; only its structure is consumed here, the
    evaluation path is written out independently.
    """
    from ctxkit.modal_logic import (
        And, Atom, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top,
    )

    def sat(w, f):
        if isinstance(f, Atom):
            return w in valuation.get(f.name, ())
        if isinstance(f, Top):
            return True
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Not):
            return not sat(w, f.operand)
        if isinstance(f, And):
            return sat(w, f.left) and sat(w, f.right)
        if isinstance(f, Or):
            return sat(w, f.left) or sat(w, f.right)
        if isinstance(f, Implies):
            return (not sat(w, f.left)) or sat(w, f.right)
        if isinstance(f, Iff):
            return sat(w, f.left) == sat(w, f.right)
        if isinstance(f, Box):
            return all(sat(v, f.operand) for (u, v) in relation if u == w)
        if isinstance(f, Diamond):
            return any(sat(v, f.operand) for (u, v) in relation if u == w)
        raise TypeError(f"unknown formula node {f!r}")

    return sat(world, formula)


def frozenset_extensions(worlds, relation, valuation, members):
    """{formula: the worlds satisfying it} for each member and each of its
    subformulas: the textbook clauses on frozensets of world names, written
    out apart from the library's evaluators, each formula's set made once
    from its children's."""
    from ctxkit.modal_logic import (
        And, Atom, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top,
    )

    everywhere = frozenset(worlds)
    successors = {w: frozenset(v for u, v in relation if u == w) for w in worlds}
    extensions = {}

    def extension(f):
        if f in extensions:
            return extensions[f]
        if isinstance(f, Atom):
            out = frozenset(valuation.get(f.name, ()))
        elif isinstance(f, Top):
            out = everywhere
        elif isinstance(f, Bottom):
            out = frozenset()
        elif isinstance(f, Not):
            out = everywhere - extension(f.operand)
        elif isinstance(f, And):
            out = extension(f.left) & extension(f.right)
        elif isinstance(f, Or):
            out = extension(f.left) | extension(f.right)
        elif isinstance(f, Implies):
            out = (everywhere - extension(f.left)) | extension(f.right)
        elif isinstance(f, Iff):
            out = everywhere - (extension(f.left) ^ extension(f.right))
        elif isinstance(f, Box):
            inner = extension(f.operand)
            out = frozenset(w for w in worlds if successors[w] <= inner)
        elif isinstance(f, Diamond):
            inner = extension(f.operand)
            out = frozenset(w for w in worlds if successors[w] & inner)
        else:
            raise TypeError(f"unknown formula node {f!r}")
        extensions[f] = out
        return out

    for f in members:
        extension(f)
    return extensions


# ---------------------------------------------------------------------------
# formula text, size and modal depth by plain recursion, nothing memoised
# ---------------------------------------------------------------------------

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5


def naive_print(formula, floor=0):
    """Minimal-parenthesis text, one isinstance clause per node kind."""
    from ctxkit.modal_logic import (
        And, Atom, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top,
    )

    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Top):
        return "true"
    if isinstance(formula, Bottom):
        return "false"
    if isinstance(formula, Not):
        return "~" + naive_print(formula.operand, _PREC_UNARY)
    if isinstance(formula, Box):
        return "[]" + naive_print(formula.operand, _PREC_UNARY)
    if isinstance(formula, Diamond):
        return "<>" + naive_print(formula.operand, _PREC_UNARY)
    if isinstance(formula, And):
        text = (f"{naive_print(formula.left, _PREC_AND)} & "
                f"{naive_print(formula.right, _PREC_AND + 1)}")
        own = _PREC_AND
    elif isinstance(formula, Or):
        text = (f"{naive_print(formula.left, _PREC_OR)} | "
                f"{naive_print(formula.right, _PREC_OR + 1)}")
        own = _PREC_OR
    elif isinstance(formula, Implies):
        # right-associative
        text = (f"{naive_print(formula.left, _PREC_IMP + 1)} -> "
                f"{naive_print(formula.right, _PREC_IMP)}")
        own = _PREC_IMP
    elif isinstance(formula, Iff):
        text = (f"{naive_print(formula.left, _PREC_IFF)} <-> "
                f"{naive_print(formula.right, _PREC_IFF + 1)}")
        own = _PREC_IFF
    else:
        raise TypeError(f"unknown formula node {formula!r}")
    return f"({text})" if own < floor else text


def _formula_children(formula):
    if isinstance(formula, (Not, Box, Diamond)):
        return (formula.operand,)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return (formula.left, formula.right)
    return ()


def subformulas(formula):
    """The formula and all of its descendants, read off the node fields."""
    out, todo = {formula}, [formula]
    while todo:
        for kid in _formula_children(todo.pop()):
            if kid not in out:
                out.add(kid)
                todo.append(kid)
    return out


def naive_size(formula):
    """Node count of the tree, shared subtrees counted at every occurrence."""
    return 1 + sum(naive_size(kid) for kid in _formula_children(formula))


# ---------------------------------------------------------------------------
# formula parsing by recursive descent, one method per precedence level, on
# a tokenizer that tries each fixed token at each position; only the node
# constructors come from the library
# ---------------------------------------------------------------------------

FIXED_TOKENS = ("<->", "<>", "->", "[]", "~", "&", "|", "(", ")")
ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        for tok in FIXED_TOKENS:
            if text.startswith(tok, i):
                tokens.append((tok, tok, i))
                i += len(tok)
                break
        else:
            match = ATOM_RE.match(text, i)
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
        self.tokens = tokenize(text)
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


def recursive_parse(text):
    """The formula the recursive-descent parser reads from text."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# modal quotient: worlds grouped by their whole theory, every membership
# decided by naive_satisfies
# ---------------------------------------------------------------------------

def full_theory_quotient(worlds, relation, valuation, members):
    """[(sorted class worlds, class theory)] ordered by smallest world name."""
    groups = {}
    for w in worlds:
        theory = frozenset(
            f for f in members if naive_satisfies(worlds, relation, valuation, w, f)
        )
        groups.setdefault(theory, []).append(w)
    return sorted((tuple(sorted(ws)), theory) for theory, ws in groups.items())


# ---------------------------------------------------------------------------
# bounded formula universes by building every member node in sets and
# sorting the nodes on (size, naive text): the construction the member table
# replaced, each guard's figure counted from these sets
# ---------------------------------------------------------------------------

def _reference_check(size, guard):
    from ctxkit.core import SizeGuardError

    if size > guard:
        raise SizeGuardError(size, guard, "formula universe")


def _reference_boolean_layers(base, cap, guard):
    """base after cap Boolean rounds. A round adds its layer's negations and
    every & and -> of two layer members. Only a pair with a side new to the
    layer gives new formulas, since last round combined the others, so the
    round is refused on that count before any pair is combined, and the
    round built must have that size."""
    layer, previous = set(base), set()
    for _ in range(cap):
        grown = layer | {Not(f) for f in layer}
        new = layer - previous
        # a new left side, or an old left side and a new right one
        pairs = len(new) * len(layer) + len(previous) * len(new)
        size = len(grown) + 2 * pairs
        _reference_check(size, guard)
        for op in (And, Implies):
            grown |= {op(a, b) for a in layer for b in layer}
        assert len(grown) == size, (len(grown), size)
        layer, previous = grown, layer
    return layer


def reference_universe(atoms, depth, cap):
    """The member nodes of formula_universe(atoms, depth, cap) in canonical
    order, or the ValueError it raises, under the CTXKIT_GUARD in force."""
    from ctxkit.core import effective_guard
    from ctxkit.modal_logic import _ATOM_RE, DEFAULT_UNIVERSE_GUARD

    atoms = tuple(atoms)
    if not atoms:
        raise ValueError("a universe needs at least one atom")
    seen = set()
    for a in atoms:
        if not _ATOM_RE.fullmatch(a) or a in ("true", "false"):
            raise ValueError(f"invalid atom name {a!r}")
        if a in seen:
            raise ValueError(f"duplicate atom {a!r}")
        seen.add(a)
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if cap < 0:
        raise ValueError("cap must be non-negative")
    limit = effective_guard(DEFAULT_UNIVERSE_GUARD)

    # the modal atoms of each level, each level checked once it is built
    bases = {Atom(a) for a in atoms}
    _reference_check(len(bases), limit)
    for _ in range(depth):
        targets = bases | {Not(f) for f in bases} if cap >= 1 else set(bases)
        bases |= {Box(f) for f in targets} | {Diamond(f) for f in targets}
        _reference_check(len(bases), limit)
    members = _reference_boolean_layers(bases, cap, limit)
    return sorted(members, key=lambda f: (naive_size(f), naive_print(f)))


# ---------------------------------------------------------------------------
# modal contexts as dicts of formula frozensets: the box/diamond check the
# column form replaced, on plain data, and the column table they stand for
# ---------------------------------------------------------------------------

def frozenset_violations(names, theories, relation, members):
    """[(world, formula under the operator, operator, side)] of a context
    given as {world: frozenset of formulas}, in the order of a scan over
    worlds, then the universe's boxes and then its diamonds, each in member
    order."""
    boxed = [(f.operand, f) for f in members if isinstance(f, Box)]
    diamonded = [(f.operand, f) for f in members if isinstance(f, Diamond)]
    out = []
    for w in names:
        own = theories[w]
        theirs = [theories[v] for v in names if (w, v) in relation]
        for operator, pairs, holds in (("box", boxed, all), ("diamond", diamonded, any)):
            for s, op_s in pairs:
                condition = holds(s in theory for theory in theirs)
                if op_s in own and not condition:
                    out.append((w, s, operator, "forward"))
                elif condition and op_s not in own:
                    out.append((w, s, operator, "backward"))
    return out


def modal_context_of(names, theories, relation, universe):
    """The ModalContext in which world names[j] stores the formulas
    theories[names[j]]: its column table, built one formula at a time."""
    from ctxkit.modal_context import ModalContext

    columns = [0] * len(universe)
    for j, name in enumerate(names):
        for f in theories[name]:
            columns[universe.index_of(f)] |= 1 << j
    return ModalContext(names, columns, relation, universe)


# ---------------------------------------------------------------------------
# the requotient check as a second quotient: the induced model quotiented
# by `frozenset_extensions`' theories, which share no code with the mask
# rule or the library evaluator, and its classes matched to the context's
# worlds by their stored theories, with the relation compared through that
# renaming
# ---------------------------------------------------------------------------

def reference_requotient(mc):
    """Does quotienting the induced Kripke model of mc (its worlds, its
    relation, and atoms valuated by stored membership) reproduce mc up to
    renaming?"""
    u, names = mc.universe, mc.world_names
    valuation = {arg: frozenset([w for w, row in zip(names, mc.rows) if row[i]])
                 for i, (kind, arg) in enumerate(zip(u.kinds, u.args)) if kind is Atom}
    extension = frozenset_extensions(names, mc.relation, valuation, u.members)
    theories = {w: [] for w in names}  # world -> the members it satisfies, in order
    for i, f in enumerate(u.members):
        for w in extension[f]:
            theories[w].append(i)
    classes: dict[tuple[int, ...], list[str]] = {}
    for w in names:
        classes.setdefault(tuple(theories[w]), []).append(w)
    if len(classes) != len(names):
        return False
    class_of = {w: theory for theory, ws in classes.items() for w in ws}
    rename = {}
    for w, row in zip(names, mc.rows):
        stored = tuple(i for i, bit in enumerate(row) if bit)
        if stored not in classes:
            return False
        rename[w] = stored
    lifted = {(class_of[a], class_of[b]) for a, b in mc.relation}
    return {(rename[a], rename[b]) for a, b in mc.relation} == lifted


# ---------------------------------------------------------------------------
# the .mctx loader without the whole-line lookup of canonical `has` lines
# ---------------------------------------------------------------------------

def reference_parse_modal_context(text, source="<string>"):
    """`parse_modal_context` line by line, with no whole-line lookup: each
    meaningful line is split into its directive, and each `has` line's text
    is looked up among the member texts or else parsed."""
    from ctxkit.formats import ModelFileError
    from ctxkit.modal_context import ModalContext
    from ctxkit.modal_logic import formula_universe, parse_formula, print_formula

    universe = None
    columns = []  # member -> mask over the cworlds
    names = {}  # each cworld's line, in declaration order
    relation = set()
    bit = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        directive = content.split(None, 1)[0]
        if directive == "has":  # the most common line: a text lookup and a bit
            if not bit:  # no cworld yet, and perhaps no universe either
                raise ModelFileError(source, line_no, "`has` before any cworld"
                                     if universe is not None
                                     else "universe header must come first")
            written = content[len("has") :].strip()
            i = row_of.get(written)
            if i is None:  # not canonical text: parse it
                try:
                    formula = parse_formula(written)
                except ValueError as exc:
                    raise ModelFileError(source, line_no, str(exc)) from None
                i = universe.index_of(formula)
                if i is None:
                    raise ModelFileError(
                        source,
                        line_no,
                        f"formula {print_formula(formula)} is outside the declared universe",
                    )
            columns[i] |= bit
            continue
        parts = content.split()  # a formula is not split
        if directive == "universe":
            if universe is not None:
                raise ModelFileError(source, line_no, "repeated universe header")
            fields = dict(
                part.split("=", 1) for part in parts[1:] if "=" in part
            )
            if set(fields) != {"atoms", "depth", "cap"} or len(fields) != len(parts) - 1:
                raise ModelFileError(
                    source, line_no, "expected `universe atoms=<list> depth=<d> cap=<k>`"
                )
            for key in ("depth", "cap"):
                if not (fields[key].isascii() and fields[key].isdigit()):
                    raise ModelFileError(
                        source,
                        line_no,
                        f"universe {key} must be a non-negative integer, got {fields[key]!r}",
                    )
            try:
                universe = formula_universe(
                    tuple(fields["atoms"].split(",")),
                    int(fields["depth"]),
                    cap=int(fields["cap"]),
                )
            except ValueError as exc:
                raise ModelFileError(source, line_no, str(exc)) from None
            columns = [0] * len(universe)
            row_of = {text: i for i, text in enumerate(universe.texts)}
            continue
        if universe is None:
            raise ModelFileError(source, line_no, "universe header must come first")
        if directive == "cworld":
            if len(parts) != 2:
                raise ModelFileError(source, line_no, "expected `cworld <name>`")
            if parts[1] in names:
                raise ModelFileError(source, line_no, f"cworld {parts[1]!r} declared twice")
            bit = 1 << len(names)
            names[parts[1]] = line_no
        elif directive == "cedge":
            if len(parts) != 3:
                raise ModelFileError(source, line_no, "expected `cedge <from> <to>`")
            for name in parts[1:]:
                if name not in names:
                    raise ModelFileError(source, line_no, f"unknown cworld {name!r}")
            relation.add((parts[1], parts[2]))
        else:
            raise ModelFileError(source, line_no, f"unknown directive {directive!r}")

    if universe is None:
        raise ModelFileError(source, None, "empty modal context file")
    try:
        return ModalContext(tuple(names), columns, frozenset(relation), universe)
    except ValueError as exc:  # two cworlds store one set: the later one's line
        raise ModelFileError(source, names[exc.pair[1]], str(exc)) from None


def reference_parse_kripke(text, source="<string>"):
    """`parse_kripke` line by line, as plain values: (worlds in declaration
    order, the set of edge pairs, atom -> the set of its worlds), with the
    same error messages and line numbers, and no model or mask built."""
    from ctxkit.formats import ModelFileError

    worlds, relation, valuation = [], set(), {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        directive, args = parts[0], parts[1:]
        if directive == "world":
            if len(args) != 1:
                raise ModelFileError(source, line_no, "expected `world <name>`")
            if args[0] in worlds:
                raise ModelFileError(source, line_no, f"world {args[0]!r} declared twice")
            worlds.append(args[0])
        elif directive == "edge":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `edge <from> <to>`")
            for name in args:
                if name not in worlds:
                    raise ModelFileError(source, line_no, f"unknown world {name!r}")
            relation.add(tuple(args))
        elif directive == "val":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `val <world> <atom>`")
            world, atom = args
            if world not in worlds:
                raise ModelFileError(source, line_no, f"unknown world {world!r}")
            if not ATOM_RE.fullmatch(atom) or atom in ("true", "false"):
                raise ModelFileError(source, line_no, f"invalid atom name {atom!r}")
            valuation.setdefault(atom, set()).add(world)
        else:
            raise ModelFileError(source, line_no, f"unknown directive {directive!r}")
    if not worlds:
        raise ModelFileError(source, None, "empty Kripke model file")
    return tuple(worlds), frozenset(relation), {a: frozenset(ws) for a, ws in valuation.items()}
