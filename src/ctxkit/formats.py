"""Line-oriented file formats: contexts, Kripke models, modal contexts.

All formats are plain text, `#` starts a comment, blank lines are ignored.
A line ends at `\n`, `\r\n` or `\r` only: `\v`, `\f`, U+0085, U+2028 and the
other breaks `str.splitlines` knows are whitespace inside a line. Rendering
always produces the canonical text, so render(load(f)) == f for canonical
files and parse(render(x)) == x for every value.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from itertools import compress
from operator import add, itemgetter
from pathlib import Path
from typing import Mapping

from ctxkit import modal_context, modal_logic
from ctxkit.core import (Context, Instance, Row, Signature, SizeGuardError, brief, check_alphabet,
                         effective_guard)


class ModelFileError(ValueError):
    """A malformed model file, with the offending line number."""

    def __init__(self, path: str | Path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


def decode(data: bytes, path: str | Path) -> str:
    """A file's bytes as UTF-8 text, less one leading byte-order mark; other
    bytes are a file error naming the path, at their offset in the file."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ModelFileError(path, None, str(exc)) from None
    return text.removeprefix("\ufeff")


def _lines(text: str) -> list[str]:
    """The lines of a text; only `\n`, `\r\n` and `\r` end a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def digest(data: bytes) -> str:
    """Short sha256 of bytes, for run reports."""
    return hashlib.sha256(data).hexdigest()[:12]


def file_digest(path: str | Path) -> str:
    """Short sha256 of a file's bytes, for run reports."""
    return digest(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# context files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadedContext:
    """A context plus the instance names the file used.

    `rows` maps every instance name to its row, in file order, so a duplicate's
    name maps to the row it collapsed into. `name_of` maps each row to the
    first name the file gave it.
    """

    context: Context
    rows: Mapping[str, Row]
    name_of: Mapping[Row, str]

    def instance_named(self, name: str) -> Instance:
        try:
            row = self.rows[name]
        except KeyError:
            raise ValueError(f"no instance named {brief(name)} in the file") from None
        return self.context.instance_of(row)


_ALPHABETS = {"states:": "state", "entities:": "entity", "time:": "time"}  # header -> kind
_END = "\n"  # follows a context's last line; no line of `_lines` equals it


def parse_context(text: str, source: str | Path = "<string>") -> LoadedContext:
    """Read a context file; an error names its line unless it is about the whole file.

    Headers with no instance read as the empty context, which is what
    `render_context` writes for it; a file with no header line is an error.

    Each instance fills one row of state indices, and an int bitmask of the
    cells filled so far gives the given-twice and missing-cell checks. Each
    distinct cell line is checked token by token once, and compiled into
    (mask, positions, state indices); every cell line then fills the row in
    one step: one mask test and, for contiguous positions, one slice
    assignment. Alice/Bob at horizon 6 has 1,944 cell lines but only 128
    distinct ones. Each distinct cell token is validated once, too, and kept
    as (position, state index): its bit is shifted where it is used, since n
    memoized bits of up to n bits each would take memory quadratic in a row. An
    instance line as `render_context` writes it (`instance `, then no `#`, then
    `:` last) is read with two slice tests and a strip, and an instance line or
    the end closes the open instance inline. No `Instance` is built, and the
    rows, checked here and nowhere else, become the context with only a sort.
    """
    headers: dict[str, tuple[str, ...]] = {}
    sig: Signature | None = None
    named: dict[str, Row] = {}  # every closed instance, in file order
    first_name: dict[Row, str] = {}  # one file has one signature

    # the open instance: its name, header line, cells and mask of filled cells
    name: str | None = None
    name_line = 0
    cells: list[int] = []
    filled = full = 0

    # raw cell line -> (mask, positions, state indices, slice of the positions
    # or None when they are not contiguous); only lines that passed the token
    # loop are stored
    memo: dict[str, tuple[int, tuple[int, ...], tuple[int, ...], slice | None]] = {}
    cell_of: dict[str, tuple[int, int]] = {}  # valid cell token -> (position, state index)

    def signature(line_no):  # each header line's symbols were checked when it was read
        missing = [k for k in ("states", "entities", "time") if k not in headers]
        if missing:
            raise ModelFileError(source, line_no, f"missing header line(s): {', '.join(missing)}")
        return Signature(headers["states"], headers["entities"], headers["time"])

    def clash(filled, positions, line_no):
        """Refuse the first position that the instance or the line filled before it."""
        held, line = f"{filled:b}"[::-1], set()  # held[k] is bit k: linear in the row
        for k in positions:
            if k in line or held[k : k + 1] == "1":
                entity, time = cell_keys[k]
                raise ModelFileError(source, line_no, f"cell {entity}@{time} given twice")
            line.add(k)

    lines = _lines(text)
    lines.append(_END)
    for line_no, raw in enumerate(lines, start=1):
        compiled = memo.get(raw)
        if compiled is None:  # not a cell line read before
            if raw[-1:] == ":" and raw[:9] == "instance " and "#" not in raw and sig is not None:
                first, new = "instance", raw[9:-1].strip()  # as the general branch reads it
            elif raw is _END:  # the end closes the open instance as an instance line does
                first, new = "instance", None
            else:  # check the line token by token
                content = raw.split("#", 1)[0].strip()
                if not content:
                    continue
                tokens = content.split()
                first = tokens[0]
                if first in _ALPHABETS:
                    key = first[:-1]
                    if sig is not None or key in headers:
                        raise ModelFileError(source, line_no,
                                             f"{first} after instances or repeated")
                    headers[key] = tuple(tokens[1:])
                    try:
                        check_alphabet(_ALPHABETS[first], headers[key])
                    except ValueError as exc:
                        raise ModelFileError(source, line_no, str(exc)) from None
                    continue
                if sig is None:
                    sig = signature(line_no)
                    cell_keys = [(e, t) for e in sig.entities for t in sig.times]  # entity-major
                    position = {key: k for k, key in enumerate(cell_keys)}
                    state_index = {s: i for i, s in enumerate(sig.states)}
                    zero = [0] * len(cell_keys)
                    full = (1 << len(cell_keys)) - 1
                if first == "instance":
                    rest = content[len("instance") :].strip()
                    new = rest[:-1].strip() if rest.endswith(":") else ""
            if first == "instance":  # close the open instance, then open the named one
                if name is not None:
                    if filled != full:
                        missing = full & ~filled
                        e, t = divmod((missing & -missing).bit_length() - 1, len(sig.times))
                        raise ModelFileError(source, name_line, f"instance {brief(name)} is "
                                             f"missing cell {sig.entities[e]}@{sig.times[t]}")
                    row = named[name] = tuple(cells)
                    if first_name.setdefault(row, name) != name:
                        warnings.warn(f"{source}: duplicate instance {brief(name)} collapsed "
                                      "(set semantics)", stacklevel=2)
                if new is None:
                    break
                if not new:
                    raise ModelFileError(source, line_no, "expected `instance <name>:`")
                if new in named:
                    raise ModelFileError(source, line_no, f"instance name {brief(new)} reused")
                name, name_line, cells, filled = new, line_no, zero.copy(), 0
                continue
            if name is None:
                raise ModelFileError(source, line_no, f"unexpected line {brief(content)}")
            positions, indices = [], []
            try:
                for token in tokens:
                    cell = cell_of.get(token)
                    if cell is None:
                        entity, at, rest = token.partition("@")
                        time, eq, state = rest.partition("=")
                        if not at or not eq or not entity or not time or not state:
                            raise ModelFileError(source, line_no, f"malformed cell {brief(token)}, "
                                                 "expected entity@time=state")
                        k = position.get((entity, time))
                        if k is None:
                            if entity not in sig.entities:
                                raise ModelFileError(source, line_no,
                                                     f"unknown entity {brief(entity)}")
                            raise ModelFileError(source, line_no, f"unknown time {brief(time)}")
                        i = state_index.get(state)
                        if i is None:
                            raise ModelFileError(source, line_no, f"unknown state {brief(state)}")
                        cell = cell_of[token] = (k, i)
                    positions.append(cell[0])
                    indices.append(cell[1])
            except ModelFileError:  # a cell given twice before the bad token comes first
                clash(filled, positions, line_no)
                raise
            lo, hi = positions[0], positions[-1] + 1
            if positions == list(range(lo, hi)):
                span, mask = slice(lo, hi), (1 << hi) - (1 << lo)
            else:  # the mask is built once, from binary digits, in time linear in the row
                digits = bytearray(b"0") * len(cell_keys)
                for k in positions:
                    digits[k] = 49  # "1", the digit of bit k
                if digits.count(49) < len(positions):  # a cell given twice within the line
                    clash(filled, positions, line_no)
                span, mask = None, int(digits[::-1], 2)
            compiled = memo[raw] = (mask, tuple(positions), tuple(indices), span)
        # a compiled line is a cell line of the open instance: it fills the row
        mask, positions, indices, span = compiled
        if filled & mask:
            clash(filled, positions, line_no)
        filled |= mask
        if span is None:
            for k, i in zip(positions, indices):
                cells[k] = i
        else:
            cells[span] = indices

    if sig is None:
        if not headers:
            raise ModelFileError(source, None, "empty context file")
        sig = signature(None)
    rows = tuple(sorted(first_name))
    return LoadedContext(Context.from_sorted_rows(sig, rows), named, first_name)


def render_context(ctx: Context) -> str:
    """Canonical text: headers, then instances named i0, i1, ... in canonical
    order, one cell line per entity. The text is filled column by column:
    the instance lines, then each entity's lines from its slices of the
    rows, each distinct slice rendered once."""
    sig, rows = ctx.signature, ctx.rows
    n, states, stride = len(sig.times), sig.states, len(sig.entities) + 1
    body = [""] * (len(rows) * stride)
    body[::stride] = [f"instance i{k}:" for k in range(len(rows))]
    for ei, entity in enumerate(sig.entities):
        heads = [f"{entity}@{t}=" for t in sig.times]
        line: dict[Row, str] = {}  # this entity's line of each distinct slice
        body[ei + 1 :: stride] = [
            line[s] if s in line
            else line.setdefault(s, "  " + " ".join(map(add, heads, map(states.__getitem__, s))))
            for s in map(itemgetter(slice(ei * n, ei * n + n)), rows)]
    header = [f"states: {' '.join(sig.states)}", f"entities: {' '.join(sig.entities)}",
              f"time: {' '.join(sig.times)}"]
    return "\n".join(header + body) + "\n"


def load_context(path: str | Path) -> LoadedContext:
    return parse_context(decode(Path(path).read_bytes(), path), path)


# ---------------------------------------------------------------------------
# Kripke model files
# ---------------------------------------------------------------------------

# worlds x worlds a model file may declare, CTXKIT_GUARD when set: a world's
# mask spans up to its highest successor, so the masks take up to that many bits
DEFAULT_WORLDS_GUARD = 2 ** 24  # 4,096 worlds


def parse_kripke(text: str, source: str | Path = "<string>") -> modal_logic.KripkeModel:
    """A Kripke model from its file. The parser is the one check of the
    file: it fills the model's masks as it reads (world j is the j-th
    declared), and each error names its line. The `world` line that takes
    worlds x worlds past the guard is refused."""
    guard = effective_guard(DEFAULT_WORLDS_GUARD)
    bit: dict[str, int] = {}  # world -> its bit, in declaration order
    successors: dict[str, int] = {}  # world -> the mask of the worlds it reaches
    atoms: dict[str, int] = {}  # atom -> the mask of the worlds where it holds
    for line_no, raw in enumerate(_lines(text), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:  # a blank or comment line
            continue
        directive, args = parts[0], parts[1:]
        if directive == "edge":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `edge <from> <to>`")
            for name in args:
                if name not in bit:
                    raise ModelFileError(source, line_no, f"unknown world {brief(name)}")
            successors[args[0]] |= bit[args[1]]
        elif directive == "val":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `val <world> <atom>`")
            world, atom = args
            if world not in bit:
                raise ModelFileError(source, line_no, f"unknown world {brief(world)}")
            if atom not in atoms:
                try:
                    modal_logic.check_atom(atom)
                except ValueError as exc:
                    raise ModelFileError(source, line_no, str(exc)) from None
            atoms[atom] = atoms.get(atom, 0) | bit[world]
        elif directive == "world":
            if len(args) != 1:
                raise ModelFileError(source, line_no, "expected `world <name>`")
            if args[0] in bit:
                raise ModelFileError(source, line_no, f"world {brief(args[0])} declared twice")
            bit[args[0]] = 1 << len(bit)
            successors[args[0]] = 0
            if len(bit) ** 2 > guard:
                raise ModelFileError(source, line_no, str(SizeGuardError(
                    len(bit) ** 2, guard, "Kripke model file")))
        else:
            raise ModelFileError(source, line_no, f"unknown directive {brief(directive)}")
    if not bit:
        raise ModelFileError(source, None, "empty Kripke model file")
    return modal_logic.KripkeModel.from_masks(tuple(bit), successors.values(), atoms)


def render_kripke(model: modal_logic.KripkeModel) -> str:
    """Worlds, then edges and `val` lines in world order, atoms by name."""
    worlds, picked = model.worlds, modal_logic.picked
    lines = [f"world {w}" for w in worlds]
    lines += [f"edge {a} {b}" for a, b in modal_logic.successor_pairs(worlds, model.successors)]
    for atom in sorted(model.atoms):
        lines += [f"val {w} {atom}" for w in picked(worlds, model.atoms[atom])]
    return "\n".join(lines) + "\n"


def load_kripke(path: str | Path) -> modal_logic.KripkeModel:
    return parse_kripke(decode(Path(path).read_bytes(), path), path)


# ---------------------------------------------------------------------------
# modal context files
# ---------------------------------------------------------------------------

def render_modal_context(mc: modal_context.ModalContext) -> str:
    """Header with the universe identity, (atoms, depth, cap), from which
    the loader regenerates the universe; then worlds and edges. Each world
    lists the members its row stores, in member order, by their texts.
    """
    u, names = mc.universe, mc.world_names
    lines = [f"universe atoms={','.join(u.atoms)} depth={u.depth} cap={u.cap}"]
    has = [f"  has {text}" for text in u.texts]
    for name, row in zip(names, mc.rows):
        lines.append(f"cworld {name}")
        lines += compress(has, row)
    lines += [f"cedge {a} {b}" for a, b in modal_logic.successor_pairs(names, mc.successors)]
    return "\n".join(lines) + "\n"


def parse_modal_context(text: str, source: str | Path = "<string>") -> modal_context.ModalContext:
    """A modal context from its file. Once the header is read, each exact
    canonical line, `  has <text>` as the renderer writes it, maps to its
    member: inside a cworld such a line costs one probe and sets that
    member's bit for the cworld. Every other line is read on its own: a
    `has` line's stripped text is looked up in the same map, and only text
    that is not canonical is parsed. No formula node is built for a file
    whose `has` texts are canonical, however they are spaced or commented.
    The `cworld` line that takes cworlds x cworlds past the guard on model
    files' worlds is refused."""
    guard = effective_guard(DEFAULT_WORLDS_GUARD)
    universe: modal_logic.FormulaUniverse | None = None
    columns: list[int] = []  # member -> mask over the cworlds
    names: dict[str, int] = {}  # each cworld's line, in declaration order
    bits: dict[str, int] = {}  # cworld -> its bit
    successors: dict[str, int] = {}  # cworld -> the mask of the cworlds it reaches
    bit = 0
    canonical: dict[str, int] = {}  # `  has <text>` -> its member, once the header is read

    for line_no, raw in enumerate(_lines(text), start=1):
        i = canonical.get(raw)
        if i is not None and bit:
            columns[i] |= bit
            continue
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        directive = content.split(None, 1)[0]
        if directive == "has":  # not canonical, or not inside a cworld
            if not bit:  # no cworld yet, and perhaps no universe either
                raise ModelFileError(source, line_no, "`has` before any cworld"
                                     if universe is not None
                                     else "universe header must come first")
            written = content[len("has") :].strip()
            i = canonical.get("  has " + written)
            if i is None:  # not canonical text: parse it
                try:
                    formula = modal_logic.parse_formula(written)
                except ValueError as exc:
                    raise ModelFileError(source, line_no, str(exc)) from None
                i = universe.index_of(formula)
                if i is None:
                    text = brief(modal_logic.print_formula(formula))
                    raise ModelFileError(source, line_no,
                                         f"formula {text} is outside the declared universe")
            columns[i] |= bit
            continue
        parts = content.split()  # a formula is not split
        if directive == "universe":
            if universe is not None:
                raise ModelFileError(source, line_no, "repeated universe header")
            fields = dict(part.split("=", 1) for part in parts[1:] if "=" in part)
            if fields.keys() != {"atoms", "depth", "cap"} or len(fields) != len(parts) - 1:
                raise ModelFileError(
                    source, line_no, "expected `universe atoms=<list> depth=<d> cap=<k>`"
                )
            for key in ("depth", "cap"):  # int() reads at most 4300 digits
                if not (fields[key].isascii() and fields[key].isdigit()) or len(fields[key]) > 4300:
                    raise ModelFileError(source, line_no, f"universe {key} must be 1 to 4300 "
                                         f"digits 0-9, got {brief(fields[key])}")
            try:
                universe = modal_logic.formula_universe(tuple(fields["atoms"].split(",")),
                                                        int(fields["depth"]), int(fields["cap"]))
            except ValueError as exc:
                raise ModelFileError(source, line_no, str(exc)) from None
            columns = [0] * len(universe)
            canonical = {f"  has {t}": k for k, t in enumerate(universe.texts)}
            continue
        if universe is None:
            raise ModelFileError(source, line_no, "universe header must come first")
        if directive == "cworld":
            if len(parts) != 2:
                raise ModelFileError(source, line_no, "expected `cworld <name>`")
            if parts[1] in names:
                raise ModelFileError(source, line_no, f"cworld {brief(parts[1])} declared twice")
            bit = bits[parts[1]] = 1 << len(names)
            names[parts[1]] = line_no
            successors[parts[1]] = 0
            if len(names) ** 2 > guard:
                raise ModelFileError(source, line_no, str(SizeGuardError(
                    len(names) ** 2, guard, "modal context file")))
        elif directive == "cedge":
            if len(parts) != 3:
                raise ModelFileError(source, line_no, "expected `cedge <from> <to>`")
            for name in parts[1:]:
                if name not in names:
                    raise ModelFileError(source, line_no, f"unknown cworld {brief(name)}")
            successors[parts[1]] |= bits[parts[2]]
        else:
            raise ModelFileError(source, line_no, f"unknown directive {brief(directive)}")

    if universe is None:
        raise ModelFileError(source, None, "empty modal context file")
    try:
        return modal_context.ModalContext.from_masks(names, columns, successors.values(), universe)
    except ValueError as exc:  # two cworlds store one set: the later one is the error's line
        raise ModelFileError(source, names[exc.pair[1]], str(exc)) from None


def load_modal_context(path: str | Path) -> modal_context.ModalContext:
    return parse_modal_context(decode(Path(path).read_bytes(), path), path)
