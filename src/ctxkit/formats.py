"""Line-oriented file formats: contexts, Kripke models, modal contexts.

All formats are plain text, `#` starts a comment, blank lines are ignored.
Rendering always produces the canonical text, so render(load(f)) == f for
canonical files and parse(render(x)) == x for every value.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ctxkit.core import Context, Instance, Row, Signature

if TYPE_CHECKING:  # the modal modules load with the first modal file
    from ctxkit.modal_context import ModalContext
    from ctxkit.modal_logic import FormulaUniverse, KripkeModel


class ModelFileError(ValueError):
    """A malformed model file, with the offending line number."""

    def __init__(self, path: str | Path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


def _meaningful_lines(text: str):
    """(line_no, stripped content) for non-blank, non-comment lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield line_no, content


def decode(data: bytes, path: str | Path) -> str:
    """A file's bytes as UTF-8 text; other bytes are a file error naming the path."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise ModelFileError(path, None, str(exc)) from None


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

    `rows` maps the name of each kept instance to its row, in file order; a
    duplicate collapsed into an earlier instance keeps no name.
    """

    context: Context
    rows: Mapping[str, Row]

    @cached_property
    def name_of(self) -> dict[Row, str]:
        """Row -> the name the file gave it."""
        return {row: name for name, row in self.rows.items()}

    def instance_named(self, name: str) -> Instance:
        try:
            row = self.rows[name]
        except KeyError:
            raise ValueError(f"no instance named {name!r} in the file") from None
        return self.context.instance_of(row)


def parse_context(text: str, source: str | Path = "<string>") -> LoadedContext:
    """Read a context file; an error names its line unless it is about the whole file.

    Headers with no instance read as the empty context, which is what
    `render_context` writes for it; a file with no header line is an error.

    Each instance fills one row of state indices, and an int bitmask of the
    cells filled so far gives the given-twice and missing-cell checks. Each
    distinct cell line is tokenised once and kept as (mask, positions, state
    indices): a repeat costs one dict lookup, one mask test and, when its
    positions are contiguous, one slice assignment. Alice/Bob at horizon 6
    has 1,944 cell lines but only 128 distinct ones. Each distinct cell
    token is validated once, too. No `Instance` is built.
    """
    headers: dict[str, tuple[str, ...]] = {}
    sig: Signature | None = None
    named: dict[str, Row] = {}  # kept instances, in file order
    first_name: dict[Row, str] = {}  # one file has one signature

    # the open instance: its name, header line, cells and mask of filled cells
    name: str | None = None
    name_line = 0
    cells: list[int] = []
    filled = full = 0

    def close_instance(name, name_line, cells, filled):
        if filled != full:
            missing = full & ~filled
            e, t = divmod((missing & -missing).bit_length() - 1, len(sig.times))
            raise ModelFileError(
                source,
                name_line,
                f"instance {name!r} is missing cell {sig.entities[e]}@{sig.times[t]}",
            )
        row = tuple(cells)
        if first_name.setdefault(row, name) != name:
            warnings.warn(
                f"{source}: duplicate instance {name!r} collapsed (set semantics)",
                stacklevel=3,
            )
        else:
            named[name] = row

    # raw cell line -> (mask, positions, state indices, slice of the positions
    # or None when they are not contiguous); only lines that passed the token
    # loop are stored
    memo: dict[str, tuple[int, tuple[int, ...], tuple[int, ...], slice | None]] = {}
    cell_of: dict[str, tuple[int, int]] = {}  # valid cell token -> (position, state index)

    def signature(line_no):
        missing = [k for k in ("states", "entities", "time") if k not in headers]
        if missing:
            raise ModelFileError(source, line_no, f"missing header line(s): {', '.join(missing)}")
        try:
            return Signature(headers["states"], headers["entities"], headers["time"])
        except ValueError as exc:
            raise ModelFileError(source, line_no, str(exc)) from None

    def given_twice(k, line_no):
        entity, time = cell_keys[k]
        return ModelFileError(source, line_no, f"cell {entity}@{time} given twice")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        # a stored line is a cell line read inside an instance, and every
        # later line is inside one too
        stored = memo.get(raw)
        if stored is not None:
            mask, positions, indices, span = stored
            if filled & mask:
                raise given_twice(next(k for k in positions if filled >> k & 1), line_no)
            filled |= mask
            if span is None:
                for k, i in zip(positions, indices):
                    cells[k] = i
            else:
                cells[span] = indices
            continue
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        tokens = content.split()
        first = tokens[0]
        if first in ("states:", "entities:", "time:"):
            key = first[:-1]
            if sig is not None or key in headers:
                raise ModelFileError(source, line_no, f"{first} after instances or repeated")
            headers[key] = tuple(tokens[1:])
            continue
        if sig is None:
            sig = signature(line_no)
            cell_keys = [(e, t) for e in sig.entities for t in sig.times]  # entity-major
            position = {key: k for k, key in enumerate(cell_keys)}
            state_index = {s: i for i, s in enumerate(sig.states)}
            full = (1 << len(cell_keys)) - 1
        if first == "instance":
            if name is not None:
                close_instance(name, name_line, cells, filled)
            rest = content[len("instance") :].strip()
            if not rest.endswith(":") or not rest[:-1].strip():
                raise ModelFileError(source, line_no, "expected `instance <name>:`")
            name, name_line = rest[:-1].strip(), line_no
            if name in named:
                raise ModelFileError(source, line_no, f"instance name {name!r} reused")
            cells, filled = [0] * len(cell_keys), 0
            continue
        if name is None:
            raise ModelFileError(source, line_no, f"unexpected line {content!r}")
        mask, positions, indices = 0, [], []
        for token in tokens:
            cell = cell_of.get(token)
            if cell is None:
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
                i = state_index.get(state)
                if i is None:
                    raise ModelFileError(source, line_no, f"unknown state {state!r}")
                cell = cell_of[token] = (k, i)
            k, i = cell
            bit = 1 << k
            if filled & bit:
                raise given_twice(k, line_no)
            filled |= bit
            mask |= bit
            cells[k] = i
            positions.append(k)
            indices.append(i)
        lo, hi = positions[0], positions[-1] + 1
        span = slice(lo, hi) if positions == list(range(lo, hi)) else None
        memo[raw] = (mask, tuple(positions), tuple(indices), span)

    if sig is None:
        if not headers:
            raise ModelFileError(source, None, "empty context file")
        sig = signature(None)
    if name is not None:
        close_instance(name, name_line, cells, filled)
    return LoadedContext(Context.from_rows(sig, named.values()), named)


def render_context(ctx: Context) -> str:
    """Canonical text: headers, then instances named i0, i1, ... in canonical
    order, one cell line per entity; each distinct (entity, row slice) line
    is rendered once."""
    sig = ctx.signature
    lines = [
        "states: " + " ".join(sig.states),
        "entities: " + " ".join(sig.entities),
        "time: " + " ".join(sig.times),
    ]
    n, states = len(sig.times), sig.states
    heads = [[f"{e}@{t}=" for t in sig.times] for e in sig.entities]
    rendered: dict[tuple[int, Row], str] = {}
    for k, row in enumerate(ctx.rows):
        lines.append(f"instance i{k}:")
        for ei, start in enumerate(range(0, len(row), n)):
            key = (ei, row[start : start + n])
            line = rendered.get(key)
            if line is None:
                line = rendered[key] = "  " + " ".join(
                    head + states[i] for head, i in zip(heads[ei], key[1])
                )
            lines.append(line)
    return "\n".join(lines) + "\n"


def load_context(path: str | Path) -> LoadedContext:
    return parse_context(decode(Path(path).read_bytes(), path), path)


# ---------------------------------------------------------------------------
# Kripke model files
# ---------------------------------------------------------------------------

def parse_kripke(text: str, source: str | Path = "<string>") -> KripkeModel:
    from ctxkit.modal_logic import KripkeModel, check_atom

    worlds: dict[str, None] = {}  # in declaration order
    relation: set[tuple[str, str]] = set()
    valuation: dict[str, set[str]] = {}
    for line_no, content in _meaningful_lines(text):
        parts = content.split()
        directive, args = parts[0], parts[1:]
        if directive == "world":
            if len(args) != 1:
                raise ModelFileError(source, line_no, "expected `world <name>`")
            if args[0] in worlds:
                raise ModelFileError(source, line_no, f"world {args[0]!r} declared twice")
            worlds[args[0]] = None
        elif directive == "edge":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `edge <from> <to>`")
            for name in args:
                if name not in worlds:
                    raise ModelFileError(source, line_no, f"unknown world {name!r}")
            relation.add((args[0], args[1]))
        elif directive == "val":
            if len(args) != 2:
                raise ModelFileError(source, line_no, "expected `val <world> <atom>`")
            world, atom = args
            if world not in worlds:
                raise ModelFileError(source, line_no, f"unknown world {world!r}")
            if atom not in valuation:
                try:
                    check_atom(atom)
                except ValueError as exc:
                    raise ModelFileError(source, line_no, str(exc)) from None
            valuation.setdefault(atom, set()).add(world)
        else:
            raise ModelFileError(source, line_no, f"unknown directive {directive!r}")
    if not worlds:
        raise ModelFileError(source, None, "empty Kripke model file")
    try:
        return KripkeModel(
            tuple(worlds),
            frozenset(relation),
            {a: frozenset(ws) for a, ws in valuation.items()},
        )
    except ValueError as exc:
        raise ModelFileError(source, None, str(exc)) from None


def render_kripke(model: KripkeModel) -> str:
    index = {w: i for i, w in enumerate(model.worlds)}
    lines = [f"world {w}" for w in model.worlds]
    lines += [
        f"edge {a} {b}"
        for a, b in sorted(model.relation, key=lambda p: (index[p[0]], index[p[1]]))
    ]
    for atom in sorted(model.valuation):
        for w in sorted(model.valuation[atom], key=index.get):
            lines.append(f"val {w} {atom}")
    return "\n".join(lines) + "\n"


def load_kripke(path: str | Path) -> KripkeModel:
    return parse_kripke(decode(Path(path).read_bytes(), path), path)


# ---------------------------------------------------------------------------
# modal context files
# ---------------------------------------------------------------------------

def render_modal_context(mc: ModalContext) -> str:
    """Header with the universe identity, (atoms, depth, cap), from which
    the loader regenerates the universe; then worlds and edges. Each world
    lists the members its row stores, in member order, by their texts.
    """
    from itertools import compress

    u = mc.universe
    lines = [f"universe atoms={','.join(u.atoms)} depth={u.depth} cap={u.cap}"]
    has = [f"  has {text}" for text in u.texts]
    for name, row in zip(mc.world_names, mc.rows):
        lines.append(f"cworld {name}")
        lines += compress(has, row)
    index = {n: i for i, n in enumerate(mc.world_names)}
    lines += [
        f"cedge {a} {b}"
        for a, b in sorted(mc.relation, key=lambda p: (index[p[0]], index[p[1]]))
    ]
    return "\n".join(lines) + "\n"


def parse_modal_context(text: str, source: str | Path = "<string>") -> ModalContext:
    """A modal context from its file. Once the header is read, each exact
    canonical line, `  has <text>` as the renderer writes it, maps to its
    member: inside a cworld such a line costs one probe and sets that
    member's bit for the cworld. Every other line is read on its own: a
    `has` line's text is looked up among the member texts, and only text
    that is not canonical is parsed. No formula node is built for a
    canonical file."""
    from ctxkit.modal_context import ModalContext
    from ctxkit.modal_logic import formula_universe, parse_formula, print_formula

    universe: FormulaUniverse | None = None
    columns: list[int] = []  # member -> mask over the cworlds
    names: dict[str, None] = {}  # the cworlds, in declaration order
    relation: set[tuple[str, str]] = set()
    bit = 0
    canonical: dict[str, int] = {}  # `  has <text>` -> its member, once the header is read

    for line_no, raw in enumerate(text.splitlines(), start=1):
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
            written = content[len("has") :]
            i = universe.index_printed_as(written.strip())
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
            missing = {"atoms", "depth", "cap"} - set(fields)
            if missing or len(fields) != len(parts) - 1:
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
            canonical = {f"  has {t}": k for k, t in enumerate(universe.texts)}
            continue
        if universe is None:
            raise ModelFileError(source, line_no, "universe header must come first")
        if directive == "cworld":
            if len(parts) != 2:
                raise ModelFileError(source, line_no, "expected `cworld <name>`")
            if parts[1] in names:
                raise ModelFileError(source, line_no, f"cworld {parts[1]!r} declared twice")
            bit = 1 << len(names)
            names[parts[1]] = None
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
    except ValueError as exc:
        raise ModelFileError(source, None, str(exc)) from None


def load_modal_context(path: str | Path) -> ModalContext:
    return parse_modal_context(decode(Path(path).read_bytes(), path), path)
