"""Finite contexts over states, entities, and time.

An instance assigns one state to every (entity, time) cell and stands for a
single possible timeline. A context is a finite set of instances over a
shared signature; all analysis in this package quantifies over such sets,
which keeps every check decidable by enumeration.

Values are immutable once constructed; operations never mutate their inputs.

Each enumeration past its guard, CTXKIT_GUARD when set, is refused before
it starts: "full space", "random context draws", "random context signature",
"random Kripke model" and "iterator unrolling" against DEFAULT_SPACE_GUARD;
"formula", "formula universe" and "extension table" against their modules'
defaults. A model file's worlds x worlds, "Kripke model file" or "modal
context file", is refused against `formats`' default at the world line that
passes it; otherwise the file parsers are bounded by their input bytes.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

DEFAULT_SPACE_GUARD = 2 ** 20
GUARD_ENV_VAR = "CTXKIT_GUARD"

# Whitespace, and the characters with separator duty somewhere in the file formats.
_BARRED_CHAR = re.compile(r"[\s@=;,#]")


class SizeGuardError(ValueError):
    """An enumeration would exceed the guard. The message is one line under
    250 bytes: `what` is a fixed noun, and `needed` and the guard print in
    decimal below 2 ** 64 in size, else as 2^k or -2^k, 2^k <= their size."""

    def __init__(self, needed: int, guard: int, what: str):
        self.needed, self.guard = needed, guard
        shown = [n if abs(n) < 2 ** 64 else f"{'-' * (n < 0)}2^{abs(n).bit_length() - 1}"
                 for n in (needed, guard)]
        super().__init__(f"{what} needs a guard of at least {shown[0]}; current guard is "
                         f"{shown[1]}; set {GUARD_ENV_VAR} to raise it")


def brief(text: str) -> str:
    """text quoted, cut to its first 16 characters and an ellipsis when longer."""
    return repr(text if len(text) <= 16 else text[:16] + "\u2026")


def effective_guard(default: int) -> int:
    """The guard: CTXKIT_GUARD when it is set, else default."""
    env = os.environ.get(GUARD_ENV_VAR)
    try:
        return default if env is None else int(env)
    except ValueError:  # int() reads at most 4300 digits
        raise ValueError(f"{GUARD_ENV_VAR} must be a decimal integer of at most 4300 "
                         f"digits, got {brief(env)}") from None


def check_guard(needed: int, default: int, what: str) -> None:
    """Raise SizeGuardError if needed exceeds the guard: CTXKIT_GUARD, else default."""
    limit = effective_guard(default)
    if needed > limit:
        raise SizeGuardError(needed, limit, what)


_set = object.__setattr__


def check_alphabet(kind: str, symbols: tuple[str, ...]) -> None:
    """One alphabet's rule: at least one symbol, each non-empty, free of
    whitespace and of the reserved characters, and none given twice."""
    if not symbols:
        raise ValueError(f"a signature needs at least one {kind}")
    seen = set()
    for sym in symbols:
        if not sym or _BARRED_CHAR.search(sym):
            raise ValueError(
                f"invalid {kind} symbol {brief(sym)}: symbols must be non-empty and "
                "free of whitespace and of the reserved characters @ = ; , #"
            )
        if sym in seen:
            raise ValueError(f"duplicate {kind} symbol {brief(sym)}")
        seen.add(sym)


def position(symbols: tuple[str, ...], symbol: str, what: str) -> int:
    """The symbol's position; a symbol that is absent is an unknown what."""
    try:
        return symbols.index(symbol)
    except ValueError:
        raise ValueError(f"unknown {what} {brief(symbol)}") from None


@dataclass(frozen=True)
class Signature:
    """State, entity, and time alphabets of a context.

    All three are kept in their given order; for times the position in the
    sequence *is* the temporal order, the labels themselves carry no meaning.
    """

    states: tuple[str, ...]
    entities: tuple[str, ...]
    times: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "times", tuple(self.times))
        check_alphabet("state", self.states)
        check_alphabet("entity", self.entities)
        check_alphabet("time", self.times)

    def time_index(self, t: str) -> int:
        return position(self.times, t, "time label")

    def cell_count(self) -> int:
        return len(self.entities) * len(self.times)


@dataclass(frozen=True)
class Snapshot:
    """One time slice of an instance: a total entity -> state assignment."""

    __slots__ = ("entities", "states")

    entities: tuple[str, ...]
    states: tuple[str, ...]

    def __post_init__(self):
        _set(self, "entities", tuple(self.entities))
        _set(self, "states", tuple(self.states))
        if len(self.entities) != len(self.states):
            raise ValueError("snapshot needs exactly one state per entity")

    def __reduce__(self):
        return type(self), (self.entities, self.states)

    def render(self) -> str:
        return ";".join(f"{e}={s}" for e, s in zip(self.entities, self.states))


@dataclass(frozen=True)
class Instance:
    """A total (entity, time) -> state table; one possible timeline.

    Cells are stored entity-major: the states of entity i occupy positions
    i*len(times) .. i*len(times)+len(times)-1, in time order.
    """

    __slots__ = ("entities", "times", "cells")

    entities: tuple[str, ...]
    times: tuple[str, ...]
    cells: tuple[str, ...]

    def __post_init__(self):
        _set(self, "entities", tuple(self.entities))
        _set(self, "times", tuple(self.times))
        _set(self, "cells", tuple(self.cells))
        width = len(self.entities) * len(self.times)
        if len(self.cells) != width:
            raise ValueError(f"instance needs {width} cells, got {len(self.cells)}")

    def __reduce__(self):
        return type(self), (self.entities, self.times, self.cells)

    def value_at(self, entity_index: int, time_index: int) -> str:
        return self.cells[entity_index * len(self.times) + time_index]

    def value(self, entity: str, time: str) -> str:
        ei = position(self.entities, entity, "entity")
        return self.value_at(ei, position(self.times, time, "time label"))

    def snapshot_at(self, time_index: int) -> Snapshot:
        n = len(self.times)
        return Snapshot(
            self.entities,
            tuple(self.cells[ei * n + time_index] for ei in range(len(self.entities))),
        )

    def snapshot(self, time: str) -> Snapshot:
        return self.snapshot_at(position(self.times, time, "time label"))


Row = tuple[int, ...]


@dataclass(frozen=True, init=False, repr=False)
class Context:
    """A finite set of instances over one signature.

    Stored form: one row per instance, a tuple of state indices (positions
    in `signature.states`) in the entity-major cell order of `Instance`.
    A row is the instance as a function E x T -> S as it stands, and its
    time slice `row[k::len(times)]` is the snapshot at time k, the
    (S^E)^T view of `Instance.snapshot_at`. Set semantics: duplicate rows
    collapse on construction, and the kept rows are sorted, which is the
    canonical order (lexicographic over the cell table, states ordered as
    in the signature) that makes derived output reproducible byte for byte.
    `instances` views the rows as `Instance` values, built on first use.
    """

    signature: Signature
    rows: tuple[Row, ...]

    def __init__(self, signature: Signature, instances: Iterable[Instance]):
        """The context of the given instances; each must be over `signature`."""
        _set(self, "signature", signature)
        _set(self, "rows", _checked_rows(signature, map(self.row_of, instances)))

    @classmethod
    def from_rows(cls, signature: Signature, rows: Iterable[Row]) -> Context:
        """The context of the given rows, checked, deduplicated and sorted."""
        return cls.from_sorted_rows(signature, _checked_rows(signature, rows))

    @classmethod
    def from_sorted_rows(cls, signature: Signature, rows: tuple[Row, ...]) -> Context:
        """The context of rows already distinct, sorted, full width and of
        valid state indices, as the .ctx parser holds them and as a subset of
        a checked context's rows, in order, keeps them: nothing is checked."""
        ctx = cls.__new__(cls)
        vars(ctx).update(signature=signature, rows=rows)
        return ctx

    def row_of(self, inst: Instance) -> Row:
        """The row of an instance over this context's signature, member or not."""
        sig = self.signature
        if inst.entities != sig.entities or inst.times != sig.times:
            raise ValueError("instance entities/times do not match the context signature")
        index = self._state_index
        try:
            return tuple(map(index.__getitem__, inst.cells))
        except KeyError as exc:
            raise ValueError(
                f"instance uses state {brief(exc.args[0])} outside the signature"
            ) from None

    def instance_of(self, row: Row) -> Instance:
        """The instance a row of this context stands for."""
        sig = self.signature
        return Instance(sig.entities, sig.times, map(sig.states.__getitem__, row))

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.signature.states)}

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        return tuple(map(self.instance_of, self.rows))

    def __iter__(self) -> Iterator[Instance]:
        return iter(self.instances)

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def _row_set(self) -> frozenset[Row]:
        return frozenset(self.rows)

    def __contains__(self, inst: object) -> bool:
        if not isinstance(inst, Instance):
            return False
        try:
            return self.row_of(inst) in self._row_set
        except ValueError:  # not an instance over this signature
            return False

    def __reduce__(self):
        return type(self).from_rows, (self.signature, self.rows)

    def __repr__(self) -> str:
        return f"Context(signature={self.signature!r}, instances={self.instances!r})"


def _checked_rows(sig: Signature, rows: Iterable[Row]) -> tuple[Row, ...]:
    """The check of every row not read by the .ctx parser nor kept from a
    checked context: one state index per cell, every index names a state,
    and the distinct rows come sorted."""
    unique = list(dict.fromkeys(rows))
    unique.sort()  # linear on rows that come sorted, as rendered files hold them
    width, n_states = sig.cell_count(), len(sig.states)
    used = set().union(*unique)
    if set(map(len, unique)) - {width} or used and (min(used) < 0 or max(used) >= n_states):
        bad = next(r for r in unique if len(r) != width or min(r) < 0 or max(r) >= n_states)
        raise ValueError(f"row {bad!r} is not {width} state indices in 0..{n_states - 1}")
    return tuple(unique)


# ---------------------------------------------------------------------------
# consistency contexts and context construction
# ---------------------------------------------------------------------------

def consistency_context(ctx: Context, ref: Instance, t: str) -> Context:
    """All members of ctx that agree with ref on every cell up to time t.

    ref must be an instance over the context's signature but need not be a
    member of the context itself. The kept rows are a subset of ctx.rows in
    their order, so they are not checked again.
    """
    sig = ctx.signature
    try:
        ref_row = ctx.row_of(ref)
    except ValueError as exc:
        raise ValueError(f"reference {exc}") from None
    n, upto = len(sig.times), sig.time_index(t) + 1
    # the prefix cells, entity-major; one cell makes the key a bare state index
    key = operator.itemgetter(*(start + k for start in range(0, sig.cell_count(), n)
                                for k in range(upto)))
    prefix = key(ref_row)
    kept = [row for row in ctx.rows if key(row) == prefix]
    return Context.from_sorted_rows(sig, tuple(kept))


def check_full_space_guard(n_states: int, n_entities: int, n_times: int) -> None:
    """Raise SizeGuardError if the full space, n_states ** (n_entities * n_times)
    instances, exceeds the guard.

    Generators that build a subspace directly call this before they build
    anything, so their guard is the same as if they filtered the full space.
    With L the guard's bit length, a space known from the bit lengths alone
    to hold at least 2 ** L instances is reported as needing 2 ** L, which
    exceeds the guard, so the power is computed only below 2 ** (2 * L). The
    refusal names the "full space" and no argument, and prints as any guard's.
    """
    limit = effective_guard(DEFAULT_SPACE_GUARD)
    n_cells = n_entities * n_times
    least = n_cells * (n_states.bit_length() - 1)  # the space holds >= 2 ** least
    needed = 2 ** limit.bit_length() if least >= limit.bit_length() else n_states ** n_cells
    check_guard(needed, DEFAULT_SPACE_GUARD, "full space")


def build_full_space(sig: Signature) -> Context:
    """The ambient context of all total (entity, time) -> state functions.

    Refuses to enumerate more than the guard allows (default 2**20 instances,
    overridable via CTXKIT_GUARD).
    """
    check_full_space_guard(len(sig.states), len(sig.entities), len(sig.times))
    return Context.from_rows(
        sig, itertools.product(range(len(sig.states)), repeat=sig.cell_count())
    )


def restrict(ctx: Context, pred: Callable[[Instance], bool]) -> Context:
    """The subcontext of instances satisfying pred. The kept rows are a
    subset of ctx.rows in their order, so they are not checked again."""
    kept = [row for row, inst in zip(ctx.rows, ctx.instances) if pred(inst)]
    return Context.from_sorted_rows(ctx.signature, tuple(kept))
