"""Command-line surface.

Exit codes: 0 when analysis succeeds with verdict yes (or a generator ran),
1 when analysis says no (a witness is printed), 2 for usage, I/O and guard
errors (a formula of more nodes than the guard among them) and for any
unexpected exception, so that 1 only ever means a verdict; no formula is too
deep, as the formula layer walks explicit stacks.
A handler returns its report, `key=value` lines followed by a blank line and
a human-readable section, and `cli_dispatch` writes it to stdout at once;
stdout is byte-stable for fixed inputs and seeds, timing goes to stderr. A file is read or written once, and its digest is of
those bytes. `-o` overwrites its file in place: the file keeps its inode,
mode and links and ends up holding exactly the new bytes, without first being
truncated to zero (the write is not atomic). A well-formed `<group> <command>`
argv is parsed by that command's parser alone; anything else, help and usage
errors among it, goes through the whole parser tree.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
import warnings
from functools import cache
from pathlib import Path

from ctxkit import modal_context, modal_logic
from ctxkit.core import Instance, consistency_context
from ctxkit.determinability import (
    MODES,
    SnapshotConflict,
    extract_iterator,
    is_determinable,
    is_deterministic,
    render_iterator_map,
)
from ctxkit.formats import (
    LoadedContext,
    decode,
    digest,
    parse_context,
    parse_kripke,
    parse_modal_context,
    render_context,
    render_kripke,
    render_modal_context,
)
from ctxkit.generators import (
    gen_alice_bob,
    gen_alice_bob_odd,
    gen_minigame,
    gen_random_context,
    gen_random_kripke,
)


def _report(fields: list[tuple[str, str]], human: str = "") -> str:
    """The `key=value` lines, then, when human is not empty, a blank line and human."""
    text = "".join(f"{key}={value}\n" for key, value in fields)
    return text + "\n" + human if human else text


def _base_fields(args: argparse.Namespace) -> list[tuple[str, str]]:
    return [("command", " ".join(args.raw_argv))]


def _load(args: argparse.Namespace, parse):
    """Parse args.file from one read of its bytes; return the result and the
    report's first fields, whose digest is of those same bytes."""
    data = Path(args.file).read_bytes()
    fields = _base_fields(args) + [("input", args.file), ("input_sha256", digest(data))]
    return parse(decode(data, args.file), args.file), fields


def _deliver(args, text: str, fields: list[tuple[str, str]]) -> tuple[int, str]:
    """text itself, or, once text is written to args.output, a report of its digest."""
    if args.output is None:
        return 0, text
    data = text.encode()
    # no O_TRUNC: cutting a file to zero costs several times the write on
    # some filesystems; the old tail is cut after the write instead, and only
    # on a regular file, as a device or FIFO has none
    with open(os.open(args.output, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        out.write(data)
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate()
    fields.append(("output", args.output))
    fields.append(("output_sha256", digest(data)))
    return 0, _report(fields)


def _instance_label(loaded: LoadedContext, inst: Instance) -> str:
    """The name the file gave a member of its context."""
    return loaded.name_of[loaded.context.row_of(inst)]


def _trace_text(trace) -> str:
    return " -> ".join(snap.render() for snap in trace)


def _witness_text(loaded: LoadedContext, witness: SnapshotConflict, mode: str) -> str:
    sig = loaded.context.signature
    n = len(sig.times)
    i, j = (sig.time_index(t) for _, t in witness.occurrences)
    lines = ["witness:", f"  snapshot: {witness.snapshot.render()}"] + [
        f"  occurrence {k}: instance {_instance_label(loaded, inst)} at t={t}"
        for k, (inst, t) in enumerate(witness.occurrences, 1)
    ]
    if mode == "literal" and i != j:
        lines.append(
            f"  suffixes have lengths {n - i} and {n - j}: no monotone bijection exists"
        )
    else:
        window = min(n - i, n - j)
        b1, b2 = ({tr[:window] for tr in bundle} for bundle in witness.futures)
        lines.append(f"  future bundles differ on the first {window} time point(s):")
        for tag, only in (("1", b1 - b2), ("2", b2 - b1)):
            for trace in sorted(only, key=_trace_text)[:3]:
                lines.append(f"  only from occurrence {tag}: {_trace_text(trace)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ctx subcommands
# ---------------------------------------------------------------------------

def cmd_ctx_check_determinable(args) -> tuple[int, str]:
    loaded, fields = _load(args, parse_context)
    witness = is_determinable(loaded.context, args.mode)
    fields.append(("mode", args.mode))
    fields.append(("verdict", "yes" if witness is None else "no"))
    if witness is None:
        return 0, _report(fields)
    (_, t), (_, u) = witness.occurrences
    fields.append(("witness_time", t))
    fields.append(("witness_other_time", u))
    fields.append(("witness_snapshot", witness.snapshot.render()))
    return 1, _report(fields, _witness_text(loaded, witness, args.mode))


def cmd_ctx_iterator(args) -> tuple[int, str]:
    loaded, fields = _load(args, parse_context)
    result = extract_iterator(loaded.context)
    if not isinstance(result, SnapshotConflict):
        fields.append(("verdict", "yes"))
        fields.append(("domain_size", str(len(result))))
        return 0, _report(fields, render_iterator_map(result))
    conflict = result
    fields.append(("verdict", "no"))
    fields.append(("conflict_snapshot", conflict.snapshot.render()))
    human = ["iterator conflict:", f"  snapshot: {conflict.snapshot.render()}"]
    for (inst, t), image in zip(conflict.occurrences, conflict.futures):
        demands = ", ".join(sorted(s.render() for s in image))
        human.append(f"  instance {_instance_label(loaded, inst)} at t={t} demands {{{demands}}}")
    return 1, _report(fields, "\n".join(human) + "\n")


def cmd_ctx_consistency(args) -> tuple[int, str]:
    loaded, fields = _load(args, parse_context)
    ref = loaded.instance_named(args.instance)
    result = consistency_context(loaded.context, ref, args.time)
    fields.append(("instance", args.instance))
    fields.append(("time", args.time))
    fields.append(("instances", str(len(result))))
    return 0, _report(fields, render_context(result))


def cmd_ctx_deterministic(args) -> tuple[int, str]:
    loaded, fields = _load(args, parse_context)
    verdict = is_deterministic(loaded.context)
    fields.append(("verdict", "yes" if verdict else "no"))
    return 0 if verdict else 1, _report(fields)


# ---------------------------------------------------------------------------
# modal subcommands: the modal modules run at the first of them
# ---------------------------------------------------------------------------

def cmd_modal_eval(args) -> tuple[int, str]:
    model, fields = _load(args, parse_kripke)
    formula = modal_logic.parse_formula(args.formula)
    value = modal_logic.satisfies(model, args.world, formula)
    fields.append(("world", args.world))
    fields.append(("formula", args.formula))
    fields.append(("verdict", "true" if value else "false"))
    return 0 if value else 1, _report(fields, "true\n" if value else "false\n")


def _universe_from_args(args):
    return modal_logic.formula_universe(tuple(args.atoms.split(",")), args.depth, cap=args.cap)


def cmd_modal_to_context(args) -> tuple[int, str]:
    model, fields = _load(args, parse_kripke)
    universe = _universe_from_args(args)
    mc = modal_context.to_modal_context(model, universe)
    fields.append(("universe_size", str(len(universe))))
    fields.append(("worlds", str(len(mc.world_names))))
    fields.append(("edges", str(mc.edge_count())))
    return _deliver(args, render_modal_context(mc), fields)


def cmd_modal_check_context(args) -> tuple[int, str]:
    mc, fields = _load(args, parse_modal_context)
    violations = modal_context.is_modal_context(mc)
    fields.append(("worlds", str(len(mc.world_names))))
    fields.append(("verdict", "no" if violations else "yes"))
    if not violations:
        return 0, _report(fields)
    fields.append(("violations", str(len(violations))))
    human = ["violations:"] + [f"  {v.describe()}" for v in violations[:10]]
    if len(violations) > 10:
        human.append(f"  ... and {len(violations) - 10} more")
    return 1, _report(fields, "\n".join(human) + "\n")


def cmd_modal_verify_theorem(args) -> tuple[int, str]:
    model, fields = _load(args, parse_kripke)
    universe = _universe_from_args(args)
    mc = modal_context.to_modal_context(model, universe)
    violations = modal_context.is_modal_context(mc)
    conditions = not violations
    representation = modal_context.verify_representation(model, mc)
    # prover_agreement refuses a world without a carrier; that is a no here
    agreement = representation and modal_context.prover_agreement(model, mc)
    verdict = conditions and representation and agreement
    fields.append(("universe_size", str(len(universe))))
    fields.append(("context_worlds", str(len(mc.world_names))))
    fields.append(("modal_context", "yes" if conditions else "no"))
    fields.append(("representation", "yes" if representation else "no"))
    fields.append(("prover_agreement", "yes" if agreement else "no"))
    # informational only: the fixed-point property is not part of the verdict
    fields.append(("requotient_fixed_point",
                   "yes" if modal_context.requotient_is_identity(mc) else "no"))
    fields.append(("verdict", "yes" if verdict else "no"))
    return 0 if verdict else 1, _report(fields)


# ---------------------------------------------------------------------------
# gen subcommands
# ---------------------------------------------------------------------------

def cmd_gen_context(args) -> tuple[int, str]:
    """Generate args.make's context; report the arguments args.shown names."""
    ctx = args.make(args)
    fields = _base_fields(args) + [(name, str(getattr(args, name))) for name in args.shown]
    fields.append(("instances", str(len(ctx))))
    return _deliver(args, render_context(ctx), fields)


def cmd_gen_random_kripke(args) -> tuple[int, str]:
    model = gen_random_kripke(
        args.seed, args.worlds, tuple(args.atoms.split(",")), args.density
    )
    fields = _base_fields(args) + [
        ("seed", str(args.seed)),
        ("worlds", str(len(model.worlds))),
        ("edges", str(model.edge_count())),
    ]
    return _deliver(args, render_kripke(model), fields)


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's parser; its subparsers, the leaf parsers among them, are of
    its class. Every argparse refusal passes through `error`, which prints its
    message on one line, cut to 200 bytes and an ellipsis when longer."""

    def error(self, message):
        # a word argv could not decode holds surrogates: they count, and are
        # cut, as the escapes stderr writes for them
        data = " ".join(message.splitlines()).encode(errors="backslashreplace")
        cut = data[:200].decode(errors="ignore")
        super().error(cut if len(data) <= 200 else cut + "\u2026")


@cache
def _build_parser() -> tuple[
    argparse.ArgumentParser, dict[tuple[str, str], argparse.ArgumentParser]
]:
    """The CLI parser and its leaf parsers by (group, command), built on
    first use and shared by every later call.

    argparse fills a fresh namespace on each parse and never changes the
    parser, so one instance serves the whole process.
    """
    parser = _Parser(
        prog="ctxkit",
        description="Finite contexts, determinability, and modal-context checking.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    ctx = groups.add_parser("ctx", help="context analysis").add_subparsers(
        dest="command", required=True
    )
    p = ctx.add_parser("check-determinable", help="decide determinability")
    p.add_argument("file")
    p.add_argument(
        "--mode",
        choices=MODES,
        default="literal",
        help="literal: the definition verbatim; windowed: compare over the "
        "common suffix window (default: literal)",
    )
    p.set_defaults(func=cmd_ctx_check_determinable)
    p = ctx.add_parser("iterator", help="extract the step function if one exists")
    p.add_argument("file")
    p.set_defaults(func=cmd_ctx_iterator)
    p = ctx.add_parser("consistency", help="filter by prefix agreement")
    p.add_argument("file")
    p.add_argument("--instance", required=True)
    p.add_argument("--time", required=True)
    p.set_defaults(func=cmd_ctx_consistency)
    p = ctx.add_parser("deterministic", help="single successor at every step?")
    p.add_argument("file")
    p.set_defaults(func=cmd_ctx_deterministic)

    modal = groups.add_parser("modal", help="Kripke models and modal contexts").add_subparsers(
        dest="command", required=True
    )
    p = modal.add_parser("eval", help="evaluate a formula at a world")
    p.add_argument("file")
    p.add_argument("--world", required=True)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_modal_eval)
    p = modal.add_parser("to-context", help="compile a model into a modal context")
    p.add_argument("file")
    p.add_argument("--atoms", required=True, help="comma-separated atom list")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--cap", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_modal_to_context)
    p = modal.add_parser("check-context", help="check the box/diamond conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_modal_check_context)
    p = modal.add_parser(
        "verify-theorem",
        help="compile, check conditions, and verify world representation",
    )
    p.add_argument("file")
    p.add_argument("--atoms", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--cap", type=int, default=1)
    p.set_defaults(func=cmd_modal_verify_theorem)

    gen = groups.add_parser("gen", help="generate example artifacts").add_subparsers(
        dest="command", required=True
    )
    p = gen.add_parser("alice-bob")
    p.add_argument("--horizon", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_context, make=lambda a: gen_alice_bob(a.horizon), shown=())
    p = gen.add_parser("alice-bob-odd")
    p.add_argument("--horizon", type=int, default=3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_context, make=lambda a: gen_alice_bob_odd(a.horizon), shown=())
    p = gen.add_parser("minigame")
    p.add_argument("--variant", choices=("base", "turn"), default="base")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_context, make=lambda a: gen_minigame()[a.variant != "base"],
                   shown=("variant",))
    p = gen.add_parser("random-ctx")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--entities", type=int, default=2)
    p.add_argument("--times", type=int, default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("-o", "--output")
    p.set_defaults(
        func=cmd_gen_context,
        make=lambda a: gen_random_context(a.seed, a.states, a.entities, a.times, a.count),
        shown=("seed",),
    )
    p = gen.add_parser("random-kripke")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--worlds", type=int, default=4)
    p.add_argument("--atoms", default="p,q")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen_random_kripke)

    leaves = {(group, command): leaf
              for group, commands in (("ctx", ctx), ("modal", modal), ("gen", gen))
              for command, leaf in commands.choices.items()}
    return parser, leaves


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace the parser tree gives argv. A known `<group> <command>`
    goes straight to that command's parser, which the tree would hand the
    same words, so its help and errors print the same bytes. Anything else,
    or words that parser leaves over, goes through the tree."""
    parser, leaves = _build_parser()
    leaf = leaves.get(tuple(argv[:2]))
    if leaf is not None:
        args, rest = leaf.parse_known_args(
            argv[2:], argparse.Namespace(group=argv[0], command=argv[1])
        )
        if not rest:
            return args
    return parser.parse_args(argv)


def cli_dispatch(argv: list[str]) -> int:
    try:
        args = _parse_argv(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    args.raw_argv = list(argv)
    started = time.perf_counter()
    try:
        code, report = args.func(args)
        sys.stdout.write(report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = (time.perf_counter() - started) * 1000.0
        print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    """`cli_dispatch` for a process: a warning is one `warning: <message>` line."""
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
