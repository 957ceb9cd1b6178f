"""The traced run: spans around the calls into each ctxkit module's public
functions, recorded from the benchmark's own code.

Each wrapped function is rebound in every ctxkit module that holds it, so
nested calls get spans too: `parse_context` under `load_context`,
`to_modal_context` under `requotient_is_identity`, `formula_universe` under
`parse_modal_context`. Hot per-formula calls get one accumulator per name
(calls and total seconds) instead of a span each. Spans stay in memory and
are written when the run ends.

Work counts come from the generated inputs, not from inside the program, so
they repeat exactly: `input_properties` reads each pool file, and
`command_work` says which of those properties a command puts through which
layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from functools import cache
from pathlib import Path

import workloads

# module -> public functions that get one span per call
SPANNED = {
    "cli": ("cli_dispatch",),
    "core": ("consistency_context", "build_full_space", "restrict"),
    "determinability": ("is_determinable", "extract_iterator", "is_deterministic",
                        "render_iterator_map"),
    "formats": ("load_context", "parse_context", "load_kripke", "parse_kripke",
                "load_modal_context", "parse_modal_context", "render_context",
                "render_kripke", "render_modal_context", "file_digest"),
    "generators": ("gen_alice_bob", "gen_alice_bob_odd", "gen_minigame",
                   "gen_random_context", "gen_random_kripke"),
    "modal_logic": ("formula_universe",),
    "modal_context": ("to_modal_context", "is_modal_context", "verify_representation",
                      "class_world_map", "requotient_is_identity"),
}
# module -> per-formula functions that get an accumulator instead of spans
HOT = {
    "modal_logic": ("parse_formula", "Evaluator.satisfies", "world_theory"),
    "modal_context": ("prove_in_context",),
}
# instances that core functions take in or build
CORE_INSTANCES = {
    "core.consistency_context": lambda args, result: len(args[0]),
    "core.restrict": lambda args, result: len(args[0]),
    "core.build_full_space": lambda args, result: len(result),
}

GEN_SPANS = tuple(f"generators.{name}" for name in SPANNED["generators"])
SPAN_METRICS = {
    "determinability.windowed_s": ("determinability.is_determinable:windowed",),
    "determinability.literal_s": ("determinability.is_determinable:literal",),
    "determinability.iterator_s": ("determinability.extract_iterator",),
    "determinability.deterministic_s": ("determinability.is_deterministic",),
    "core.consistency_s": ("core.consistency_context",),
    "core.full_space_s": ("core.build_full_space",),
    "core.restrict_s": ("core.restrict",),
    "generators.gen_s": GEN_SPANS,
    "formats.parse_context_s": ("formats.parse_context",),
    "formats.parse_modal_context_s": ("formats.parse_modal_context",),
    "formats.render_s": ("formats.render_context", "formats.render_kripke",
                         "formats.render_modal_context"),
    "formats.digest_s": ("formats.file_digest",),
    "modal_logic.universe_s": ("modal_logic.formula_universe",),
    "modal_context.to_modal_context_s": ("modal_context.to_modal_context",),
    "modal_context.is_modal_context_s": ("modal_context.is_modal_context",),
    "modal_context.verify_representation_s": ("modal_context.verify_representation",),
    "modal_context.class_world_map_s": ("modal_context.class_world_map",),
    "modal_context.requotient_s": ("modal_context.requotient_is_identity",),
}
HOT_METRICS = {
    "modal_logic.parse_formula_s": "modal_logic.parse_formula",
    "modal_logic.eval_s": "modal_logic.Evaluator.satisfies",
    "modal_context.prove_s": "modal_context.prove_in_context",
}
# work counts per set-up plus one pass, from command_work
WORK_METRICS = (
    "determinability.equal_snapshot_pairs", "determinability.instances",
    "determinability.occurrences", "determinability.distinct_snapshots",
    "determinability.prefix_groups", "formats.bytes_read", "formats.has_lines",
    "modal_logic.universe_members", "modal_logic.modal_atoms", "modal_context.worlds",
    "modal_context.edges", "modal_context.classes",
)


def _span_name(qualified: str, args, kwargs) -> str:
    if qualified == "determinability.is_determinable":
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "literal")
        return f"{qualified}:{mode}"
    return qualified


class Tracer:
    """Span and counter store for one traced run of one workload."""

    def __init__(self, workload: workloads.Workload, pool: str):
        self.spans: list[list] = []  # [name, start, end, parent index, command id]
        self.stack: list[int] = []
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self.hot_in_span: defaultdict[int, float] = defaultdict(float)  # span -> seconds
        self.commands: list[tuple[str, str, str]] = []  # (phase, kind, input)
        self.phase = "setup"
        self.hot_setup: dict[str, list] = {}
        self.counts: dict[str, Counter] = {"setup": Counter(), "pass": Counter()}
        self._restore: list[tuple[object, str, object]] = []
        self._theories_before = 0
        self.props = input_properties(Path(pool), workload)
        self.work = {cmd: command_work(cmd, self.props) for cmd in
                     workload.setup + workload.one_pass}

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, qualified: str, fn):
        spans, stack, count = self.spans, self.stack, CORE_INSTANCES.get(qualified)

        def traced(*args, **kwargs):
            record = [_span_name(qualified, args, kwargs), 0.0, 0.0,
                      stack[-1] if stack else None, len(self.commands) - 1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                counts = self.counts[self.phase]
                counts["core.instances"] += count(args, result)
                if qualified == "core.build_full_space" and stack \
                        and spans[stack[-1]][0].startswith("generators."):
                    counts["generators.enumerated"] += len(result)
            return result

        return traced

    def _hot(self, qualified: str, fn):
        acc = self.hot.setdefault(qualified, [0, 0.0])
        stack, in_span = self.stack, self.hot_in_span

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                acc[0] += 1
                acc[1] += elapsed
                if stack:
                    in_span[stack[-1]] += elapsed

        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a ctxkit module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "ctxkit" or name.startswith("ctxkit.")]
        for kinds, wrap in ((SPANNED, self._spanned), (HOT, self._hot)):
            for module_name, names in kinds.items():
                home = sys.modules[f"ctxkit.{module_name}"]
                for name in names:
                    qualified = f"{module_name}.{name}"
                    if "." in name:  # a method: rebind on its class
                        cls_name, method = name.split(".")
                        cls = getattr(home, cls_name)
                        self._rebind(cls, method, wrap(qualified, getattr(cls, method)))
                        continue
                    original = getattr(home, name)
                    wrapped = wrap(qualified, original)
                    for module in modules:
                        if getattr(module, name, None) is original:
                            self._rebind(module, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- per command ------------------------------------------------------

    def start_passes(self) -> None:
        """End the traced set-up; what follows is divided by the pass count."""
        self.hot_setup = {name: list(acc) for name, acc in self.hot.items()}
        self.phase = "pass"

    def begin_command(self, cmd: workloads.Command) -> None:
        self.commands.append((self.phase, cmd.kind, cmd.input))
        self._theories_before = self._theory_calls()

    def end_command(self, cmd: workloads.Command, error: str | None) -> None:
        counts = self.counts[self.phase]
        counts.update(self.work[cmd])
        theories = self._theory_calls() - self._theories_before
        if theories:
            model = self.props[Path(cmd.argv[2]).name]
            counts["modal_context.theory_passes"] += theories / model["worlds"]
        if error is not None:
            counts["cli.exceptions"] += 1

    def _theory_calls(self) -> int:
        return self.hot.get("modal_logic.world_theory", [0])[0]

    # -- results ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one set-up plus one pass (pass totals / passes)."""
        setup_cmds = sum(1 for phase, _, _ in self.commands if phase == "setup")

        def per_unit(setup_part: float, pass_part: float) -> float:
            return setup_part + pass_part / passes

        span_s = {name: [0.0, 0.0] for name in SPAN_METRICS}
        group_of = {span: metric for metric, spans in SPAN_METRICS.items() for span in spans}
        cli_self = [0.0, 0.0]
        children_s: defaultdict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children_s[parent] += end - start
        for index, (name, start, end, parent, cmd_id) in enumerate(self.spans):
            side = 0 if cmd_id < setup_cmds else 1
            metric = group_of.get(name)
            # a call nested in a call of the same metric is counted once
            if metric is not None and (parent is None
                                       or group_of.get(self.spans[parent][0]) != metric):
                span_s[metric][side] += end - start
            if name == "cli.cli_dispatch":
                cli_self[side] += end - start - children_s[index] - self.hot_in_span[index]

        metrics = {name: (per_unit(*parts), "s") for name, parts in span_s.items()}
        metrics["cli.self_s"] = (per_unit(*cli_self), "s")

        def hot(name: str, field: int) -> float:
            total = self.hot.get(name, [0, 0.0])[field]
            setup_part = self.hot_setup.get(name, [0, 0.0])[field]
            return per_unit(setup_part, total - setup_part)

        for name, hot_name in HOT_METRICS.items():
            metrics[name] = (hot(hot_name, 1), "s")
        metrics["modal_logic.satisfies_calls"] = (hot("modal_logic.Evaluator.satisfies", 0),
                                                  "count")

        setup, one = self.counts["setup"], self.counts["pass"]
        for name in WORK_METRICS + ("core.instances", "generators.enumerated",
                                    "modal_context.theory_passes", "cli.exceptions"):
            metrics[name] = (per_unit(setup[name], one[name]), "count")
        return dict(sorted(metrics.items()))

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps(dict(header, commands=self.commands,
                                      fields=["name", "start", "end", "parent", "command"]))
                      + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            out.write(json.dumps({"accumulators": self.hot}) + "\n")


# ---------------------------------------------------------------------------
# work counts from the generated inputs
# ---------------------------------------------------------------------------

def context_properties(text: str) -> dict[str, int]:
    headers, tables, _ = workloads.read_context(text)
    entities, times = headers["entities"], headers["time"]
    # per instance, its snapshots by time
    rows = [tuple(tuple(t[(e, time)] for e in entities) for time in times) for t in tables]
    n_times = len(times)
    by_snapshot = Counter(snap for row in rows for snap in row)
    return {
        "instances": len(rows),
        "occurrences": len(rows) * n_times,
        "distinct_snapshots": len(by_snapshot),
        "prefix_groups": sum(len({row[:t + 1] for row in rows}) for t in range(n_times)),
        "equal_snapshot_pairs": sum(k * (k - 1) // 2 for k in by_snapshot.values()),
    }


def input_properties(pool: Path, workload: workloads.Workload) -> dict[str, dict]:
    """Properties of every pool file, read back from the files themselves."""
    props = {}
    for cmd in workload.setup:
        path = pool / cmd.input
        text = path.read_text()
        if cmd.input.endswith(".ctx"):
            props[cmd.input] = context_properties(text)
        elif cmd.input.endswith(".kr"):
            worlds, relation, _ = workloads.read_kripke(text)
            props[cmd.input] = {"worlds": len(worlds), "edges": len(relation)}
        else:
            lines = [line.split()[0] for line in text.splitlines() if line.strip()]
            props[cmd.input] = {"has_lines": lines.count("has"),
                                "classes": lines.count("cworld")}
        props[cmd.input]["bytes"] = len(text.encode())
    return props


def _option(argv: tuple[str, ...], flag: str) -> str:
    return argv[argv.index(flag) + 1]


@cache
def universe_size(atoms: str, depth: int) -> tuple[int, int]:
    """(members, modal atoms) of a generated universe at cap 1.

    Modal atoms are the members that are atoms, constants or modal formulas.
    """
    from ctxkit.modal_logic import Atom, Bottom, Box, Diamond, Top, formula_universe

    members = formula_universe(tuple(atoms.split(",")), depth).members
    modal = sum(isinstance(f, (Atom, Top, Bottom, Box, Diamond)) for f in members)
    return len(members), modal


@cache
def class_count(model_path: Path, atoms: str, depth: int) -> int:
    """Classes of a model's quotient over a generated universe."""
    from ctxkit.formats import load_kripke
    from ctxkit.modal_context import quotient
    from ctxkit.modal_logic import formula_universe

    universe = formula_universe(tuple(atoms.split(",")), depth)
    return len(quotient(load_kripke(model_path), universe))


def command_work(cmd: workloads.Command, props: dict[str, dict]) -> Counter:
    """The input work one command puts through each layer."""
    argv, verb = cmd.argv, cmd.argv[1]
    work: Counter = Counter()
    if argv[0] == "gen":
        return work
    p = props[Path(argv[2]).name]  # the file the command loads
    work["formats.bytes_read"] = p["bytes"]
    if verb in ("check-determinable", "iterator", "deterministic"):
        for name in ("instances", "occurrences", "distinct_snapshots", "prefix_groups"):
            work[f"determinability.{name}"] = p[name]
        if cmd.kind == "windowed":
            work["determinability.equal_snapshot_pairs"] = p["equal_snapshot_pairs"]
    elif verb in ("to-context", "verify-theorem"):
        atoms, depth = _option(argv, "--atoms"), int(_option(argv, "--depth"))
        members, modal = universe_size(atoms, depth)
        work["modal_logic.universe_members"] = members
        work["modal_logic.modal_atoms"] = modal
        work["modal_context.worlds"] = p["worlds"]
        work["modal_context.edges"] = p["edges"]
        work["modal_context.classes"] = class_count(Path(argv[2]), atoms, depth)
    elif verb == "check-context":
        header = Path(argv[2]).read_text().split("\n", 1)[0].split()
        fields = dict(part.split("=", 1) for part in header[1:])
        members, modal = universe_size(fields["atoms"], int(fields["depth"]))
        work["modal_logic.universe_members"] = members
        work["modal_logic.modal_atoms"] = modal
        work["formats.has_lines"] = p["has_lines"]
        work["modal_context.classes"] = p["classes"]
    return work
