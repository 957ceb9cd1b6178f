"""The benchmark's workloads: which files each one generates and which
commands one pass runs on them.

Every seed-dependent input is drawn from a fixed, finite population of
generator settings, so that `answers.json` can hold a known answer for every
command any seed can produce. `build(name, pool, seed)` draws one run's
members; `build(name, pool, None)` takes the whole population, which is what
`record_answers.py` walks. The kripke models do not depend on the seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("timelines", "kripke", "corpus")

# timelines: random contexts are `gen random-ctx --seed k` for k in range(...)
TIMELINE_RANDOM_POPULATION = 24
TIMELINE_RANDOM_PER_RUN = 6
TIMELINE_HORIZONS = (3, 4, 5, 6)
# windowed determinability at these horizons takes 76 s and more at the
# seed commit; a change that makes them cheap adds them in its own
# benchmark change
WINDOWED_MAX_HORIZON = 4

# kripke: two models per size, the same for every seed. A model's cost
# follows its class count (22 to 30 classes at 32 worlds over generator seeds
# 0-11), and drawing one model per size by seed moved cmds_per_s by 15% and
# cmd_p50_ms by 25% (quartile spread over five seeds). The median falls on
# the `verify-theorem --atoms p,q,r` group, which a second model per size
# doubles.
KRIPKE_SIZES = (8, 16, 32)
KRIPKE_MODEL_SEEDS = (1, 2)
EVAL_FORMULAS = ("[]p -> <>q", "<>[]p", "[](p | q) & <>(q -> p)")

# corpus: stratified, so that every run has the same mix of sizes. Stratum j
# fixes the settings (states, entities, times, draws; or worlds, density,
# formula) and holds members j*P .. j*P+P-1, which differ in generator seed
# only; a run takes one member per stratum.
CORPUS_CONTEXTS_PER_RUN = 60
CORPUS_MODELS_PER_RUN = 30
CORPUS_SEEDS_PER_STRATUM = 4
CORPUS_DENSITIES = ("0.2", "0.35", "0.5")


@dataclass(frozen=True)
class Command:
    """One `cli_dispatch` call and the key of its known answer."""

    input: str  # pool file name the answer is filed under
    kind: str  # answer key within that file
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Command, ...]  # generates the pool; timed as set-up
    one_pass: tuple[Command, ...]  # the timed loop repeats this


def _draw(name: str, seed: int | None, population: int, k: int) -> list[int]:
    if seed is None:
        return list(range(population))
    return sorted(random.Random(f"{name}:{seed}").sample(range(population), k))


def _context_commands(pool: str, name: str, windowed: bool = True) -> list[Command]:
    path = f"{pool}/{name}"
    cmds = [
        Command(name, "literal", ("ctx", "check-determinable", path)),
        Command(name, "iterator", ("ctx", "iterator", path)),
        Command(name, "deterministic", ("ctx", "deterministic", path)),
    ]
    if windowed:
        cmds.append(Command(name, "windowed",
                            ("ctx", "check-determinable", path, "--mode", "windowed")))
    return cmds


def timelines(pool: str, seed: int | None) -> Workload:
    files: list[tuple[str, tuple[str, ...], bool]] = []
    for h in TIMELINE_HORIZONS:
        for gen in ("alice-bob", "alice-bob-odd"):
            files.append((f"{gen}-h{h}.ctx", (gen, "--horizon", str(h)),
                          h <= WINDOWED_MAX_HORIZON))
    for variant in ("base", "turn"):
        files.append((f"minigame-{variant}.ctx", ("minigame", "--variant", variant), True))
    for k in _draw("timelines", seed, TIMELINE_RANDOM_POPULATION, TIMELINE_RANDOM_PER_RUN):
        files.append((f"random-ctx-s{k}.ctx",
                      ("random-ctx", "--seed", str(k), "--states", "3", "--entities", "2",
                       "--times", "4", "--count", "200"), True))
    setup, one_pass = [], []
    for name, gen_args, windowed in files:
        path = f"{pool}/{name}"
        setup.append(Command(name, "gen", ("gen",) + gen_args + ("-o", path)))
        one_pass += _context_commands(pool, name, windowed)
        one_pass.append(Command(name, "consistency",
                                ("ctx", "consistency", path, "--instance", "i0", "--time", "1")))
    return Workload("timelines", tuple(setup), tuple(one_pass))


def kripke(pool: str, seed: int | None) -> Workload:
    setup, one_pass = [], []
    for n, k in itertools.product(KRIPKE_SIZES, KRIPKE_MODEL_SEEDS):
        model, mctx = f"kripke-w{n}-s{k}.kr", f"kripke-w{n}-s{k}.mctx"
        path, mpath = f"{pool}/{model}", f"{pool}/{mctx}"
        setup += [
            Command(model, "gen", ("gen", "random-kripke", "--seed", str(k), "--worlds",
                                   str(n), "--atoms", "p,q", "--density", str(3 / n),
                                   "-o", path)),
            Command(mctx, "gen", ("modal", "to-context", path, "--atoms", "p,q",
                                  "--depth", "2", "-o", mpath)),
        ]
        one_pass += [
            Command(model, f"eval-{i}", ("modal", "eval", path, "--world", "w0",
                                         "--formula", formula))
            for i, formula in enumerate(EVAL_FORMULAS)
        ]
        one_pass += [
            Command(model, "verify-pq-2", ("modal", "verify-theorem", path,
                                           "--atoms", "p,q", "--depth", "2")),
            Command(model, "to-context-pq-2", ("modal", "to-context", path,
                                               "--atoms", "p,q", "--depth", "2")),
            Command(mctx, "check-context", ("modal", "check-context", mpath)),
            Command(model, "verify-pqr-1", ("modal", "verify-theorem", path,
                                            "--atoms", "p,q,r", "--depth", "1")),
        ]
    return Workload("kripke", tuple(setup), tuple(one_pass))


def _stratified(name: str, seed: int | None, strata: int) -> list[int]:
    per = CORPUS_SEEDS_PER_STRATUM
    if seed is None:
        return list(range(strata * per))
    rng = random.Random(f"{name}:{seed}")
    return [j * per + rng.randrange(per) for j in range(strata)]


def corpus_context_args(k: int) -> tuple[str, ...]:
    """`gen random-ctx` arguments of corpus context member k."""
    rng = random.Random(f"corpus-context:{k // CORPUS_SEEDS_PER_STRATUM}")
    return ("random-ctx", "--seed", str(k), "--states", str(rng.randint(1, 3)),
            "--entities", str(rng.randint(1, 2)), "--times", str(rng.randint(1, 3)),
            "--count", str(rng.randint(1, 20)))


def corpus_model_args(k: int) -> tuple[tuple[str, ...], str]:
    """`gen random-kripke` arguments and the eval formula of corpus model k."""
    rng = random.Random(f"corpus-model:{k // CORPUS_SEEDS_PER_STRATUM}")
    args = ("random-kripke", "--seed", str(k), "--worlds", str(rng.randint(1, 8)),
            "--atoms", "p,q", "--density", rng.choice(CORPUS_DENSITIES))
    return args, rng.choice(EVAL_FORMULAS)


def corpus(pool: str, seed: int | None) -> Workload:
    writes, one_pass = [], []
    for k in _stratified("corpus-contexts", seed, CORPUS_CONTEXTS_PER_RUN):
        name = f"corpus-ctx-{k}.ctx"
        gen = Command(name, "gen", ("gen",) + corpus_context_args(k) + ("-o", f"{pool}/{name}"))
        writes.append(gen)
        one_pass += [gen] + _context_commands(pool, name)
    for k in _stratified("corpus-models", seed, CORPUS_MODELS_PER_RUN):
        model, mctx = f"corpus-kripke-{k}.kr", f"corpus-kripke-{k}.mctx"
        path, mpath = f"{pool}/{model}", f"{pool}/{mctx}"
        gen_args, formula = corpus_model_args(k)
        gen = Command(model, "gen", ("gen",) + gen_args + ("-o", path))
        compile_ = Command(mctx, "gen", ("modal", "to-context", path, "--atoms", "p,q",
                                         "--depth", "1", "-o", mpath))
        writes += [gen, compile_]
        one_pass += [
            gen,
            compile_,
            Command(mctx, "check-context", ("modal", "check-context", mpath)),
            Command(model, "verify-pq-1", ("modal", "verify-theorem", path,
                                           "--atoms", "p,q", "--depth", "1")),
            Command(model, "eval-0", ("modal", "eval", path, "--world", "w0",
                                      "--formula", formula)),
        ]
    return Workload("corpus", tuple(writes), tuple(one_pass))


def read_context(text: str):
    """(headers, tables, instance names) of a context file, without the library.

    headers maps states/entities/time to their symbols; a table maps
    (entity, time) to a state.
    """
    headers: dict[str, tuple[str, ...]] = {}
    tables: list[dict[tuple[str, str], str]] = []
    names: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        first, *rest = line.split()
        if first in ("states:", "entities:", "time:"):
            headers[first[:-1]] = tuple(rest)
        elif first == "instance":
            names.append(line[len("instance"):].strip().rstrip(":").strip())
            tables.append({})
        else:
            for token in line.split():
                cell, state = token.split("=")
                entity, time = cell.split("@")
                tables[-1][(entity, time)] = state
    return headers, tables, names


def read_kripke(text: str):
    """(worlds, relation, valuation) of a Kripke model file, without the library."""
    worlds, relation, valuation = [], set(), {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "world":
            worlds.append(parts[1])
        elif parts[0] == "edge":
            relation.add((parts[1], parts[2]))
        elif parts[0] == "val":
            valuation.setdefault(parts[2], set()).add(parts[1])
    return worlds, relation, valuation


def build(name: str, pool: str, seed: int | None) -> Workload:
    """The named workload with its pool under `pool`; seed None = whole population."""
    return {"timelines": timelines, "kripke": kripke, "corpus": corpus}[name](pool, seed)
