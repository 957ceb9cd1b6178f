"""Run one ctxkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload timelines --seed 1 --seconds 50 --trace 0

Drives `ctxkit.cli.cli_dispatch` in-process, in a closed loop with one
client and one thread, for a fixed number of passes sized to take about
`--seconds` at the seed commit, checks every command against `answers.json`,
and prints a human-readable report followed by one JSON line. With `--trace 0`
the JSON holds the end-to-end metrics, with `--trace 1` the per-layer ones
(see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ANSWERS = HERE / "answers.json"

# set-ups per untraced run, spread evenly over its passes
SETUP_REPEATS = 11
# seconds one pass took at the seed commit on a 2-vCPU x86-64 container. A
# run makes round(--seconds / this) passes, so it does the same work however
# fast the host is at the moment, and the same seed gives the same commands
# and the same failures in every run.
PASS_SECONDS = {"timelines": 4.5, "kripke": 17.0, "corpus": 3.1}
# passes stop early, after a whole pass, once they have taken this many
# times --seconds, so that a much slower program still ends in time
OVERRUN = 2.5
POOL_PLACEHOLDER = "<POOL>"
# failure reasons that mean the program answered, and answered wrongly
WRONG_ANSWER = ("exit-code", "verdict", "stdout")


def import_cli():
    """Import ctxkit.cli afresh, dropping any ctxkit module imported before."""
    for name in [m for m in sys.modules if m == "ctxkit" or m.startswith("ctxkit.")]:
        del sys.modules[name]
    return importlib.import_module("ctxkit.cli")


def run_command(dispatch, cmd: workloads.Command):
    """(seconds, exit code, escaped exception type, stdout) of one call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code, error = dispatch(list(cmd.argv)), None
        except Exception as exc:  # an escaping exception is a counted failure
            code, error = None, type(exc).__name__
        elapsed = time.perf_counter() - start
    return elapsed, code, error, out.getvalue()


def stdout_digest(stdout: str, pool: str) -> str:
    """sha256 of stdout with the pool directory replaced by a placeholder."""
    return hashlib.sha256(stdout.replace(pool, POOL_PLACEHOLDER).encode()).hexdigest()[:16]


def report_fields(stdout: str) -> dict[str, str]:
    head = stdout.split("\n\n", 1)[0]
    return dict(line.split("=", 1) for line in head.splitlines() if "=" in line)


def failure(answer, code, error, stdout: str, pool: str) -> str | None:
    """None when the call matches its known answer, else why it failed."""
    if error is not None:
        return error
    exit_code, fields, digest = answer
    if code != exit_code:
        return "exit-code"
    got = report_fields(stdout)
    if any(got.get(key) != value for key, value in fields.items()):
        return "verdict"
    if digest is not None and stdout_digest(stdout, pool) != digest:
        return "stdout"
    return None


def is_wrong(answer, reason: str) -> bool:
    """Whether a failure breaks a known answer.

    An exception is a wrong answer unless the command also raised when the
    answers were recorded, which its null stdout digest records.
    """
    return reason in WRONG_ANSWER or answer[2] is not None


class Loop:
    """The closed loop's tallies: latencies and failures per (kind, reason)."""

    def __init__(self, answers: dict, pool: str):
        self.answers = answers
        self.pool = pool
        self.samples: list[float] = []
        self.failures: Counter = Counter()
        self.wrong = 0
        self.passes = 0
        self.seconds = 0.0  # spent in passes

    def run(self, dispatch, cmd, tracer=None) -> None:
        if tracer is not None:
            tracer.begin_command(cmd)
        elapsed, code, error, stdout = run_command(dispatch, cmd)
        if tracer is not None:
            tracer.end_command(cmd, error)
        self.samples.append(elapsed)
        answer = self.answers[cmd.input][cmd.kind]
        reason = failure(answer, code, error, stdout, self.pool)
        if reason is not None:
            self.failures[(cmd.kind, reason)] += 1
            self.wrong += is_wrong(answer, reason)

    def one_pass(self, dispatch, workload, tracer=None) -> None:
        start = time.perf_counter()
        for cmd in workload.one_pass:
            self.run(dispatch, cmd, tracer)
        self.seconds += time.perf_counter() - start
        self.passes += 1

    def out_of_time(self, seconds: float) -> bool:
        return self.seconds >= OVERRUN * seconds

    def run_passes(self, dispatch, workload, count: int, seconds: float,
                   tracer=None) -> None:
        """`count` passes, or fewer once they have overrun `seconds`."""
        for _ in range(count):
            if self.out_of_time(seconds):
                break
            self.one_pass(dispatch, workload, tracer)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def cmds_per_s(self) -> float:
        return len(self.samples) / sum(self.samples)


def set_up(name: str, seed: int, pool: Path):
    """One set-up: a fresh import of ctxkit.cli, then the pool's gen commands.

    Returns (seconds, cli module, workload, per-command results).
    """
    shutil.rmtree(pool, ignore_errors=True)
    pool.mkdir(parents=True)
    workload = workloads.build(name, str(pool), seed)
    start = time.perf_counter()
    cli = import_cli()
    results = [run_command(cli.cli_dispatch, cmd) for cmd in workload.setup]
    return time.perf_counter() - start, cli, workload, results


def check_setup(workload, results, answers, pool: str) -> None:
    for cmd, (_, code, error, stdout) in zip(workload.setup, results):
        reason = failure(answers[cmd.input][cmd.kind], code, error, stdout, pool)
        if reason is not None:
            raise SystemExit(f"set-up command failed ({reason}): ctxkit {' '.join(cmd.argv)}")


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, always one measured sample.

    Every pass runs the same commands; an interpolating percentile would mix
    two commands in a proportion that changes with the run's pass count.
    """
    return sorted(samples)[math.ceil(q * len(samples)) - 1]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def failure_lines(loop: Loop) -> list[str]:
    return [
        f"failures kind={kind} reason={reason} count={n}"
        for (kind, reason), n in sorted(loop.failures.items())
    ]


def untraced_run(args, answers, pool: Path) -> tuple[dict, Loop, list[str]]:
    """The run's passes, with a set-up due at the start of each
    SETUP_REPEATS-th of them, so that set-ups and passes meet the same
    changes in the host's speed.
    """
    passes = pass_count(args.workload, args.seconds)
    setup_times: list[float] = []
    loop = Loop(answers, str(pool))
    for i in range(passes):
        while len(setup_times) < 1 + i * SETUP_REPEATS // passes:
            seconds, cli, workload, results = set_up(args.workload, args.seed, pool)
            check_setup(workload, results, answers, str(pool))
            setup_times.append(seconds)
        if loop.out_of_time(args.seconds):
            break
        loop.one_pass(cli.cli_dispatch, workload)
    samples_ms = [s * 1000.0 for s in loop.samples]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cmds_per_s": (loop.cmds_per_s(), "1/s"),
        "cmd_p50_ms": (percentile(samples_ms, 0.5), "ms"),
        "cmd_p90_ms": (percentile(samples_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - loop.failed / len(loop.samples), "1"),
    }
    n = len(loop.samples)
    lines = [
        f"setup_s={metrics['setup_s'][0]:.4f} s (median of {len(setup_times)} set-ups)",
        f"cmds_per_s={metrics['cmds_per_s'][0]:.3f} 1/s ({n} commands, {loop.passes} passes)",
        f"cmd_p50_ms={metrics['cmd_p50_ms'][0]:.3f} ms (n={n})",
        f"cmd_p90_ms={metrics['cmd_p90_ms'][0]:.3f} ms (n={n})",
        f"peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_ratio={loop.failed / n:.4f} 1 ({loop.failed} of {n})",
        f"ok_ratio={metrics['ok_ratio'][0]:.4f} 1",
    ]
    return metrics, loop, lines


def traced_run(args, answers, pool: Path) -> tuple[dict, Loop, list[str]]:
    import tracing

    _, cli, workload, results = set_up(args.workload, args.seed, pool)
    check_setup(workload, results, answers, str(pool))
    half = max(1, pass_count(args.workload, args.seconds) // 2)
    untraced = Loop(answers, str(pool))
    untraced.run_passes(cli.cli_dispatch, workload, half, args.seconds / 2)

    tracer = tracing.Tracer(workload, str(pool))
    tracer.install()
    try:
        setup_loop = Loop(answers, str(pool))
        for cmd in workload.setup:
            setup_loop.run(cli.cli_dispatch, cmd, tracer)
        tracer.start_passes()
        loop = Loop(answers, str(pool))
        loop.run_passes(cli.cli_dispatch, workload, half, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(loop.passes)
    overhead = loop.cmds_per_s() / untraced.cmds_per_s()
    metrics["trace.cmds_per_s"] = (loop.cmds_per_s(), "1/s")
    metrics["trace.untraced_cmds_per_s"] = (untraced.cmds_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (overhead, "1")
    spans_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file, {"workload": args.workload, "seed": args.seed})
    lines = [f"{name}={value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(
        f"tracing overhead: traced {loop.cmds_per_s():.3f} 1/s against untraced "
        f"{untraced.cmds_per_s():.3f} 1/s (ratio {overhead:.3f})"
    )
    lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
    return metrics, loop, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctxkit" / "cli.py").is_file():
        print(f"error: no ctxkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    answers = json.loads(ANSWERS.read_text())["answers"]
    pool = WORK / f"pool-{args.workload}-{os.getpid()}"
    try:
        measure = traced_run if args.trace else untraced_run
        metrics, loop, lines = measure(args, answers, pool)
    finally:
        shutil.rmtree(pool, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} clients=1 threads=1")
    print(f"env commit={git_commit()} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    for line in lines + failure_lines(loop):
        print(line)
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": len(loop.samples),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
