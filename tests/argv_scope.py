"""The argv table too slow for tier-1: every pair of arguments of every command.

Run from anywhere with `python tests/argv_scope.py --wide`. It widens the
table of `tests/test_cli.py` (`ARGV_LEAVES` x `ARGV_VALUES`, with the
integer class extended by a 4,300-digit integer, the most `int()` reads) to
each leaf's argv with every pair of its arguments set to each value of their
classes or left out, and adds each leaf's valid argv followed by each group
of extra words of `EXTRA_WORDS`. It runs the table through `cli_dispatch`
in this process:

- with `CTXKIT_GUARD` unset; set to 4,301 digits, which no guard reads; and
  set to -(10**4300 - 1), the least guard `int()` reads, which every guard
  refuses;
- with `CTXKIT_GUARD=10**4299`, the largest guard tier-1 sets, on the `gen`
  commands with the integer class cut to -1, 0 and the 4,300-digit integer.
  That guard admits every smaller size, and a run then takes as long as its
  size: `--count 2**63` would draw for hours.

Before it runs anything it limits its own address space (`RLIMIT_AS`), so an
input that allocates without bound ends in MemoryError, not in the machine's
memory; it starts no other process. It prints the count of each exit code
and the runtime, then each vector with an internal error, an exit outside
{0, 1, 2}, a run over 5 s, a refusal that is not exactly one `error:` line,
an `error:` line over 250 bytes as stderr writes it (not counting the
temporary directory's path), a line after the `error:` line other than
`elapsed_ms=`, or a mention of the interpreter's digit limit, and exits 1 if
it lists any. Tier-1 runs it in one child process
(`tests/test_cli.py::test_the_wide_argv_table_lists_nothing`), which runs
the `ctxkit` on its PYTHONPATH, else the one under `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import signal
import sys
import tempfile
import time
from collections import Counter
from itertools import combinations, product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests")]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH: a ctxkit named there runs

from ctxkit.cli import cli_dispatch
from test_cli import (ARGV_LEAVES, ARGV_VALUES, EXTRA_WORDS, HUGE, PAST_INT, argv_words,
                      leaf_argv)

ADDRESS_SPACE = 1 << 30  # bytes
SLOW = 5.0  # seconds; a vector still running at twice this is stopped


def wide_table(values):
    """Each leaf's argv with every pair of its arguments (its one argument,
    for a leaf of one) set to their valid values, left out, or set to each
    value of their classes; its valid argv followed by each group of extra
    words; each argv once."""
    table = {}
    for words, spec in ARGV_LEAVES:
        options = [(valid, None, *values[kind]) for _, kind, valid in spec]
        for pair in combinations(range(len(spec)), min(2, len(spec))):
            for chosen in product(*(options[i] for i in pair)):
                table[tuple(leaf_argv(words, spec, dict(zip(pair, chosen))))] = None
        for extra in EXTRA_WORDS.values():
            table[(*leaf_argv(words, spec, {}), *extra)] = None
    return list(table)


class Overrun(BaseException):
    """A vector ran past twice the time bound; not an Exception, so that
    cli_dispatch does not report it as an internal error."""


def _overrun(*_):
    raise Overrun


def run(argv, guard, words, tmp):
    """(exit code or "stopped", seconds, each problem of the run)."""
    if guard is None:
        os.environ.pop("CTXKIT_GUARD", None)
    else:
        os.environ["CTXKIT_GUARD"] = guard
    err = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, 2 * SLOW)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_dispatch([words.get(word, word) for word in argv])
    except Overrun:
        code = "stopped"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - started
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if "error:" in line]
    after = lines[lines.index(errors[-1]) + 1:] if errors else []
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit {code}")
    if elapsed > SLOW:
        problems.append(f"{elapsed:.1f} s")
    if "internal error" in err.getvalue():
        problems.append("internal error")
    if code == 2 and len(errors) != 1:
        problems.append(f"{len(errors)} error lines")
    if any(not line.startswith("elapsed_ms=") for line in after):
        problems.append("a line after the error line")
    sizes = [len(line.replace(tmp, "").encode(errors="backslashreplace")) for line in errors]
    if any(size > 250 for size in sizes):
        problems.append(f"error line of {max(sizes)} bytes")
    if "Exceeds the limit" in err.getvalue() or "set_int_max_str_digits" in err.getvalue():
        problems.append("the interpreter's digit limit")
    return code, elapsed, problems


def shown(argv):
    """argv in ASCII, each word over 24 characters cut, and the whole over 200."""
    words = " ".join(word if len(word) <= 24 else f"<{len(word)} chars: {word[:8]}...>"
                     for word in argv)
    return ascii(words[:200])[1:-1] + ("..." if len(words) > 200 else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wide", action="store_true", required=True,
                        help="run the argv table too slow for tier-1")
    parser.parse_args(argv)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = ADDRESS_SPACE if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    signal.signal(signal.SIGALRM, _overrun)
    wide = wide_table({**ARGV_VALUES, "int": (*ARGV_VALUES["int"], HUGE)})
    gen = [argv for argv in wide_table({**ARGV_VALUES, "int": ("-1", "0", HUGE)})
           if argv[0] == "gen"]
    # (name, CTXKIT_GUARD, table)
    runs = [("unset", None, wide), ("4,301 digits", PAST_INT, wide),
            ("-(10**4300 - 1)", "-" + "9" * 4300, wide), ("10**4299", str(10 ** 4299), gen)]
    started, listed = time.perf_counter(), []
    with tempfile.TemporaryDirectory(prefix="ctxkit-argv-") as tmp:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            words = argv_words(Path(tmp))
        for name, guard, table in runs:
            codes = Counter()
            for vector in table:
                code, elapsed, problems = run(vector, guard, words, tmp)
                codes[code] += 1
                if problems:
                    listed.append(f"CTXKIT_GUARD {name}: {shown(vector)}: {'; '.join(problems)}")
            counts = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items(), key=str))
            print(f"CTXKIT_GUARD {name}: {len(table)} vectors: {counts}", flush=True)
    total, seconds = sum(len(table) for _, _, table in runs), time.perf_counter() - started
    print(f"{total} vectors in {seconds:.1f} s")
    for line in listed:
        print(line)
    print(f"{len(listed)} vectors listed")
    return 1 if listed else 0


if __name__ == "__main__":
    sys.exit(main())
