"""CLI surface: exit codes, report shape, and byte-stable output."""

import contextlib
import hashlib
import importlib
import io
import itertools
import os
import pathlib
import re
import resource
import subprocess
import sys
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ctxkit import modal_context, modal_logic
from ctxkit.cli import _build_parser, _parse_argv, cli_dispatch
from ctxkit.formats import ModelFileError, parse_context, parse_kripke, parse_modal_context

TWO_WORLD = "world w1\nworld w2\nedge w1 w2\nval w2 p\n"


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def machine_fields(out):
    head = out.split("\n\n", 1)[0]
    return dict(line.split("=", 1) for line in head.splitlines() if "=" in line)


@pytest.fixture
def alice_path(tmp_path, capsys):
    path = tmp_path / "alice.ctx"
    code = cli_dispatch(["gen", "alice-bob", "--horizon", "3", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


@pytest.fixture
def kripke_path(tmp_path):
    path = tmp_path / "two.kr"
    path.write_text(TWO_WORLD)
    return str(path)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_gen_alice_bob_to_stdout(capsys):
    code, out = run_cli(capsys, "gen", "alice-bob", "--horizon", "3")
    assert code == 0
    assert len(parse_context(out).context) == 36


def test_gen_to_file_reports_digest(alice_path, capsys):
    code, out = run_cli(capsys, "gen", "alice-bob", "--horizon", "3", "-o", alice_path)
    assert code == 0
    fields = machine_fields(out)
    assert fields["instances"] == "36"
    assert len(fields["output_sha256"]) == 12


def test_gen_minigame_variants(capsys):
    code, base_out = run_cli(capsys, "gen", "minigame")
    assert code == 0
    code, turn_out = run_cli(capsys, "gen", "minigame", "--variant", "turn")
    assert code == 0
    assert base_out != turn_out
    assert len(parse_context(base_out).context) == 27


def test_gen_random_artifacts_parse(capsys):
    code, out = run_cli(capsys, "gen", "random-ctx", "--seed", "5", "--count", "8")
    assert code == 0
    assert parse_context(out).context.signature.states
    code, out = run_cli(capsys, "gen", "random-kripke", "--seed", "5")
    assert code == 0
    assert parse_kripke(out).worlds


# ---------------------------------------------------------------------------
# context analysis
# ---------------------------------------------------------------------------

def test_check_determinable_windowed_yes(alice_path, capsys):
    code, out = run_cli(
        capsys, "ctx", "check-determinable", alice_path, "--mode", "windowed"
    )
    assert code == 0
    assert machine_fields(out)["verdict"] == "yes"


def test_check_determinable_literal_no_with_witness(alice_path, capsys):
    code, out = run_cli(capsys, "ctx", "check-determinable", alice_path)
    assert code == 1
    fields = machine_fields(out)
    assert fields["verdict"] == "no" and fields["mode"] == "literal"
    assert "witness:" in out


def test_iterator_yes_prints_map(alice_path, capsys):
    code, out = run_cli(capsys, "ctx", "iterator", alice_path)
    assert code == 0
    assert "iter Alice=" in out


def test_iterator_conflict_reported(tmp_path, capsys):
    path = tmp_path / "c.ctx"
    path.write_text(
        "states: a b c x y\nentities: e\ntime: 0 1 2\n"
        "instance w1:\n  e@0=a e@1=b e@2=x\n"
        "instance w2:\n  e@0=c e@1=b e@2=y\n"
    )
    code, out = run_cli(capsys, "ctx", "iterator", str(path))
    assert code == 1
    assert machine_fields(out)["conflict_snapshot"] == "e=b"
    assert "demands" in out


def test_consistency_outputs_subcontext(alice_path, capsys):
    code, out = run_cli(
        capsys, "ctx", "consistency", alice_path, "--instance", "i0", "--time", "1"
    )
    assert code == 0
    payload = out.split("\n\n", 1)[1]
    sub = parse_context(payload).context
    assert 1 <= len(sub) <= 36


def test_deterministic_verdicts(alice_path, tmp_path, capsys):
    code, out = run_cli(capsys, "ctx", "deterministic", alice_path)
    assert code == 1
    single = tmp_path / "single.ctx"
    single.write_text(
        "states: a b\nentities: e\ntime: 0 1\ninstance only:\n  e@0=a e@1=b\n"
    )
    code, out = run_cli(capsys, "ctx", "deterministic", str(single))
    assert code == 0


def test_windowed_witness_lists_several_differing_traces(tmp_path, capsys):
    # this context's first failing pair has bundles that differ by more than
    # one trace, so the witness has to sort traces to print them
    path = str(tmp_path / "r7.ctx")
    code, _ = run_cli(
        capsys, "gen", "random-ctx", "--seed", "7", "--states", "3",
        "--entities", "2", "--times", "4", "--count", "200", "-o", path,
    )
    assert code == 0
    argv = ("ctx", "check-determinable", path, "--mode", "windowed")
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert machine_fields(out)["verdict"] == "no"
    assert "witness:" in out
    assert out.count("only from occurrence") >= 2
    assert run_cli(capsys, *argv) == (code, out)


LABELS_CTX = """\
# names neither canonical nor in canonical order; `again` repeats `alpha`
states: a b
entities: x y
time: 0 1 2
instance zed:
  x@0=b x@1=a x@2=a
  y@0=a y@1=a y@2=b
instance alpha:
  x@0=a x@1=b x@2=b
  y@0=a y@1=b y@2=a
instance omega:
  x@0=b x@1=b x@2=b
  y@0=a y@1=a y@2=a
instance again:
  y@0=a y@1=b y@2=a
  x@0=a x@1=b x@2=b
instance last:
  x@0=b x@1=a x@2=a
  y@0=b y@1=b y@2=a
"""
LABELS_HEAD = "input=labels.ctx\ninput_sha256=c7313d133b47\n"
LABELS_WITNESS = """\
verdict=no
witness_time=0
witness_other_time=1
witness_snapshot=x=a;y=a

witness:
  snapshot: x=a;y=a
  occurrence 1: instance alpha at t=0
  occurrence 2: instance zed at t=1
"""
LABELS_STDOUT = {
    ("check-determinable",): "command=ctx check-determinable labels.ctx\n" + LABELS_HEAD
    + "mode=literal\n" + LABELS_WITNESS
    + "  suffixes have lengths 3 and 2: no monotone bijection exists\n",
    ("check-determinable", "--mode", "windowed"):
    "command=ctx check-determinable labels.ctx --mode windowed\n" + LABELS_HEAD
    + "mode=windowed\n" + LABELS_WITNESS
    + "  future bundles differ on the first 2 time point(s):\n"
    "  only from occurrence 1: x=a;y=a -> x=b;y=b\n"
    "  only from occurrence 2: x=a;y=a -> x=a;y=b\n",
    ("iterator",): "command=ctx iterator labels.ctx\n" + LABELS_HEAD + """\
verdict=no
conflict_snapshot=x=a;y=a

iterator conflict:
  snapshot: x=a;y=a
  instance alpha at t=0 demands {x=b;y=b}
  instance zed at t=1 demands {x=a;y=b}
""",
    ("consistency", "--instance", "zed", "--time", "0"):
    "command=ctx consistency labels.ctx --instance zed --time 0\n" + LABELS_HEAD + """\
instance=zed
time=0
instances=2

states: a b
entities: x y
time: 0 1 2
instance i0:
  x@0=b x@1=a x@2=a
  y@0=a y@1=a y@2=b
instance i1:
  x@0=b x@1=b x@2=b
  y@0=a y@1=a y@2=a
""",
}


@pytest.mark.parametrize("argv", list(LABELS_STDOUT))
def test_reports_name_instances_as_the_file_does(argv, tmp_path, monkeypatch, capsys):
    # witnesses and conflicts use the file's own names, wherever canonical
    # order puts their instances; the duplicate `again` collapses into `alpha`
    (tmp_path / "labels.ctx").write_text(LABELS_CTX)
    monkeypatch.chdir(tmp_path)
    verb, *options = argv
    with pytest.warns(UserWarning, match="duplicate instance 'again' collapsed"):
        code, out = run_cli(capsys, "ctx", verb, "labels.ctx", *options)
    assert (code, out) == (0 if verb == "consistency" else 1, LABELS_STDOUT[argv])


def consistency_reports(capsys, path, *names):
    """(exit code, stdout without the lines that echo the name) per name."""
    reports = []
    for name in names:
        with pytest.warns(UserWarning, match="duplicate instance"):
            code, out = run_cli(capsys, "ctx", "consistency", path, "--instance", name,
                                "--time", "0")
        kept = [line for line in out.splitlines(keepends=True)
                if not line.startswith(("command=", "instance="))]
        reports.append((code, "".join(kept)))
    return reports


def test_a_collapsed_duplicate_name_reads_as_the_instance_it_repeats(
        tmp_path, monkeypatch, capsys):
    (tmp_path / "labels.ctx").write_text(LABELS_CTX)
    monkeypatch.chdir(tmp_path)
    again, alpha = consistency_reports(capsys, "labels.ctx", "again", "alpha")
    assert again == alpha
    assert again[0] == 0


DUPLICATE_Y = "states: a b\nentities: e\ntime: 0 1\ninstance x:\n  e@0=a e@1=b\n" \
    "instance y:\n  e@0=a e@1=b\n"


def test_consistency_reads_a_duplicate_by_its_own_name(tmp_path, capsys):
    path = tmp_path / "dup.ctx"
    path.write_text(DUPLICATE_Y)
    y, x = consistency_reports(capsys, str(path), "y", "x")
    assert y == x
    assert y[0] == 0 and "instances=1\n" in y[1]


def test_the_entry_point_prints_a_warning_as_one_line(tmp_path, capsys, ctxkit_src):
    path = tmp_path / "dup.ctx"
    path.write_text(DUPLICATE_Y)
    argv = ["ctx", "consistency", str(path), "--instance", "y", "--time", "0"]
    proc = subprocess.run([sys.executable, "-m", "ctxkit.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": ctxkit_src})
    warning, elapsed = proc.stderr.splitlines()
    assert warning == f"warning: {path}: duplicate instance 'y' collapsed (set semantics)"
    assert elapsed.startswith("elapsed_ms=")
    with pytest.warns(UserWarning, match="duplicate instance 'y' collapsed"):
        assert run_cli(capsys, *argv) == (proc.returncode, proc.stdout)


def test_a_name_reused_after_a_collapsed_duplicate_is_an_error(tmp_path, capsys):
    path = tmp_path / "dup.ctx"
    path.write_text(DUPLICATE_Y + "instance y:\n  e@0=b e@1=a\n")
    with pytest.warns(UserWarning, match="duplicate instance 'y' collapsed"):
        code = cli_dispatch(["ctx", "consistency", str(path), "--instance", "y",
                             "--time", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"error: {path}:8: instance name 'y' reused" in captured.err


def test_an_iterator_with_an_empty_domain_prints_only_its_fields(tmp_path, monkeypatch,
                                                                  capsys):
    data = b"states: a\nentities: e\ntime: 0\n"
    (tmp_path / "empty.ctx").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "ctx", "iterator", "empty.ctx") == (0, (
        "command=ctx iterator empty.ctx\ninput=empty.ctx\n"
        f"input_sha256={hashlib.sha256(data).hexdigest()[:12]}\nverdict=yes\ndomain_size=0\n"
    ))


# ---------------------------------------------------------------------------
# modal commands
# ---------------------------------------------------------------------------

def test_modal_eval_true_and_false(kripke_path, capsys):
    code, out = run_cli(
        capsys, "modal", "eval", kripke_path, "--world", "w1", "--formula", "<>p"
    )
    assert code == 0
    assert out.rstrip().endswith("true")
    code, out = run_cli(
        capsys, "modal", "eval", kripke_path, "--world", "w1", "--formula", "p"
    )
    assert code == 1
    assert out.rstrip().endswith("false")
    code, _ = run_cli(
        capsys, "modal", "eval", kripke_path, "--world", "w1",
        "--formula", "[]p & ~p",
    )
    assert code == 0


def test_modal_to_context_and_check(kripke_path, tmp_path, capsys):
    out_path = tmp_path / "two.mctx"
    code, out = run_cli(
        capsys, "modal", "to-context", kripke_path,
        "--atoms", "p", "--depth", "1", "-o", str(out_path),
    )
    assert code == 0
    assert machine_fields(out)["worlds"] == "2"

    code, out = run_cli(capsys, "modal", "check-context", str(out_path))
    assert code == 0
    assert machine_fields(out)["verdict"] == "yes"


def test_modal_to_context_stdout_parses(kripke_path, capsys):
    code, out = run_cli(
        capsys, "modal", "to-context", kripke_path, "--atoms", "p", "--depth", "1"
    )
    assert code == 0
    assert len(parse_modal_context(out).world_names) == 2


def test_modal_check_context_catches_violation(tmp_path, capsys):
    path = tmp_path / "bad.mctx"
    path.write_text(
        "universe atoms=p depth=1 cap=1\n"
        "cworld n0\n  has []p\n"
        "cworld n1\n"
        "cedge n0 n1\n"
    )
    code, out = run_cli(capsys, "modal", "check-context", str(path))
    assert code == 1
    assert "violations:" in out


VIOLATING_MCTX = """\
universe atoms=p depth=1 cap=1
cworld n0
  has []p
  has p
cworld n1
  has <>p
cworld n2
cworld n3
  has p
cworld n4
  has ~p
cworld n5
  has p & p
cworld n6
  has p
  has ~p
cedge n0 n1
cedge n1 n2
cedge n2 n3
"""

VIOLATING_REPORT = """\
command=modal check-context {path}
input={path}
input_sha256=4295596e2297
worlds=7
verdict=no
violations=12

violations:
  n0 at (0,0): []p present but the successor condition fails
  n1 at (0,0): <>p present but the successor condition fails
  n2 at (0,0): []p absent although the successor condition holds
  n2 at (0,0): <>p absent although the successor condition holds
  n3 at (0,0): []p absent although the successor condition holds
  n3 at (0,0): []~p absent although the successor condition holds
  n4 at (0,0): []p absent although the successor condition holds
  n4 at (0,0): []~p absent although the successor condition holds
  n5 at (0,0): []p absent although the successor condition holds
  n5 at (0,0): []~p absent although the successor condition holds
  ... and 2 more
"""


def test_modal_check_context_prints_the_pinned_violation_report(tmp_path, capsys):
    # forward and backward sides, boxes and diamonds, and the tail past ten
    path = tmp_path / "bad.mctx"
    path.write_text(VIOLATING_MCTX)
    code, out = run_cli(capsys, "modal", "check-context", str(path))
    assert code == 1
    assert out == VIOLATING_REPORT.format(path=path)


@pytest.mark.parametrize("text, argv", [
    ("states: a b\nentities: x\ntime: 0 1\ninstance u:\n  x@0=a x@1=b\n",
     ["ctx", "iterator", "{path}"]),
    (TWO_WORLD, ["modal", "verify-theorem", "{path}", "--atoms", "p", "--depth", "1"]),
    (VIOLATING_MCTX, ["modal", "check-context", "{path}"]),
], ids=("ctx", "kr", "mctx"))
def test_a_byte_order_mark_changes_only_the_input_digest(text, argv, tmp_path, capsys):
    path = tmp_path / "input"
    argv = [arg.format(path=path) for arg in argv]
    results = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + text.encode())
        code, out = run_cli(capsys, *argv)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
        assert f"input_sha256={digest}\n" in out
        results.append((code, out.replace(digest, "")))
    assert results[0] == results[1]
    assert results[0][0] in (0, 1)


@pytest.mark.parametrize("argv, word", [
    (["modal", "to-context", "{kr}", "--atoms", "true,p", "--depth", "1"], "true"),
    (["modal", "verify-theorem", "{kr}", "--atoms", "p,false", "--depth", "0"], "false"),
    (["gen", "random-kripke", "--atoms", "true", "--seed", "1", "--worlds", "2"], "true"),
])
def test_constant_words_are_refused_by_the_atoms_option(argv, word, kripke_path, capsys):
    # an atom named true would print as the constant: `has true` twice
    code = cli_dispatch([arg.format(kr=kripke_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: invalid atom name '{word}'\n" in captured.err


@pytest.mark.parametrize("word", ["true", "false"])
def test_constant_words_are_refused_in_a_mctx_header(word, tmp_path, capsys):
    path = tmp_path / "c.mctx"
    path.write_text(f"universe atoms=p,{word} depth=0 cap=1\ncworld c0\n")
    assert cli_dispatch(["modal", "check-context", str(path)]) == 2
    assert f"error: {path}:1: invalid atom name '{word}'\n" in capsys.readouterr().err


def test_an_unknown_key_in_a_mctx_header_is_refused(tmp_path, capsys):
    path = tmp_path / "c.mctx"
    path.write_text("universe atoms=p,q depth=1 cap=1 colour=red\ncworld c0\n")
    assert cli_dispatch(["modal", "check-context", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: {path}:1: expected `universe atoms=<list> depth=<d> cap=<k>`\n"
            in captured.err)


@pytest.mark.parametrize("word", ["true", "false", "Paris"])
def test_constant_words_are_refused_in_a_kr_val_line(word, tmp_path, capsys):
    # a bad atom is reported at its first val line, like every other .kr error
    path = tmp_path / "m.kr"
    path.write_text(f"world w0\nval w0 {word}\n")
    assert cli_dispatch(["modal", "eval", str(path), "--world", "w0", "--formula", "p"]) == 2
    assert f"error: {path}:2: invalid atom name '{word}'\n" in capsys.readouterr().err


def test_gen_random_kripke_refuses_a_duplicate_atom(tmp_path, capsys):
    # the second draw of p's valuation would overwrite the first
    path = tmp_path / "F"
    code = cli_dispatch(["gen", "random-kripke", "--seed", "1", "--atoms", "p,p",
                         "-o", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        "error: duplicate atom 'p'"
    ]
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["ctx", "deterministic", "{f}"],
    ["modal", "eval", "{f}", "--world", "w0", "--formula", "p"],
    ["modal", "check-context", "{f}"],
], ids=["ctx", "eval", "check-context"])
def test_a_file_that_is_not_utf8_is_a_file_error_naming_the_path(argv, tmp_path, capsys):
    path = tmp_path / "F"
    path.write_bytes(b"\xffworld w0\n")
    code = cli_dispatch([arg.format(f=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if line != "" and
              not line.startswith("elapsed_ms=")]
    assert errors == [f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                      "invalid start byte"]


def test_modal_verify_theorem(kripke_path, capsys):
    code, out = run_cli(
        capsys, "modal", "verify-theorem", kripke_path, "--atoms", "p,q", "--depth", "2"
    )
    assert code == 0
    fields = machine_fields(out)
    assert fields["modal_context"] == "yes"
    assert fields["representation"] == "yes"
    assert fields["prover_agreement"] == "yes"


def test_verify_theorem_without_a_carrier_says_no(kripke_path, monkeypatch, capsys):
    # a context that lost its last class leaves a Kripke world with no carrier
    compile_context = modal_context.to_modal_context

    def drop_last_class(model, universe):
        mc = compile_context(model, universe)
        keep = (1 << len(mc.world_names) - 1) - 1
        return modal_context.ModalContext.from_masks(
            mc.world_names[:-1], [c & keep for c in mc.columns],
            [succ & keep for succ in mc.successors[:-1]], mc.universe)

    monkeypatch.setattr(modal_context, "to_modal_context", drop_last_class)
    code = cli_dispatch(["modal", "verify-theorem", kripke_path, "--atoms", "p", "--depth", "1"])
    captured = capsys.readouterr()
    fields = machine_fields(captured.out)
    assert code == 1
    assert (fields["context_worlds"], fields["representation"], fields["prover_agreement"],
            fields["verdict"]) == ("1", "no", "no", "no")
    assert "error:" not in captured.err


def test_verify_theorem_says_no_to_a_context_that_breaks_the_conditions(
        kripke_path, monkeypatch, capsys):
    # the compiled context loses its edge: each world still carries its
    # theory, but c0 stores <>p and has no successor
    compile_context = modal_context.to_modal_context

    def drop_edges(model, universe):
        mc = compile_context(model, universe)
        return modal_context.ModalContext.from_masks(
            mc.world_names, mc.columns, [0] * len(mc.world_names), mc.universe)

    monkeypatch.setattr(modal_context, "to_modal_context", drop_edges)
    code = cli_dispatch(["modal", "verify-theorem", kripke_path, "--atoms", "p", "--depth", "1"])
    fields = machine_fields(capsys.readouterr().out)
    assert code == 1
    assert (fields["modal_context"], fields["representation"], fields["prover_agreement"],
            fields["verdict"]) == ("no", "yes", "yes", "no")


# ---------------------------------------------------------------------------
# errors and reproducibility
# ---------------------------------------------------------------------------

def test_each_file_is_opened_once_and_hashed_from_the_same_bytes(
        alice_path, kripke_path, tmp_path, monkeypatch, capsys):
    opened = []
    real_open, real_os_open = pathlib.Path.open, os.open

    def counting_open(self, mode="r", *args, **kwargs):
        opened.append((str(self), mode))
        return real_open(self, mode, *args, **kwargs)

    def counting_os_open(path, flags, *args, **kwargs):  # the -o writer's open
        opened.append((str(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", counting_open)
    monkeypatch.setattr(os, "open", counting_os_open)
    in_place = os.O_WRONLY | os.O_CREAT  # never O_TRUNC
    mctx, ctx = str(tmp_path / "m.mctx"), str(tmp_path / "g.ctx")
    for argv, opens in [
        (["modal", "to-context", kripke_path, "--atoms", "p", "--depth", "1", "-o", mctx],
         [(kripke_path, "rb"), (mctx, in_place)]),
        (["modal", "check-context", mctx], [(mctx, "rb")]),
        (["modal", "eval", kripke_path, "--world", "w2", "--formula", "p"], [(kripke_path, "rb")]),
        (["ctx", "deterministic", alice_path], [(alice_path, "rb")]),
        (["gen", "minigame", "-o", ctx], [(ctx, in_place)]),
    ]:
        opened.clear()
        code, out = run_cli(capsys, *argv)
        assert code in (0, 1) and opened == opens, argv
        fields = machine_fields(out)
        for key, path in (("input_sha256", argv[2]), ("output_sha256", argv[-1])):
            if key in fields:
                digest = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()[:12]
                assert fields[key] == digest, (argv, key)


def test_output_is_overwritten_in_place_with_exactly_the_new_bytes(tmp_path, capsys):
    path = tmp_path / "out.ctx"
    path.write_bytes(b"x" * 100_000)
    path.chmod(0o640)
    before = path.stat()
    # far shorter than the old bytes, then longer than the last write
    for horizon in ("2", "4", "3"):
        code, stdout_text = run_cli(capsys, "gen", "alice-bob", "--horizon", horizon)
        assert code == 0
        code, out = run_cli(capsys, "gen", "alice-bob", "--horizon", horizon, "-o", str(path))
        assert code == 0
        assert path.read_bytes() == stdout_text.encode()
        assert machine_fields(out)["output_sha256"] == hashlib.sha256(
            stdout_text.encode()).hexdigest()[:12]
        after = path.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_nlink)


def test_a_new_output_file_gets_the_default_mode_under_the_umask(tmp_path, capsys):
    path = tmp_path / "new.ctx"
    old = os.umask(0o027)
    try:
        assert cli_dispatch(["gen", "minigame", "-o", str(path)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert path.stat().st_mode & 0o777 == 0o666 & ~0o027


def test_output_to_a_device_or_a_directory(tmp_path, capsys):
    assert cli_dispatch(["gen", "minigame", "-o", os.devnull]) == 0
    capsys.readouterr()
    assert cli_dispatch(["gen", "minigame", "-o", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if not line.startswith("elapsed_ms=")]
    assert len(errors) == 1 and errors[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_output_to_dev_stdout_through_a_pipe(capsys, ctxkit_src):
    code, expected = run_cli(capsys, "gen", "minigame")
    proc = subprocess.run(
        [sys.executable, "-m", "ctxkit.cli", "gen", "minigame", "-o", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(expected)
    assert "output=/dev/stdout" in proc.stdout


def test_usage_and_io_errors_exit_2(capsys, tmp_path):
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["ctx"]) == 2
    assert cli_dispatch(["ctx", "frobnicate", "x"]) == 2
    assert cli_dispatch(["ctx", "deterministic", str(tmp_path / "missing.ctx")]) == 2
    bad = tmp_path / "bad.ctx"
    bad.write_text("states a\n")
    assert cli_dispatch(["ctx", "deterministic", str(bad)]) == 2
    capsys.readouterr()


def test_unknown_instance_exits_2(alice_path, capsys):
    code = cli_dispatch(
        ["ctx", "consistency", alice_path, "--instance", "zz", "--time", "0"]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("depth", [3_000, 9_000, 9_001])
@pytest.mark.parametrize("world", ["w1", "w2"])
def test_deeply_nested_formulas_answer(kripke_path, capsys, depth, world):
    # p holds at w2 only, so ~...~p holds where p does iff the ~ count is even
    truth = (world == "w2") == (depth % 2 == 0)
    code = cli_dispatch(
        ["modal", "eval", kripke_path, "--world", world, "--formula", "~" * depth + "p"]
    )
    assert code == (0 if truth else 1)
    assert machine_fields(capsys.readouterr().out)["verdict"] == str(truth).lower()


def test_formula_over_the_guard_exits_2_and_builds_nothing(kripke_path, monkeypatch, capsys):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    nodes = dict(modal_logic._NODES)
    code = cli_dispatch(
        ["modal", "eval", kripke_path, "--world", "w1", "--formula", "[]" * 10_000 + "p_over"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        "error: formula needs a guard of at least 10001; "
        "current guard is 10000; set CTXKIT_GUARD to raise it"
    )
    assert modal_logic._NODES == nodes


def test_deep_has_line_is_a_model_file_error_naming_its_line(monkeypatch):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    head = "universe atoms=p depth=1 cap=1\ncworld c0\n  has p\n"
    with pytest.raises(ModelFileError, match="^<string>:4: formula '~{16}\u2026' is outside"):
        parse_modal_context(head + "  has " + "~" * 3_000 + "p\n")
    with pytest.raises(ModelFileError, match=r"^<string>:4: formula needs a guard .*CTXKIT_GUARD"):
        parse_modal_context(head + "  has " + "~" * 10_000 + "p\n")


def test_unexpected_exception_exits_2_with_its_type(alice_path, monkeypatch, capsys):
    def broken(ctx, mode):
        raise KeyError("lost")

    monkeypatch.setattr("ctxkit.cli.is_determinable", broken)
    code = cli_dispatch(["ctx", "check-determinable", alice_path, "--mode", "literal"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "error: internal error: KeyError: 'lost'"


def test_guard_env_var_is_honored(monkeypatch, capsys):
    # the parser already exists; the guard is read when the command runs
    assert cli_dispatch(["gen", "alice-bob", "--horizon", "3"]) == 0
    monkeypatch.setenv("CTXKIT_GUARD", "10")
    assert cli_dispatch(["gen", "alice-bob", "--horizon", "3"]) == 2
    assert "current guard is 10" in capsys.readouterr().err
    monkeypatch.delenv("CTXKIT_GUARD")
    assert cli_dispatch(["gen", "alice-bob", "--horizon", "3"]) == 0
    capsys.readouterr()


def test_guard_env_var_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("CTXKIT_GUARD", "abc")
    code = cli_dispatch(["gen", "alice-bob"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        "error: CTXKIT_GUARD must be a decimal integer of at most 4300 digits, got 'abc'")


def _limit_address_space():  # runs in the child alone, between fork and exec
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


EXTREME_GEN_ARGVS = [
    (command, "--horizon", str(horizon)) for command in ("alice-bob", "alice-bob-odd")
    for horizon in (2_000, 7_200, 10**7, 10**20)
] + [
    ("random-ctx", "--seed", "1", "--count", count, size, str(n))
    for size in ("--states", "--entities", "--times") for n in (10**7, 10**20)
    for count in ("0", "1")
]


@pytest.mark.parametrize("argv", EXTREME_GEN_ARGVS, ids="_".join)
def test_extreme_generator_arguments_are_refused_before_anything_is_built(argv, ctxkit_src):
    # each in its own process under a 1 GB address space: a guard that came
    # after the signature or the rows would run out of it or of time
    env = {key: value for key, value in os.environ.items() if key != "CTXKIT_GUARD"}
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ctxkit.cli", "gen", *argv], capture_output=True, text=True,
        env={**env, "PYTHONPATH": ctxkit_src}, timeout=10, preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - started
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(errors) == 1 and "CTXKIT_GUARD" in errors[0] and len(errors[0]) < 250
    assert "internal error" not in proc.stderr
    assert elapsed < 2.0


@pytest.mark.parametrize("command, size, over, message", [
    (("random-kripke", "--seed", "1"), "--worlds", ("4", "5"),
     "random Kripke model needs a guard of at least 25"),
    (("random-ctx", "--seed", "1", "--entities", "2", "--times", "2"), "--count", ("4", "5"),
     "random context draws needs a guard of at least 20"),
], ids=["random-kripke", "random-ctx"])
def test_random_generators_check_their_draws_before_drawing(
    command, size, over, message, tmp_path, monkeypatch, capsys
):
    # worlds x worlds edge draws, or count x cells state draws, against the guard
    monkeypatch.setenv("CTXKIT_GUARD", "16")
    fits, too_many = over
    assert cli_dispatch(["gen", *command, size, fits]) == 0
    capsys.readouterr()
    path = tmp_path / "out"
    code = cli_dispatch(["gen", *command, size, too_many, "-o", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        f"error: {message}; current guard is 16; set CTXKIT_GUARD to raise it"
    )
    assert not path.exists()


HUGE = "5" + "0" * 4299  # the most digits int() reads by default
WIDE = "7" * 3000  # a product of two of these has more
PAST_INT = "1" + "0" * 4300  # one digit more than int() reads
LONG = "x" * 5000  # a token every refusal quotes or cuts short
# a fixed noun, and each figure in decimal below 2^64, else as 2^k
GUARD_REFUSAL = (r"error: [A-Za-z ]+ needs a guard of at least (\d{1,20}|2\^\d+); "
                 r"current guard is (\d{1,20}|2\^\d+); set CTXKIT_GUARD to raise it")
PAST_INT_QUOTED = re.escape(repr(PAST_INT[:16] + "\u2026"))


@pytest.mark.parametrize("guard, argv, refusal", [
    (None, ("gen", "alice-bob", "--horizon", HUGE), GUARD_REFUSAL),
    (None, ("gen", "alice-bob-odd", "--horizon", HUGE), GUARD_REFUSAL),
    (None, ("gen", "random-ctx", "--seed", "1", "--times", HUGE), GUARD_REFUSAL),
    (None, ("gen", "random-ctx", "--seed", "1", "--states", HUGE), GUARD_REFUSAL),
    (None, ("gen", "random-ctx", "--seed", "1", "--entities", WIDE, "--times", WIDE),
     GUARD_REFUSAL),
    (None, ("gen", "random-kripke", "--seed", "1", "--worlds", HUGE), GUARD_REFUSAL),
    (PAST_INT, ("gen", "alice-bob", "--horizon", "3"),
     "error: CTXKIT_GUARD must be a decimal integer of at most 4300 digits, got "
     + PAST_INT_QUOTED),
    (str(10 ** 4299), ("gen", "alice-bob", "--horizon", HUGE), GUARD_REFUSAL),
    (None, ("modal", "check-context", "<mctx>"),
     "error: <mctx>:1: universe depth must be 1 to 4300 digits 0-9, got " + PAST_INT_QUOTED),
], ids=["alice-bob", "alice-bob-odd", "random-ctx-times", "random-ctx-states",
        "random-ctx-cells", "random-kripke", "guard-past-int", "guard-of-4300-digits",
        "mctx-depth-past-int"])
def test_guard_messages_format_for_every_integer_argparse_reads(
    guard, argv, refusal, tmp_path, monkeypatch, capsys
):
    # no refusal text prints an argument, a figure of 2^64 or more prints as
    # a power, and a digit string int() does not read gets a message of its
    # own: each refusal is one line of at most 250 bytes
    mctx = tmp_path / "deep.mctx"
    mctx.write_text(f"universe atoms=p depth={PAST_INT} cap=1\ncworld c0\n")
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    if guard is not None:
        monkeypatch.setenv("CTXKIT_GUARD", guard)
    assert cli_dispatch([str(mctx) if word == "<mctx>" else word for word in argv]) == 2
    captured = capsys.readouterr()
    errors = [line.replace(str(mctx), "<mctx>") for line in captured.err.splitlines()
              if line.startswith("error:")]
    assert captured.out == "" and len(errors) == 1
    assert re.fullmatch(refusal, errors[0]) and len(errors[0].encode()) <= 250
    assert "Exceeds the limit" not in captured.err
    assert "set_int_max_str_digits" not in captured.err


def test_oversized_universe_is_refused_at_once(kripke_path, monkeypatch, capsys):
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    start = time.perf_counter()
    code = cli_dispatch(["modal", "to-context", kripke_path, "--atoms", "p,q", "--depth", "40"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        "error: formula universe needs a guard of at least 174762; "
        "current guard is 50000; set CTXKIT_GUARD to raise it"
    )
    assert elapsed < 0.1


def test_oversized_boolean_layer_is_refused_before_any_node(tmp_path, monkeypatch, capsys):
    # the depth-7 modal atoms fit the guard; their first Boolean layer does not
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    path = tmp_path / "deep.mctx"
    path.write_text("universe atoms=p,q depth=7 cap=1\ncworld c0\n")
    nodes = dict(modal_logic._NODES)
    start = time.perf_counter()
    code = cli_dispatch(["modal", "check-context", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        f"error: {path}:1: formula universe needs a guard of at least 3817719580; "
        "current guard is 50000; set CTXKIT_GUARD to raise it"
    )
    assert elapsed < 0.1
    assert modal_logic._NODES == nodes


# each command with optional arguments: the words it needs, then every
# optional argument but -o at its default
DEFAULTS_WRITTEN_OUT = [
    (("gen", "alice-bob"), ("--horizon", "3")),
    (("gen", "alice-bob-odd"), ("--horizon", "3")),
    (("gen", "minigame"), ("--variant", "base")),
    (("gen", "random-ctx", "--seed", "5"),
     ("--states", "3", "--entities", "2", "--times", "3", "--count", "10")),
    (("gen", "random-kripke", "--seed", "5"),
     ("--worlds", "4", "--atoms", "p,q", "--density", "0.3")),
    (("ctx", "check-determinable", "CTX"), ("--mode", "literal")),
    (("modal", "to-context", "KR", "--atoms", "p", "--depth", "1"), ("--cap", "1")),
    (("modal", "verify-theorem", "KR", "--atoms", "p", "--depth", "1"), ("--cap", "1")),
]


@pytest.mark.parametrize("needed, defaults", DEFAULTS_WRITTEN_OUT,
                         ids=["-".join(needed[:2]) for needed, _ in DEFAULTS_WRITTEN_OUT])
def test_every_default_is_the_one_written_out(needed, defaults, alice_path, kripke_path,
                                              capsys):
    argv = [{"CTX": alice_path, "KR": kripke_path}.get(word, word) for word in needed]
    runs = []
    for extra in ((), defaults):
        code, out = run_cli(capsys, *argv, *extra)
        runs.append((code, [line for line in out.splitlines()
                            if not line.startswith("command=")]))
    assert runs[0] == runs[1]


# each leaf command's words, then its arguments as (flag, or None for the
# positional file, value class, a valid value); a value in <> is a
# placeholder for a path, and a "ctx", "kr" or "mctx" class is a file
ARGV_LEAVES = [
    (("ctx", "check-determinable"), [(None, "ctx", "<ctx>"), ("--mode", "mode", "windowed")]),
    (("ctx", "iterator"), [(None, "ctx", "<ctx>")]),
    (("ctx", "consistency"), [(None, "ctx", "<ctx>"), ("--instance", "name", "i0"),
                              ("--time", "name", "1")]),
    (("ctx", "deterministic"), [(None, "ctx", "<ctx>")]),
    (("modal", "eval"), [(None, "kr", "<kr>"), ("--world", "name", "w1"),
                         ("--formula", "formula", "[]p")]),
    (("modal", "to-context"), [(None, "kr", "<kr>"), ("--atoms", "atoms", "p"),
                               ("--depth", "int", "1"), ("--cap", "int", "1"),
                               ("-o", "out", "<out>")]),
    (("modal", "check-context"), [(None, "mctx", "<mctx>")]),
    (("modal", "verify-theorem"), [(None, "kr", "<kr>"), ("--atoms", "atoms", "p"),
                                   ("--depth", "int", "1"), ("--cap", "int", "1")]),
    (("gen", "alice-bob"), [("--horizon", "int", "3"), ("-o", "out", "<out>")]),
    (("gen", "alice-bob-odd"), [("--horizon", "int", "3"), ("-o", "out", "<out>")]),
    (("gen", "minigame"), [("--variant", "mode", "turn"), ("-o", "out", "<out>")]),
    (("gen", "random-ctx"), [("--seed", "int", "5"), ("--states", "int", "3"),
                             ("--entities", "int", "2"), ("--times", "int", "3"),
                             ("--count", "int", "10"), ("-o", "out", "<out>")]),
    (("gen", "random-kripke"), [("--seed", "int", "5"), ("--worlds", "int", "4"),
                                ("--atoms", "atoms", "p,q"), ("--density", "density", "0.3"),
                                ("-o", "out", "<out>")]),
]
ARGV_VALUES = {
    **{kind: tuple(f"<{kind}:{case}>" for case in
                   ("missing", "directory", "binary", "empty", "foreign"))
       for kind in ("ctx", "kr", "mctx")},
    "int": ("-1", "0", str(2**63), str(10**20), PAST_INT),
    "density": ("nan", "inf", "-0.0", LONG),
    "atoms": ("", ",", "true", "p,p"),
    # unbalanced; 10,001 nodes, one past the formula guard; 9,000 nested ~
    "formula": ("(p & q", " & ".join(["p"] * 5001), "~" * 9000 + "p"),
    "name": ("", "nowhere", LONG),
    "mode": ("bogus", LONG),
    "out": ("<directory>", "<missing>/out"),
}


def leaf_argv(words, spec, changes):
    """The leaf's argv with its valid values, but for changes (position ->
    value, None leaving the argument out)."""
    argv = list(words)
    for i, (flag, _, valid) in enumerate(spec):
        value = changes.get(i, valid)
        if value is not None:
            argv += [value] if flag is None else [flag, value]
    return argv


def argv_table():
    """Each leaf's valid argv; it with one argument left out, and with one
    argument, or two integer ones, set to each awkward value of their class."""
    table = []
    for words, spec in ARGV_LEAVES:
        table.append(leaf_argv(words, spec, {}))
        for i, (_, kind, _) in enumerate(spec):
            table += [leaf_argv(words, spec, {i: value}) for value in (None, *ARGV_VALUES[kind])]
        ints = [i for i, (_, kind, _) in enumerate(spec) if kind == "int"]
        for a, b in itertools.combinations(ints, 2):
            table += [leaf_argv(words, spec, {a: x, b: y})
                      for x, y in itertools.product(ARGV_VALUES["int"], repeat=2)]
    return table


def argv_words(directory):
    """Write the files the placeholders of the argv table name into
    directory; return each placeholder's word. The .mctx file is written by
    `modal to-context`, which reports on stdout."""
    (directory / "d.ctx").write_text("states: a b\nentities: e\ntime: 0 1\n"
                                     "instance i0:\n  e@0=a e@1=b\ninstance i1:\n  e@0=b e@1=b\n")
    (directory / "d.kr").write_text(TWO_WORLD)
    assert cli_dispatch(["modal", "to-context", str(directory / "d.kr"), "--atoms", "p",
                         "--depth", "1", "-o", str(directory / "d.mctx")]) == 0
    (directory / "binary").write_bytes(bytes(range(256)))
    (directory / "empty").write_text("")
    foreign = {"ctx": "kr", "kr": "mctx", "mctx": "ctx"}
    words = {"<out>": str(directory / "out"), "<directory>": str(directory),
             "<missing>/out": str(directory / "missing" / "out")}
    for kind in foreign:
        words.update({f"<{kind}>": str(directory / f"d.{kind}"),
                      f"<{kind}:missing>": str(directory / f"missing.{kind}"),
                      f"<{kind}:directory>": str(directory),
                      f"<{kind}:binary>": str(directory / "binary"),
                      f"<{kind}:empty>": str(directory / "empty"),
                      f"<{kind}:foreign>": str(directory / f"d.{foreign[kind]}")})
    return words


def one_short_refusal(err, path):
    """Is err one `error:` line of at most 250 bytes, not counting path?"""
    errors = [line.replace(str(path), "") for line in err.splitlines() if "error:" in line]
    return len(errors) == 1 and len(errors[0].encode()) <= 250


def test_a_bounded_argv_enumeration_finds_no_internal_error(tmp_path, monkeypatch, capsys):
    # sizes the guards admit but that run slowly, such as 1,024 worlds at
    # density 1, stay out of the table; tests/argv_scope.py runs every pair
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    words = argv_words(tmp_path)
    table = argv_table()
    assert 300 <= len(table) <= 600
    capsys.readouterr()
    start = time.perf_counter()
    for argv in table:
        code = cli_dispatch([words.get(word, word) for word in argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "internal error" not in err, (argv, err)
        assert code != 2 or one_short_refusal(err, tmp_path), (argv, err[:500])
    assert time.perf_counter() - start <= 10


# words after a leaf's valid argv that argparse refuses, echoing them: a long
# word, a long option, 3,000 words, a long explicit argument to --help, a word
# holding a line break, and an argv byte that is not UTF-8, as Python decodes it
EXTRA_WORDS = {
    "long-word": (LONG,),
    "long-option": ("--" + LONG,),
    "3000-words": ("a",) * 3000,
    "long-help-argument": ("--help=" + LONG,),
    "line-break": ("a\nb",),
    "not-utf8": ("\udcff",),
}
ARGPARSE_REFUSALS = {
    "group": (LONG,),
    "ctx-command": ("ctx", LONG),
    "modal-command": ("modal", LONG),
    "gen-command": ("gen", LONG),
    **{f"leaf-{name}": ("ctx", "iterator", "F", *words) for name, words in EXTRA_WORDS.items()},
    "ambiguous-option": ("gen", "random-ctx", "--seed", "1", "--s=" + LONG),
    "top-long-help-argument": ("--help=" + LONG,),
}


@pytest.mark.parametrize("argv", ARGPARSE_REFUSALS.values(), ids=ARGPARSE_REFUSALS)
def test_a_long_group_or_command_is_one_short_refusal(argv, capsys):
    # argparse's refusal: its usage, then the error line last
    assert cli_dispatch(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_short_refusal(captured.err, "")
    assert "error:" in captured.err.splitlines()[-1]


CTX_HEAD = "states: a b\nentities: e\ntime: 0 1\n"
MCTX_HEAD = "universe atoms=p depth=0 cap=1\n"
# each name position of the three file formats holding the long token; each
# file is refused, and the token quoted to its first 16 characters
LONG_TOKEN_FILES = {
    "ctx-state-symbol": ("ctx", f"states: {LONG} {LONG}\nentities: e\ntime: 0 1\n"),
    "ctx-time-symbol": ("ctx", f"states: a b\nentities: e\ntime: 0 {LONG}@\n"),
    "ctx-line": ("ctx", f"{CTX_HEAD}{LONG}\n"),
    "ctx-instance": ("ctx", f"{CTX_HEAD}instance {LONG}:\n"),
    "ctx-instance-reused": ("ctx", f"{CTX_HEAD}instance {LONG}:\n  e@0=a e@1=b\n"
                                   f"instance {LONG}:\n"),
    "ctx-cell": ("ctx", f"{CTX_HEAD}instance i:\n  {LONG}\n"),
    "ctx-entity": ("ctx", f"{CTX_HEAD}instance i:\n  {LONG}@0=a\n"),
    "ctx-time": ("ctx", f"{CTX_HEAD}instance i:\n  e@{LONG}=a\n"),
    "ctx-state": ("ctx", f"{CTX_HEAD}instance i:\n  e@0={LONG}\n"),
    "kr-directive": ("kr", f"{LONG} w1\n"),
    "kr-world-twice": ("kr", f"world {LONG}\nworld {LONG}\n"),
    "kr-edge-world": ("kr", f"world w1\nedge w1 {LONG}\n"),
    "kr-val-world": ("kr", f"world w1\nval {LONG} p\n"),
    "kr-val-atom": ("kr", f"world w1\nval w1 {LONG.upper()}\n"),
    "mctx-atom": ("mctx", f"universe atoms={LONG.upper()} depth=0 cap=1\n"),
    "mctx-atom-twice": ("mctx", f"universe atoms={LONG},{LONG} depth=0 cap=1\n"),
    "mctx-directive": ("mctx", f"{MCTX_HEAD}{LONG}\n"),
    "mctx-cworld-twice": ("mctx", f"{MCTX_HEAD}cworld {LONG}\ncworld {LONG}\n"),
    "mctx-cedge-cworld": ("mctx", f"{MCTX_HEAD}cworld c0\ncedge c0 {LONG}\n"),
    "mctx-has-atom": ("mctx", f"{MCTX_HEAD}cworld c0\n  has {LONG}\n"),
    "mctx-has-syntax": ("mctx", f"{MCTX_HEAD}cworld c0\n  has p {LONG}\n"),
    "mctx-equal-cworlds": ("mctx", f"{MCTX_HEAD}cworld {LONG}\ncworld {LONG.upper()}\n"),
}
LOADING = {"ctx": ("ctx", "iterator"), "kr": ("modal", "eval"), "mctx": ("modal", "check-context")}


@pytest.mark.parametrize("kind, text", LONG_TOKEN_FILES.values(), ids=LONG_TOKEN_FILES)
def test_a_long_token_in_a_file_is_one_short_refusal(kind, text, tmp_path, capsys):
    path = tmp_path / f"long.{kind}"
    path.write_text(text)
    extra = ("--world", "w1", "--formula", "p") if kind == "kr" else ()
    assert cli_dispatch([*LOADING[kind], str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert one_short_refusal(captured.err, path)
    assert "\u2026" in captured.err


def test_the_wide_argv_table_lists_nothing(ctxkit_src):
    # every pair of arguments, in one child process, so that the address-space
    # limit tests/argv_scope.py sets on itself stays off this process
    env = {key: value for key, value in os.environ.items() if key != "CTXKIT_GUARD"}
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).with_name("argv_scope.py")), "--wide"],
        capture_output=True, text=True, env={**env, "PYTHONPATH": ctxkit_src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.splitlines()[-1] == "0 vectors listed"


def test_help_exits_zero(capsys):
    assert cli_dispatch(["--help"]) == 0
    assert cli_dispatch(["ctx", "--help"]) == 0
    capsys.readouterr()


def test_outputs_are_byte_identical_across_runs(alice_path, kripke_path, capsys):
    commands = [
        ("gen", "alice-bob", "--horizon", "3"),
        ("gen", "minigame", "--variant", "turn"),
        ("gen", "random-ctx", "--seed", "11", "--count", "12"),
        ("gen", "random-kripke", "--seed", "11", "--density", "0.7"),
        ("ctx", "check-determinable", alice_path, "--mode", "windowed"),
        ("ctx", "check-determinable", alice_path, "--mode", "literal"),
        ("ctx", "iterator", alice_path),
        ("ctx", "consistency", alice_path, "--instance", "i3", "--time", "1"),
        ("modal", "to-context", kripke_path, "--atoms", "p,q", "--depth", "1"),
        ("modal", "verify-theorem", kripke_path, "--atoms", "p", "--depth", "2"),
    ]
    for argv in commands:
        first_code, first_out = run_cli(capsys, *argv)
        second_code, second_out = run_cli(capsys, *argv)
        assert first_code == second_code
        assert first_out == second_out, argv


class Recorder(io.StringIO):
    """A stream that logs each write, as (stream name, text), to a shared list."""

    def __init__(self, log, name):
        super().__init__()
        self.log, self.name = log, name

    def write(self, text):
        self.log.append((self.name, text))
        return super().write(text)


def test_each_command_writes_its_whole_report_in_one_call(alice_path, kripke_path, tmp_path,
                                                          capsys):
    conflict, violating = tmp_path / "conflict.ctx", tmp_path / "bad.mctx"
    conflict.write_text("states: a b c x y\nentities: e\ntime: 0 1 2\n"
                        "instance w1:\n  e@0=a e@1=b e@2=x\n"
                        "instance w2:\n  e@0=c e@1=b e@2=y\n")
    violating.write_text(VIOLATING_MCTX)
    mctx, out = str(tmp_path / "two.mctx"), str(tmp_path / "out")
    runs = [  # (argv, exit code, has a human section)
        (["gen", "alice-bob", "--horizon", "3"], 0, False),
        (["gen", "random-ctx", "--seed", "3", "--count", "5", "-o", out], 0, False),
        (["gen", "random-kripke", "--seed", "3", "-o", out], 0, False),
        (["modal", "to-context", kripke_path, "--atoms", "p", "--depth", "1"], 0, False),
        (["modal", "to-context", kripke_path, "--atoms", "p", "--depth", "1", "-o", mctx],
         0, False),
        (["ctx", "check-determinable", alice_path], 1, True),  # a witness
        (["ctx", "check-determinable", alice_path, "--mode", "windowed"], 0, False),
        (["ctx", "iterator", alice_path], 0, True),
        (["ctx", "iterator", str(conflict)], 1, True),
        (["ctx", "deterministic", alice_path], 1, False),
        (["ctx", "consistency", alice_path, "--instance", "i0", "--time", "1"], 0, True),
        (["modal", "eval", kripke_path, "--world", "w1", "--formula", "<>p"], 0, True),
        (["modal", "check-context", mctx], 0, False),
        (["modal", "check-context", str(violating)], 1, True),  # a violation listing
        (["modal", "verify-theorem", kripke_path, "--atoms", "p", "--depth", "1"], 0, False),
    ]
    for argv, code, human in runs:
        log = []
        with contextlib.redirect_stdout(Recorder(log, "out")), \
                contextlib.redirect_stderr(Recorder(log, "err")):
            assert cli_dispatch(argv) == code, argv
        (stream, report), *rest = log
        # the report is the run's one write to stdout; the elapsed_ms line follows it
        assert stream == "out" and report.endswith("\n"), argv
        assert all(stream == "err" for stream, _ in rest), argv
        assert re.fullmatch(r"elapsed_ms=\d+\.\d\n", "".join(text for _, text in rest))
        assert ("\n\n" in report) == human, argv
        assert run_cli(capsys, *argv) == (code, report)


RUN_WITHOUT_MODAL = """\
import sys
from ctxkit.cli import main
for argv in {commands!r}:
    main(argv)
for name, defined in (("modal_logic", "parse_formula"), ("modal_context", "quotient")):
    # a lazy module's namespace is read without running it
    namespace = object.__getattribute__(sys.modules["ctxkit." + name], "__dict__")
    print(name, defined in namespace)
"""


def test_context_and_gen_commands_run_no_modal_module(tmp_path, kripke_path, ctxkit_src):
    path = str(tmp_path / "a.ctx")
    commands = [["gen", "alice-bob", "-o", path], ["gen", "random-ctx", "--seed", "1"],
                ["ctx", "deterministic", path], ["ctx", "iterator", path]]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_MODAL.format(commands=commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["modal_logic False", "modal_context False"]
    # a modal command runs them
    commands.append(["modal", "eval", kripke_path, "--world", "w1", "--formula", "p"])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_MODAL.format(commands=commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.stdout.splitlines()[-2:] == ["modal_logic True", "modal_context False"]


def test_every_package_name_resolves():
    import ctxkit

    for name in ctxkit._MODAL_HOME:
        home = sys.modules[f"ctxkit.{ctxkit._MODAL_HOME[name]}"]
        assert getattr(ctxkit, name) is getattr(home, name)
    with pytest.raises(AttributeError):
        ctxkit.no_such_name


def test_the_library_map_names_a_reader_for_every_public_name():
    import ctxkit

    readme = pathlib.Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    table = readme.split("## Library map", 1)[1].split("\n## ", 1)[0]
    claims = [line.split("|")[3] for line in table.splitlines() if line.startswith("| `ctxkit")]
    claimed = set(re.findall(r"`(\w+)`", "".join(claims)))
    public = {name for name, value in vars(ctxkit).items()
              if not name.startswith("_") and not isinstance(value, type(sys))}
    assert public | set(ctxkit._MODAL_HOME) <= claimed


def test_reimporting_the_package_keeps_its_modal_modules():
    import ctxkit
    from ctxkit import formats

    kripke_model = ctxkit.KripkeModel
    saved_modules, saved_names = dict(sys.modules), dict(vars(ctxkit))
    assert {"ctxkit.modal_logic", "ctxkit.modal_context"} <= set(sys.modules)
    try:
        importlib.reload(ctxkit)
        kept = (ctxkit.modal_logic is formats.modal_logic,
                ctxkit.modal_context is formats.modal_context,
                ctxkit.KripkeModel is kripke_model)
    finally:
        sys.modules.clear()
        sys.modules.update(saved_modules)
        vars(ctxkit).clear()
        vars(ctxkit).update(saved_names)
    assert kept == (True, True, True)


def test_import_builds_no_parser(ctxkit_src):
    proc = subprocess.run(
        [sys.executable, "-c",
         "from ctxkit.cli import _build_parser; print(_build_parser.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.stdout == "0\n"


def test_parser_is_built_once_per_process(alice_path, capsys):
    _build_parser.cache_clear()
    for _ in range(20):
        assert cli_dispatch(["ctx", "deterministic", alice_path]) == 1
        assert cli_dispatch(["gen", "minigame"]) == 0
    capsys.readouterr()
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 39)


@pytest.mark.parametrize("interloper, code", [
    (("ctx", "frobnicate"), 2),
    (("--help",), 0),
    (("modal", "to-context", "x.kr"), 2),
])
def test_usage_errors_and_help_leave_the_parser_unchanged(alice_path, capsys, interloper, code):
    argv = ("ctx", "check-determinable", alice_path, "--mode", "windowed")
    first = run_cli(capsys, *argv)
    assert cli_dispatch(list(interloper)) == code
    capsys.readouterr()
    assert run_cli(capsys, *argv) == first


def test_console_entry_point_runs(ctxkit_src):
    proc = subprocess.run(
        [sys.executable, "-m", "ctxkit.cli", "gen", "alice-bob", "--horizon", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": ctxkit_src},
    )
    assert proc.returncode == 0
    assert "states: Home Out" in proc.stdout
    assert "elapsed_ms=" in proc.stderr


# ---------------------------------------------------------------------------
# help and usage-error bytes, pinned at an 80-column terminal
# ---------------------------------------------------------------------------

# argv -> (exit code, stdout, stderr): --help at the top, at each group and at
# each command, then usage errors at the top and one per group
HELP_PINS = {
    ('--help',): (
        0,
        """\
usage: ctxkit [-h] {ctx,modal,gen} ...

Finite contexts, determinability, and modal-context checking.

positional arguments:
  {ctx,modal,gen}
    ctx            context analysis
    modal          Kripke models and modal contexts
    gen            generate example artifacts

options:
  -h, --help       show this help message and exit
""",
        "",
    ),
    ('ctx', '--help'): (
        0,
        """\
usage: ctxkit ctx [-h]
                  {check-determinable,iterator,consistency,deterministic} ...

positional arguments:
  {check-determinable,iterator,consistency,deterministic}
    check-determinable  decide determinability
    iterator            extract the step function if one exists
    consistency         filter by prefix agreement
    deterministic       single successor at every step?

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ('modal', '--help'): (
        0,
        """\
usage: ctxkit modal [-h] {eval,to-context,check-context,verify-theorem} ...

positional arguments:
  {eval,to-context,check-context,verify-theorem}
    eval                evaluate a formula at a world
    to-context          compile a model into a modal context
    check-context       check the box/diamond conditions
    verify-theorem      compile, check conditions, and verify world
                        representation

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ('gen', '--help'): (
        0,
        """\
usage: ctxkit gen [-h]
                  {alice-bob,alice-bob-odd,minigame,random-ctx,random-kripke}
                  ...

positional arguments:
  {alice-bob,alice-bob-odd,minigame,random-ctx,random-kripke}

options:
  -h, --help            show this help message and exit
""",
        "",
    ),
    ('ctx', 'check-determinable', '--help'): (
        0,
        """\
usage: ctxkit ctx check-determinable [-h] [--mode {literal,windowed}] file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --mode {literal,windowed}
                        literal: the definition verbatim; windowed: compare
                        over the common suffix window (default: literal)
""",
        "",
    ),
    ('ctx', 'iterator', '--help'): (
        0,
        """\
usage: ctxkit ctx iterator [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
        "",
    ),
    ('ctx', 'consistency', '--help'): (
        0,
        """\
usage: ctxkit ctx consistency [-h] --instance INSTANCE --time TIME file

positional arguments:
  file

options:
  -h, --help           show this help message and exit
  --instance INSTANCE
  --time TIME
""",
        "",
    ),
    ('ctx', 'deterministic', '--help'): (
        0,
        """\
usage: ctxkit ctx deterministic [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
        "",
    ),
    ('modal', 'eval', '--help'): (
        0,
        """\
usage: ctxkit modal eval [-h] --world WORLD --formula FORMULA file

positional arguments:
  file

options:
  -h, --help         show this help message and exit
  --world WORLD
  --formula FORMULA
""",
        "",
    ),
    ('modal', 'to-context', '--help'): (
        0,
        """\
usage: ctxkit modal to-context [-h] --atoms ATOMS --depth DEPTH [--cap CAP]
                               [-o OUTPUT]
                               file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --atoms ATOMS         comma-separated atom list
  --depth DEPTH
  --cap CAP
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    ('modal', 'check-context', '--help'): (
        0,
        """\
usage: ctxkit modal check-context [-h] file

positional arguments:
  file

options:
  -h, --help  show this help message and exit
""",
        "",
    ),
    ('modal', 'verify-theorem', '--help'): (
        0,
        """\
usage: ctxkit modal verify-theorem [-h] --atoms ATOMS --depth DEPTH
                                   [--cap CAP]
                                   file

positional arguments:
  file

options:
  -h, --help     show this help message and exit
  --atoms ATOMS
  --depth DEPTH
  --cap CAP
""",
        "",
    ),
    ('gen', 'alice-bob', '--help'): (
        0,
        """\
usage: ctxkit gen alice-bob [-h] [--horizon HORIZON] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --horizon HORIZON
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    ('gen', 'alice-bob-odd', '--help'): (
        0,
        """\
usage: ctxkit gen alice-bob-odd [-h] [--horizon HORIZON] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --horizon HORIZON
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    ('gen', 'minigame', '--help'): (
        0,
        """\
usage: ctxkit gen minigame [-h] [--variant {base,turn}] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --variant {base,turn}
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    ('gen', 'random-ctx', '--help'): (
        0,
        """\
usage: ctxkit gen random-ctx [-h] --seed SEED [--states STATES]
                             [--entities ENTITIES] [--times TIMES]
                             [--count COUNT] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --states STATES
  --entities ENTITIES
  --times TIMES
  --count COUNT
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    ('gen', 'random-kripke', '--help'): (
        0,
        """\
usage: ctxkit gen random-kripke [-h] --seed SEED [--worlds WORLDS]
                                [--atoms ATOMS] [--density DENSITY]
                                [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  --seed SEED
  --worlds WORLDS
  --atoms ATOMS
  --density DENSITY
  -o OUTPUT, --output OUTPUT
""",
        "",
    ),
    (): (
        2,
        "",
        """\
usage: ctxkit [-h] {ctx,modal,gen} ...
ctxkit: error: the following arguments are required: group
""",
    ),
    ('frobnicate',): (
        2,
        "",
        """\
usage: ctxkit [-h] {ctx,modal,gen} ...
ctxkit: error: argument group: invalid choice: 'frobnicate' (choose from 'ctx', 'modal', 'gen')
""",
    ),
    ('ctx', 'frobnicate'): (
        2,
        "",
        """\
usage: ctxkit ctx [-h]
                  {check-determinable,iterator,consistency,deterministic} ...
ctxkit ctx: error: argument command: invalid choice: 'frobnicate' (choose from 'check-determinable', 'iterator', 'consistency', 'deterministic')
""",
    ),
    ('modal', 'to-context', 'm.kr'): (
        2,
        "",
        """\
usage: ctxkit modal to-context [-h] --atoms ATOMS --depth DEPTH [--cap CAP]
                               [-o OUTPUT]
                               file
ctxkit modal to-context: error: the following arguments are required: --atoms, --depth
""",
    ),
    ('gen', 'minigame', '--variant', 'both'): (
        2,
        "",
        """\
usage: ctxkit gen minigame [-h] [--variant {base,turn}] [-o OUTPUT]
ctxkit gen minigame: error: argument --variant: invalid choice: 'both' (choose from 'base', 'turn')
""",
    ),
}


@pytest.mark.parametrize("argv", list(HELP_PINS), ids=lambda argv: " ".join(argv) or "(none)")
def test_help_and_usage_errors_are_byte_stable(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == HELP_PINS[argv]


COMMANDS = {
    "ctx": ("check-determinable", "iterator", "consistency", "deterministic"),
    "modal": ("eval", "to-context", "check-context", "verify-theorem"),
    "gen": ("alice-bob", "alice-bob-odd", "minigame", "random-ctx", "random-kripke"),
}
# every option of every command, abbreviations, values good and bad, help,
# `--` and words no parser knows
ARG_WORDS = (
    "f.ctx", "x.kr", "", "-h", "--help", "--h", "--", "-x", "--bogus", "frob",
    "--mode", "--mo", "--mode=windowed", "windowed", "literal", "--instance", "--inst", "i0",
    "--time", "0", "--world", "w1", "--formula", "p", "~p", "--atoms", "--at", "p,q",
    "--depth", "--dep", "--d", "1", "-1", "x", "--cap", "-o", "--output", "--out", "-oout.ctx",
    "out.ctx", "--horizon", "--hor", "3", "--variant", "--var", "base", "turn", "--seed",
    "--s", "7", "--states", "--entities", "--times", "--t", "--count", "--worlds", "--density",
    "0.3", "nan",
)


@st.composite
def cli_argvs(draw):
    """Mostly a known group and one of its commands, sometimes a wrong, missing
    or unknown word in their place, then up to six more words, which may be
    group or command names too."""
    commands = tuple(c for cs in COMMANDS.values() for c in cs)
    head = []
    if draw(st.integers(0, 9)):
        group = draw(st.sampled_from((*COMMANDS, "frob", *ARG_WORDS[:7])))
        head.append(group)
        if draw(st.integers(0, 9)):
            mine = COMMANDS.get(group)
            head.append(draw(st.sampled_from(mine) if mine and draw(st.integers(0, 4))
                             else st.sampled_from((*commands, *COMMANDS, "frobnicate",
                                                   *ARG_WORDS[:7]))))
    tail = (*ARG_WORDS, *COMMANDS, *commands)
    return head + draw(st.lists(st.sampled_from(tail), max_size=6))


def parsed_by(parse, argv):
    """(exit code or namespace, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(cli_argvs())
@example(["ctx", "check-determinable", "f.ctx", "--mo", "windowed"])
@example(["ctx", "deterministic", "--", "f.ctx"])
@example(["ctx", "deterministic", "f.ctx", "--", "-x"])
@example(["modal", "to-context", "x.kr", "--atoms", "p"])
@example(["gen", "minigame", "extra"])
@example(["gen", "alice-bob", "--help"])
@example(["-h", "gen", "minigame"])
def test_leaf_route_parses_as_the_parser_tree_does(argv):
    tree = _build_parser()[0]
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # argparse wraps to the terminal width
        assert parsed_by(_parse_argv, argv) == parsed_by(tree.parse_args, argv)


def test_a_well_formed_command_skips_the_parser_tree(alice_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the parser tree ran")

    monkeypatch.setattr(_build_parser()[0], "parse_args", refuse)
    code, out = run_cli(capsys, "ctx", "check-determinable", alice_path, "--mo", "windowed")
    assert code == 0 and machine_fields(out)["mode"] == "windowed"
    assert cli_dispatch(["gen", "minigame", "-o", os.devnull]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the modal pipeline on member rows
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ("to-context", "verify-theorem"))
def test_extension_table_over_the_guard_exits_2(command, kripke_path, tmp_path, monkeypatch,
                                                capsys):
    # the 220-member p,q depth-1 universe fits a guard of 400; its table over
    # the model's two worlds (440 members x worlds) does not
    monkeypatch.setenv("CTXKIT_GUARD", "400")
    out = tmp_path / "out.mctx"
    extra = ["-o", str(out)] if command == "to-context" else []
    code = cli_dispatch(
        ["modal", command, kripke_path, "--atoms", "p,q", "--depth", "1"] + extra
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[0] == (
        "error: extension table needs a guard of at least 440; "
        "current guard is 400; set CTXKIT_GUARD to raise it"
    )
    assert not out.exists()
    monkeypatch.setenv("CTXKIT_GUARD", "440")
    assert cli_dispatch(
        ["modal", command, kripke_path, "--atoms", "p,q", "--depth", "1"] + extra
    ) == 0
    capsys.readouterr()


def test_modal_commands_build_no_member_node(tmp_path, monkeypatch, capsys):
    # atoms that no other test names, so no node over them is alive before
    model = tmp_path / "m.kr"
    model.write_text(
        "world w0\nworld w1\nworld w2\nedge w0 w1\nedge w1 w2\nedge w2 w2\n"
        "val w0 nodecount_a\nval w1 nodecount_b\nval w2 nodecount_a\n"
    )
    mctx = tmp_path / "m.mctx"
    universe = ["--atoms", "nodecount_a,nodecount_b", "--depth", "1"]
    built = []
    intern = modal_logic._intern

    def counted(node, key, *rest):
        built.append(key)
        return intern(node, key, *rest)

    monkeypatch.setattr(modal_logic, "_intern", counted)
    assert cli_dispatch(["modal", "to-context", str(model), *universe, "-o", str(mctx)]) == 0
    assert built == []
    assert cli_dispatch(["modal", "check-context", str(mctx)]) == 0
    assert built == []
    assert cli_dispatch(["modal", "verify-theorem", str(model), *universe]) == 0
    fields = machine_fields(capsys.readouterr().out)
    assert fields["verdict"] == "yes" and fields["universe_size"] == "220"
    assert built == []
