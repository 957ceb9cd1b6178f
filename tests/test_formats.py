"""Round trips and error reporting for the three file formats."""

import functools
import gc
import importlib
import itertools
import random
import re
import statistics
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import corpus
import oracles
from ctxkit import modal_logic
from ctxkit.cli import cli_dispatch
from ctxkit.core import Context, Instance, Signature
from ctxkit.determinability import (
    extract_iterator, is_determinable, is_deterministic,
)
from ctxkit.generators import gen_alice_bob, gen_minigame, gen_random_kripke
from ctxkit.modal_logic import (
    And,
    Atom,
    Box,
    FormulaUniverse,
    KripkeModel,
    Not,
    formula_universe,
    parse_formula,
    print_formula,
)
from ctxkit.modal_context import to_modal_context
from ctxkit.formats import (
    DEFAULT_WORLDS_GUARD,
    LoadedContext,
    ModelFileError,
    file_digest,
    load_context,
    load_kripke,
    load_modal_context,
    parse_context,
    parse_kripke,
    parse_modal_context,
    render_context,
    render_kripke,
    render_modal_context,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ALICE_FILE = """\
# two flatmates
states: Home Out
entities: Alice Bob
time: 0 1

instance stay:
  Alice@0=Home Alice@1=Home
  Bob@0=Out Bob@1=Out
instance out:
  Alice@0=Out Bob@0=Out
  Alice@1=Out Bob@1=Home
"""


# ---------------------------------------------------------------------------
# context files
# ---------------------------------------------------------------------------

def test_parse_context_basics():
    loaded = parse_context(ALICE_FILE)
    assert len(loaded.context) == 2
    assert loaded.instance_named("stay").value("Alice", "1") == "Home"
    assert loaded.instance_named("out").value("Bob", "1") == "Home"
    with pytest.raises(ValueError):
        loaded.instance_named("nope")


def test_loading_rendering_and_analysing_build_no_instance(monkeypatch):
    text = render_context(gen_alice_bob(4))

    def refuse(*args):
        raise AssertionError("an Instance was built")

    monkeypatch.setattr(Instance, "__init__", refuse)
    ctx = parse_context(text).context
    assert render_context(ctx) == text
    assert is_deterministic(ctx) is False
    assert isinstance(extract_iterator(ctx), dict)
    assert is_determinable(ctx, "windowed") is None


def test_context_round_trip_via_files(tmp_path):
    ctx = gen_alice_bob(3)
    path = tmp_path / "alice.ctx"
    path.write_text(render_context(ctx))
    loaded = load_context(path)
    assert loaded.context == ctx
    # canonical files survive render(load(.)) byte for byte
    again = tmp_path / "again.ctx"
    again.write_text(render_context(loaded.context))
    assert path.read_text() == again.read_text()
    # load . render . load == load
    assert load_context(again).context == loaded.context


def test_minigame_and_random_contexts_round_trip(tmp_path):
    base, tracked = gen_minigame()
    for k, ctx in enumerate((base, tracked)):
        path = tmp_path / f"game{k}.ctx"
        path.write_text(render_context(ctx))
        assert load_context(path).context == ctx
    rng = random.Random(321)
    for k in range(10):
        ctx = corpus.random_context(rng)
        path = tmp_path / f"rand{k}.ctx"
        path.write_text(render_context(ctx))
        assert load_context(path).context == ctx


def test_duplicate_instance_collapses_with_warning():
    text = ALICE_FILE + "instance copy:\n  Alice@0=Home Alice@1=Home Bob@0=Out Bob@1=Out\n"
    with pytest.warns(UserWarning, match="duplicate instance"):
        loaded = parse_context(text)
    assert len(loaded.context) == 2


def test_missing_cell_is_named():
    text = """\
states: a b
entities: e1 e2
time: 0 1
instance broken:
  e1@0=a e1@1=a e2@0=b
"""
    with pytest.raises(ModelFileError, match=r"missing cell e2@1"):
        parse_context(text)


def test_context_parse_errors_carry_line_numbers():
    with pytest.raises(ModelFileError, match=":3:"):
        parse_context("states: a\nentities: e\nbogus line\n")
    with pytest.raises(ModelFileError, match="unknown state"):
        parse_context("states: a\nentities: e\ntime: 0\ninstance x:\n  e@0=zz\n")
    with pytest.raises(ModelFileError, match="given twice"):
        parse_context("states: a\nentities: e\ntime: 0\ninstance x:\n  e@0=a e@0=a\n")
    with pytest.raises(ModelFileError, match="missing header"):
        parse_context("states: a\ntime: 0\ninstance x:\n  e@0=a\n")
    with pytest.raises(ModelFileError, match="empty"):
        parse_context("# nothing\n")


HEAD = "states: a b\nentities: e f\ntime: 0 1\n"
FULL = "  e@0=a e@1=a f@0=a f@1=a\n"


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        ("instance x:\n  e@0=a e0=a\n", 5, "malformed cell 'e0=a', expected entity@time=state"),
        ("instance x:\n  g@0=a\n", 5, "unknown entity 'g'"),
        ("instance x:\n  e@9=a\n", 5, "unknown time '9'"),
        ("instance x:\n  e@0=zz\n", 5, "unknown state 'zz'"),
        ("instance x:\n  e@0=a\n  e@1=b e@0=a\n", 6, "cell e@0 given twice"),
        # entity-major order: e@1 is named before f@0
        ("instance x:\n  e@0=a f@1=a\n", 4, "instance 'x' is missing cell e@1"),
        ("instance x:\n  e@0=a\ninstance y:\n" + FULL, 4, "instance 'x' is missing cell e@1"),
        ("instance x:\n" + FULL + "instance x:\n" + FULL, 6, "instance name 'x' reused"),
        # a token wrong in several ways reports the first check it fails
        ("instance x:\n  g@0=zz\n", 5, "unknown entity 'g'"),
        ("instance x:\n  g@9=a\n", 5, "unknown entity 'g'"),
        ("instance x:\n  e@9=zz\n", 5, "unknown time '9'"),
        ("instance x:\n  e@0@1=a\n", 5, "unknown time '0@1'"),
        ("instance x:\n  e@0=zz e@0=zz\n", 5, "unknown state 'zz'"),
        # the first bad token in line order decides, whether its cell was
        # filled by an earlier line or earlier on its own line
        ("instance x:\n  e@0=a\n  e@0=b e@1=zz\n", 6, "cell e@0 given twice"),
        ("instance x:\n  e@1=a e@0=a e@1=b g@0=a\n", 5, "cell e@1 given twice"),
        ("instance x:\n  e@0=a\n  e@1=a e@0=b e@1=b\n", 6, "cell e@0 given twice"),
        ("instance x:\n  e@0=a\n  e@1=a e@1=b e@0=b\n", 6, "cell e@1 given twice"),
        # a line already read once: its cells are applied in token order
        ("instance x:\n  e@0=a e@1=a\n  e@0=a e@1=a\n", 6, "cell e@0 given twice"),
        (
            "instance x:\n  e@0=a e@1=a\n  f@0=a f@1=a\ninstance y:\n  e@1=b\n  e@0=a e@1=a\n",
            9,
            "cell e@1 given twice",
        ),
        # errors about the whole file name no line; their body is the whole file
        ("# nothing\n", None, "empty context file"),
        ("states: a b\nentities: e f\n", None, "missing header line(s): time"),
        # a header's symbols are checked on its own line, so in file order
        ("states: a a\nentities: e\ntime: 0\n\ninstance x:\n", 1, "duplicate state symbol 'a'"),
        ("states: a a\nentities: e\ntime: 0\n", 1, "duplicate state symbol 'a'"),
        ("states: a\nentities: e\ntime:\ninstance x:\n", 3, "a signature needs at least one time"),
        ("states: a a\nentities: e\n", 1, "duplicate state symbol 'a'"),
    ],
)
def test_context_parse_errors_are_pinned(body, line_no, message):
    # a body that starts with a comment or a header is the whole file
    with pytest.raises(ModelFileError) as info:
        parse_context(body if body.startswith(("#", "states:")) else HEAD + body)
    assert info.value.line_no == line_no
    where = "<string>" if line_no is None else f"<string>:{line_no}"
    assert str(info.value) == f"{where}: {message}"


def test_empty_context_round_trips(tmp_path):
    ctx = Context(Signature(("a", "b"), ("e", "f"), ("0", "1")), ())
    path = tmp_path / "empty.ctx"
    path.write_text(render_context(ctx))
    assert path.read_text() == HEAD
    loaded = load_context(path)
    assert loaded.context == ctx
    assert dict(loaded.rows) == {}


def test_duplicate_instance_warning_is_pinned():
    with pytest.warns(UserWarning) as record:
        loaded = parse_context(HEAD + "instance x:\n" + FULL + "instance y:\n" + FULL, "dup.ctx")
    assert [str(w.message) for w in record] == [
        "dup.ctx: duplicate instance 'y' collapsed (set semantics)"
    ]
    assert [w.filename for w in record] == [__file__]  # it points at the caller
    assert list(loaded.rows) == ["x", "y"]
    assert loaded.rows["y"] == loaded.rows["x"]
    assert loaded.name_of == {loaded.rows["x"]: "x"}


MUTATIONS = (
    "repeat", "move", "drop", "split", "swap", "drop token", "garble", "retarget",
    "duplicate instance", "respell",
)

# an instance line named `name`, respelled: once the signature is known the
# first two and the last keep the fast case, the rest take the general branch,
# and `#x` and the empty name are refused
RESPELLINGS = (
    "instance   {}  :", "instance {} :", "instance\t{}:", "  instance {}:",
    "instance {}: # comment", "instance {}#x:", "instance :", "instance {}::",
)


@st.composite
def context_texts(draw):
    """A rendered random context, then a few line mutations of the kinds a
    hand-edited file has: repeated, moved, dropped, split or swapped lines, tokens
    dropped, garbled or pointed at another (possibly unknown) entity, time or
    state, duplicated instances, instance lines respelled."""
    sig = Signature(
        tuple(f"s{i}" for i in range(draw(st.integers(1, 3)))),
        tuple(f"e{i}" for i in range(draw(st.integers(1, 3)))),
        tuple(str(i) for i in range(draw(st.integers(1, 3)))),
    )
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(sig.states), min_size=sig.cell_count(),
                     max_size=sig.cell_count()),
            min_size=1,
            max_size=5,
        )
    )
    ctx = Context(sig, tuple(Instance(sig.entities, sig.times, tuple(r)) for r in rows))
    lines = render_context(ctx).splitlines()
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        cell_lines = [i for i, line in enumerate(lines) if line.startswith("  ") and line.strip()]
        starts = [i for i, line in enumerate(lines) if line.startswith("instance ")]
        if kind == "swap":
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate instance" and starts:
            i = draw(st.sampled_from(starts))
            end = next((j for j in starts if j > i), len(lines))
            name = draw(st.sampled_from(["i0", "copy"]))
            block = [f"instance {name}:"] + lines[i + 1 : end]
            at = draw(st.sampled_from(starts + [len(lines)]))
            lines[at:at] = block
        elif kind == "respell" and starts:
            i = draw(st.sampled_from(starts))
            name = lines[i][len("instance ") : -1]
            lines[i] = draw(st.sampled_from(RESPELLINGS)).format(name)
        elif cell_lines:
            i = draw(st.sampled_from(cell_lines))
            if kind == "repeat":
                end = next((j for j in starts if j > i), len(lines))
                at = draw(st.integers(i + 1, end))
                lines.insert(at, lines[i])
            elif kind == "move" and starts:
                line = lines.pop(i)
                at = draw(st.sampled_from(starts)) + 1
                lines.insert(min(at, len(lines)), line)
            elif kind == "drop":
                del lines[i]
            elif kind == "split":
                tokens = lines[i].split()
                k = draw(st.integers(0, len(tokens)))
                lines[i : i + 1] = ["  " + " ".join(tokens[:k]), "  " + " ".join(tokens[k:])]
            else:
                tokens = lines[i].split()
                k = draw(st.integers(0, len(tokens) - 1))
                if kind == "drop token":
                    del tokens[k]
                elif kind == "retarget":
                    entity = draw(st.sampled_from(sig.entities + ("zz",)))
                    time = draw(st.sampled_from(sig.times + ("9",)))
                    state = draw(st.sampled_from(sig.states + ("zz",)))
                    tokens[k] = f"{entity}@{time}={state}"
                else:
                    tokens[k] = draw(st.text(alphabet="e0s1@= ", max_size=7))
                lines[i] = "  " + " ".join(tokens)
    return "\n".join(lines) + "\n"


def read_both(text):
    """(outcome of parse_context, outcome of the token-by-token reference):
    either ("ok", signature, canonical rows, names, warnings) or
    ("error", message, line number). Any other exception escapes."""
    try:
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            loaded = parse_context(text, "f.ctx")
        got = (
            "ok",
            loaded.context.signature,
            [inst.cells for inst in loaded.context],
            {name: loaded.instance_named(name).cells for name in loaded.rows},
            [str(w.message) for w in record],
        )
    except ModelFileError as exc:
        got = ("error", str(exc), exc.line_no)
    try:
        sig, kept, names, warned = oracles.parse_context_tokenwise(text, "f.ctx")
        rank = {s: i for i, s in enumerate(sig.states)}
        rows = sorted(kept, key=lambda row: [rank[c] for c in row])
        want = ("ok", sig, rows, names, warned)
    except ModelFileError as exc:
        want = ("error", str(exc), exc.line_no)
    return got, want


@settings(max_examples=500)
@given(context_texts())
# a line read once in x, read again in y after one of its cells was given
@example(HEAD + "instance x:\n" + FULL + "instance y:\n  f@0=b\n" + FULL)
# headers alone, and a header missing with no instance to follow
@example(HEAD)
@example("states: a b\ntime: 0 1\n")
def test_parse_context_agrees_with_tokenwise_reference(text):
    got, want = read_both(text)
    assert got == want


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        (HEAD + "instance x:\n" + FULL + "states: a b\n", 6, "states: after instances or repeated"),
        (HEAD + "time: 0\n", 4, "time: after instances or repeated"),
        ("states: a\nstates: a\n", 2, "states: after instances or repeated"),
        (HEAD + "instance x\n", 4, "expected `instance <name>:`"),
        (HEAD + "instance  :\n", 4, "expected `instance <name>:`"),
        (HEAD + "instance x y\n", 4, "expected `instance <name>:`"),
        # `instance:` is one token, and not the keyword
        (HEAD + "instance:\n", 4, "unexpected line 'instance:'"),
        # a `#` starts a comment even inside the name, before and after the
        # signature is known
        (HEAD + "instance a#b:\n", 4, "expected `instance <name>:`"),
        (HEAD + "instance x:\n" + FULL + "instance a#b:\n" + FULL, 6,
         "expected `instance <name>:`"),
        # a name already used, by a line of either branch
        (HEAD + "instance x:\n" + FULL + "instance x:\n" + FULL, 6, "instance name 'x' reused"),
        (HEAD + "instance x:\n" + FULL + "  instance x:\n" + FULL, 6, "instance name 'x' reused"),
    ],
)
def test_misplaced_headers_and_nameless_instances_are_pinned(text, line_no, message):
    got, want = read_both(text)
    assert got == want == ("error", f"f.ctx:{line_no}: {message}", line_no)


@pytest.mark.parametrize(
    "line, name",
    [
        # off the fast case: a comment, a tab, leading spaces
        ("instance x: # c", "x"),
        ("instance\tx:", "x"),
        ("  instance x:", "x"),
        # on it, in any spacing
        ("instance x ::", "x :"),
        ("instance   x  :", "x"),
    ],
)
def test_every_spelling_of_an_instance_line_reads_one_name(line, name):
    # as the first instance line, read before the signature, and as a later one
    for text in (HEAD + line + "\n" + FULL,
                 HEAD + "instance w:\n" + FULL.replace("=a", "=b") + line + "\n" + FULL):
        got, want = read_both(text)
        assert got == want
        assert list(got[3])[-1] == name


def assert_parsed_as_checked(text):
    """The parser's context is the one `Context.from_rows` makes of the rows
    the parser named: the parser skips no check or sort that path makes."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        loaded = parse_context(text, "f.ctx")
    ctx = loaded.context
    assert ctx == Context.from_rows(ctx.signature, loaded.rows.values())


@settings(max_examples=300)
@given(context_texts())
@example(HEAD + "instance y:\n" + FULL.replace("=a", "=b") + "instance x:\n" + FULL)
def test_parsed_contexts_equal_the_checked_constructor(text):
    try:
        assert_parsed_as_checked(text)
    except ModelFileError:
        pass  # refused inputs build no context


def test_timelines_pool_files_parse_as_the_checked_constructor(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    built = importlib.import_module("workloads").build("timelines", str(tmp_path), None)
    for cmd in built.setup:
        assert cli_dispatch(list(cmd.argv)) == 0, cmd
    capsys.readouterr()
    files = sorted(tmp_path.glob("*.ctx"))
    assert len(files) == len(built.setup) == 34
    for path in files:
        assert_parsed_as_checked(path.read_text())


# symbols as the formats allow them: printable, no whitespace, none of the
# reserved characters
CONTEXT_SYMBOLS = st.text(
    st.characters(exclude_categories=("C", "Z"), exclude_characters="@=;,#"),
    min_size=1,
    max_size=3,
)


@st.composite
def contexts(draw):
    def symbols():
        return draw(st.lists(CONTEXT_SYMBOLS, min_size=1, max_size=3, unique=True))

    sig = Signature(symbols(), symbols(), symbols())
    n = sig.cell_count()
    rows = draw(st.lists(st.lists(st.sampled_from(sig.states), min_size=n, max_size=n),
                         max_size=6))
    return Context(sig, tuple(Instance(sig.entities, sig.times, row) for row in rows))


# save and load are render and parse plus writing and reading the text
@given(contexts())
def test_context_save_load_round_trip(ctx):
    assert parse_context(render_context(ctx)).context == ctx


@pytest.mark.parametrize("sig, rows, text", [
    (Signature(("a", "b"), ("e",), ("0", "1")), [],
     "states: a b\nentities: e\ntime: 0 1\n"),
    (Signature(("a", "b"), ("e",), ("0", "1")), [(1, 0), (0, 1)],
     "states: a b\nentities: e\ntime: 0 1\n"
     "instance i0:\n  e@0=a e@1=b\ninstance i1:\n  e@0=b e@1=a\n"),
    (Signature(("a", "b"), ("x", "y"), ("0",)), [(1, 1), (0, 1)],
     "states: a b\nentities: x y\ntime: 0\n"
     "instance i0:\n  x@0=a\n  y@0=b\ninstance i1:\n  x@0=b\n  y@0=b\n"),
    (Signature(("a", "b"), ("x", "y"), ("0", "1")), [(0, 1, 0, 1), (0, 1, 1, 1), (1, 1, 0, 1)],
     "states: a b\nentities: x y\ntime: 0 1\n"
     "instance i0:\n  x@0=a x@1=b\n  y@0=a y@1=b\n"
     "instance i1:\n  x@0=a x@1=b\n  y@0=b y@1=b\n"
     "instance i2:\n  x@0=b x@1=b\n  y@0=a y@1=b\n"),
], ids=["empty", "one entity", "one time", "entities sharing slices"])
def test_render_context_bytes_are_pinned(sig, rows, text):
    # the text is filled column by column; each entity's lines name that entity
    ctx = Context.from_rows(sig, rows)
    assert render_context(ctx) == text
    assert parse_context(text).context == ctx


def one_line_instance(cells: int) -> str:
    """A context file of one instance whose cells all sit on one line."""
    times = range(cells)
    return ("states: a b\nentities: e\ntime: " + " ".join(map(str, times)) + "\ninstance i0:\n  "
            + " ".join(f"e@{t}={'ab'[t % 2]}" for t in times) + "\n")


def test_a_wide_cell_line_parses_in_memory_linear_in_its_cells():
    """Each distinct cell token is memoized as its position and state index.
    Memoizing its bit as well held n ints of up to n bits, and the traced
    peak grew 9.1x from 5,000 to 20,000 cells; it grows about 4x when linear."""
    peaks = []
    for cells in (5_000, 20_000):
        text = one_line_instance(cells)
        tracemalloc.start()
        try:
            assert len(parse_context(text).context) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 5 * peaks[0], peaks


def test_a_wide_cell_line_compiles_in_time_linear_in_its_cells():
    """A cell line's tokens are read once, and its mask is built once from
    their positions. Testing and setting each token's bit in a running mask
    costs O(position) per token on big ints, and the parse then took
    51-56x as long for 16x the cells, against 22-27x when linear (process
    time, best of 4, CPython 3.11.7, 2 vCPUs); the bound is 36x. At 4x the
    cells the two read 8.3-9.1x and 5.1-6.3x, too close for a steady bound."""
    texts = [one_line_instance(cells) for cells in (10_000, 160_000)]
    best = [float("inf")] * 2
    for _ in range(4):  # interleaved, so both sizes meet the same host; the best of each
        for k, text in enumerate(texts):
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                parse_context(text)
                best[k] = min(best[k], time.process_time() - start)
            finally:
                gc.enable()
    assert best[1] <= 36 * best[0], best


# ---------------------------------------------------------------------------
# Kripke files
# ---------------------------------------------------------------------------

KRIPKE_FILE = """\
# the two-world example
world w1
world w2
edge w1 w2
val w2 p
"""


def test_parse_kripke_and_round_trip(tmp_path):
    model = parse_kripke(KRIPKE_FILE)
    assert model.worlds == ("w1", "w2")
    assert model.relation == frozenset({("w1", "w2")})
    assert model.valuation["p"] == frozenset({"w2"})

    path = tmp_path / "m.kr"
    path.write_text(render_kripke(model))
    assert load_kripke(path) == model
    again = tmp_path / "m2.kr"
    again.write_text(render_kripke(load_kripke(path)))
    assert path.read_text() == again.read_text()


def test_random_kripke_round_trip(tmp_path):
    for seed in range(8):
        model = gen_random_kripke(seed, 5, ("p", "q"), 0.4)
        path = tmp_path / f"r{seed}.kr"
        path.write_text(render_kripke(model))
        assert load_kripke(path) == model


WORLD_NAMES = st.text(
    st.characters(exclude_categories=("C", "Z"), exclude_characters="#"), min_size=1, max_size=3
)
ATOM_NAMES = st.from_regex(r"[a-z][A-Za-z0-9_]{0,2}", fullmatch=True)


@st.composite
def kripke_models(draw, worlds=st.lists(WORLD_NAMES, min_size=1, max_size=4, unique=True),
                  atoms=st.lists(ATOM_NAMES, max_size=3, unique=True)):
    names = draw(worlds)
    relation = draw(st.sets(st.sampled_from([(a, b) for a in names for b in names])))
    valuation = {atom: draw(st.frozensets(st.sampled_from(names))) for atom in draw(atoms)}
    return KripkeModel(names, relation, valuation)


@given(kripke_models())
# an atom true nowhere writes no line
@example(KripkeModel(("w",), frozenset(), {"p": frozenset()}))
def test_kripke_save_load_round_trip(model):
    assert parse_kripke(render_kripke(model)) == model


@st.composite
def mutated(draw, lines, words, garble):
    """The lines after one to three edits of the kinds a hand-edited file has:
    a line dropped, duplicated or swapped with another; a token dropped,
    garbled, or replaced by one of the words."""
    lines = list(lines)
    edits = ("drop", "duplicate", "swap", "drop token", "garble", "replace")
    for kind in draw(st.lists(st.sampled_from(edits), min_size=1, max_size=3)):
        if not lines:
            break
        i = draw(st.sampled_from(range(len(lines))))
        tokens = lines[i].split()
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "swap":
            j = draw(st.sampled_from(range(len(lines))))
            lines[i], lines[j] = lines[j], lines[i]
        elif tokens:
            k = draw(st.integers(0, len(tokens) - 1))
            if kind == "drop token":
                del tokens[k]
            elif kind == "replace":
                tokens[k] = draw(st.sampled_from(words))
            else:
                tokens[k] = draw(st.text(alphabet=garble, max_size=6))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def kripke_texts(draw):
    model = draw(kripke_models())
    words = (*model.worlds, "w9", "world", "edge", "val", "p", "Paris", "#")
    return draw(mutated(render_kripke(model).splitlines(), words, "w0p =#@x"))


@settings(max_examples=300)
@given(kripke_texts())
def test_kripke_parser_raises_only_model_file_errors(text):
    try:
        parse_kripke(text)
    except ModelFileError:
        pass


def test_kripke_errors_carry_line_numbers():
    with pytest.raises(ModelFileError, match=":2: unknown world 'w9'"):
        parse_kripke("world w1\nedge w1 w9\n")
    with pytest.raises(ModelFileError, match="unknown world"):
        parse_kripke("world w1\nval w9 p\n")
    with pytest.raises(ModelFileError, match="declared twice"):
        parse_kripke("world w1\nworld w1\n")
    with pytest.raises(ModelFileError, match="unknown directive"):
        parse_kripke("world w1\nfrobnicate w1\n")
    with pytest.raises(ModelFileError, match="invalid atom"):
        parse_kripke("world w1\nval w1 Paris\n")
    with pytest.raises(ModelFileError, match="empty"):
        parse_kripke("\n")


@st.composite
def annotated_kripke_texts(draw):
    """A model's file, valid or edited by hand, with comments, blank lines
    and respacing put in. The models have self-loops, isolated worlds and
    atoms true nowhere; the edits leave edge and `val` endpoints undeclared
    and lines repeated."""
    model = draw(kripke_models())
    lines = render_kripke(model).splitlines()
    if draw(st.booleans()):
        words = (*model.worlds, "w9", "world", "edge", "val", "p", "Paris", "true", "#")
        lines = draw(mutated(lines, words, "w0p =#@x")).splitlines()
    out = []
    for line in lines:
        kind = draw(st.sampled_from(("as is", "comment", "comment line", "blank", "respaced")))
        if kind == "comment":
            line += " # " + draw(st.sampled_from(("edge w9 w9", "", "#")))
        elif kind == "comment line":
            out.append("# " + line)
        elif kind == "blank":
            out.append(" \t")
        elif kind == "respaced":
            line = "  " + "\t ".join(line.split()) + " "
        out.append(line)
    return "\n".join(out) + "\n"


def kripke_views(text):
    """The views the reference parser builds, of the model parse_kripke loads."""
    model = parse_kripke(text)
    return model.worlds, model.relation, model.valuation


@settings(max_examples=300)
@given(annotated_kripke_texts())
@example("world a\nworld b\nedge a a\nedge a a\n# edge b a\nval a p # val b p\n")
@example("world a\nedge a b\nworld b\n")
@example("world a\nval b p\n")
@example("world a\nval a true\n")
@example("# only a comment\n\n")
def test_kripke_loader_agrees_with_the_line_by_line_reference(text):
    assert loaded_by(kripke_views, text) == loaded_by(oracles.reference_parse_kripke, text)


@pytest.mark.parametrize("parse, text, line_no, message", [
    (parse_kripke, "world w1\nworld w2\n# again\nworld w1\n", 4, "world 'w1' declared twice"),
    (parse_kripke, "world w1\nedge w1 w1\n\nedge w1 w9\n", 4, "unknown world 'w9'"),
    (parse_kripke, "world w1\nedge w2 w1\nworld w2\n", 2, "unknown world 'w2'"),
    (parse_kripke, "world w1\nval w0 p\n", 2, "unknown world 'w0'"),
    (parse_modal_context, "universe atoms=p depth=0 cap=1\ncworld c0\n  has p\ncworld c0\n", 4,
     "cworld 'c0' declared twice"),
    (parse_modal_context, "universe atoms=p depth=0 cap=1\ncworld c0\n\ncedge c0 c9\n", 4,
     "unknown cworld 'c9'"),
    (parse_modal_context, "universe atoms=p depth=0 cap=1\ncworld c0\ncedge c1 c0\n"
     "cworld c1\n  has p\n", 3, "unknown cworld 'c1'"),
    (parse_modal_context, "universe atoms=p depth=0 cap=1\ncworld c0\n  has p\ncworld c1\n"
     "  has p\n", 4, "worlds 'c0' and 'c1' are equal as functions"),
])
def test_world_name_errors_are_pinned(parse, text, line_no, message):
    with pytest.raises(ModelFileError) as info:
        parse(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"<string>:{line_no}: {message}"


def test_equal_cworlds_name_the_later_declaration_in_both_loaders():
    # the constructor reports the pair; each loader maps it to the later cworld's line
    text = ("universe atoms=p depth=0 cap=1\ncworld c0\n  has p\ncworld c2\n"
            "cworld c1\n  has p  # respaced\ncworld c3\n")
    for parse in (parse_modal_context, oracles.reference_parse_modal_context):
        with pytest.raises(ModelFileError) as info:
            parse(text, "eq.mctx")
        assert str(info.value) == "eq.mctx:5: worlds 'c0' and 'c1' are equal as functions"


@pytest.mark.parametrize("name", ["a b", "a\tb", "", "x#y"])
def test_both_constructors_refuse_a_world_name_no_file_can_hold(name):
    message = f"^invalid world name {re.escape(repr(name))}$"
    with pytest.raises(ValueError, match=message):
        KripkeModel((name,), frozenset(), {})


@given(st.text(max_size=3))
@example("a b")
@example("x#y")
@example("\x1c")
@example("\u2028")
@example("\xa0")
@example("\x00")
def test_every_world_name_the_constructors_accept_round_trips(name):
    try:
        model = KripkeModel((name,), {(name, name)}, {"p": {name}})
    except ValueError:
        return
    assert parse_kripke(render_kripke(model)) == model
    mc = corpus.modal_context((name,), (1, 0), {(name, name)}, pq_universe(0, 0))
    assert parse_modal_context(render_modal_context(mc)) == mc


# both loaders' scaling files hold this many lines at any world count
SCALING_LINES = 12_288


def kripke_lines(worlds, rng):
    names = [f"w{k}" for k in range(worlds)]
    return [f"world {w}" for w in names] + [
        f"edge {rng.choice(names)} {rng.choice(names)}" for _ in range(SCALING_LINES - worlds)
    ]


def modal_context_lines(worlds, rng):
    atoms = [f"a{k}" for k in range(65)]  # 2,080 pairs: a distinct theory per world
    lines = [f"universe atoms={','.join(atoms)} depth=0 cap=0"]
    for k, (a, b) in zip(range(worlds), itertools.combinations(atoms, 2)):
        lines += [f"cworld c{k}", f"  has {a}", f"  has {b}"]
    return lines + [f"cedge c{rng.randrange(worlds)} c{rng.randrange(worlds)}"
                    for _ in range(SCALING_LINES - len(lines))]


@pytest.mark.parametrize("parse, lines", [
    (parse_kripke, kripke_lines),
    (parse_modal_context, modal_context_lines),
])
def test_loaders_cost_the_same_per_line_at_any_world_count(parse, lines):
    """A name checked against a list costs O(worlds) a line. Checked against
    a set, a line costs the same at 2,048 worlds as at 128, so a file of
    2,048 worlds takes at most 1.5x as long as one of 128 with as many
    lines. Each round times both files back to back, so that they meet the
    same host noise, and the median of nine rounds' ratios is compared."""
    texts = ["\n".join(lines(worlds, random.Random(worlds))) + "\n" for worlds in (128, 2048)]
    ratios = []
    for round_ in range(9):
        seconds = {}
        for k in (0, 1) if round_ % 2 else (1, 0):
            start = time.perf_counter()
            parse(texts[k])
            seconds[k] = time.perf_counter() - start
        ratios.append(seconds[1] / seconds[0])
    assert statistics.median(ratios) < 1.5, sorted(ratios)


def wide_model(suffix: str, worlds: int) -> tuple[str, int]:
    """A .kr or .mctx file of `worlds` worlds (each cworld storing a set of
    its own, as a modal context must), and the line number of its last world
    line."""
    if suffix == ".kr":
        return "".join(f"world w{k}\n" for k in range(worlds)), worlds
    atoms = [f"a{k}" for k in range(92)]  # 4,186 pairs: a distinct theory per world
    lines = [f"universe atoms={','.join(atoms)} depth=0 cap=0"]
    for k, (a, b) in zip(range(worlds), itertools.combinations(atoms, 2)):
        lines += [f"cworld w{k}", f"  has {a}", f"  has {b}"]
    return "\n".join(lines) + "\n", len(lines) - 2


# suffix -> (parser, the attribute naming the worlds, refusal noun, a command reading the file)
MODEL_FILES = {".kr": (parse_kripke, "worlds", "Kripke model file",
                       ("modal", "eval", "<path>", "--world", "w0", "--formula", "p")),
               ".mctx": (parse_modal_context, "world_names", "modal context file",
                         ("modal", "check-context", "<path>"))}


@pytest.mark.parametrize("suffix", MODEL_FILES)
def test_a_model_file_past_the_worlds_guard_is_one_refusal(suffix, tmp_path, monkeypatch,
                                                             capsys):
    """A parser holds a mask over the worlds for each world, worlds x worlds
    bits at most; the world line that takes worlds x worlds past the guard is
    refused. The default admits 4,096 worlds."""
    parse, worlds, what, argv = MODEL_FILES[suffix]
    monkeypatch.delenv("CTXKIT_GUARD", raising=False)
    assert DEFAULT_WORLDS_GUARD == 4096 ** 2
    assert len(getattr(parse(wide_model(suffix, 4096)[0]), worlds)) == 4096
    text, line_no = wide_model(suffix, 4097)
    path = tmp_path / f"wide{suffix}"
    path.write_text(text)
    code = cli_dispatch([str(path) if word == "<path>" else word for word in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: {path}:{line_no}: {what} needs a guard of at least {4097 ** 2}; "
        f"current guard is {4096 ** 2}; set CTXKIT_GUARD to raise it"]
    monkeypatch.setenv("CTXKIT_GUARD", str(4097 ** 2))
    assert len(getattr(parse(text), worlds)) == 4097


# ---------------------------------------------------------------------------
# modal context files
# ---------------------------------------------------------------------------

def test_modal_context_round_trip(tmp_path):
    model = parse_kripke(KRIPKE_FILE)
    mc = to_modal_context(model, formula_universe(("p",), depth=1))
    path = tmp_path / "m.mctx"
    path.write_text(render_modal_context(mc))
    loaded = load_modal_context(path)
    assert loaded == mc
    again = tmp_path / "m2.mctx"
    again.write_text(render_modal_context(loaded))
    assert path.read_text() == again.read_text()


def test_modal_context_random_round_trips(tmp_path):
    universe = formula_universe(("p", "q"), depth=1)
    for seed in range(6):
        model = gen_random_kripke(seed, 4, ("p", "q"), 0.5)
        mc = to_modal_context(model, universe)
        path = tmp_path / f"{seed}.mctx"
        path.write_text(render_modal_context(mc))
        assert load_modal_context(path) == mc


@functools.cache
def pq_universe(depth, cap):
    return formula_universe(("p", "q"), depth=depth, cap=cap)


@st.composite
def modal_contexts(draw):
    """`to_modal_context` of a model over p,q with at most four worlds, at
    depth and cap 0 or 1."""
    worlds = st.integers(1, 4).map(lambda n: [f"w{i}" for i in range(n)])
    model = draw(kripke_models(worlds=worlds, atoms=st.just(["p", "q"])))
    return to_modal_context(model, pq_universe(draw(st.integers(0, 1)), draw(st.integers(0, 1))))


@given(modal_contexts())
def test_modal_context_save_load_save_is_stable(mc):
    text = render_modal_context(mc)
    loaded = parse_modal_context(text)
    assert render_modal_context(loaded) == text
    assert loaded == mc


@settings(max_examples=40)
@given(atoms=st.lists(st.sampled_from(("p", "q", "r")), min_size=1, max_size=3, unique=True),
       depth=st.integers(0, 2), cap=st.integers(0, 1))
def test_a_universe_is_its_header(atoms, depth, cap):
    header = (tuple(atoms), depth, cap)
    universe, built = FormulaUniverse(*header), formula_universe(*header)
    assert universe == built and hash(universe) == hash(built)
    assert universe.texts == built.texts
    model = KripkeModel(("w0", "w1"), {("w0", "w1")}, {atoms[0]: {"w1"}})
    mc = to_modal_context(model, universe)
    reloaded = parse_modal_context(render_modal_context(mc))
    assert reloaded.universe == universe and reloaded == mc


@st.composite
def universe_headers(draw):
    """A universe line from good and bad field values, in any order, maybe
    with a field left out or one added.

    Cap stays at most 1 and depth at most 3, or 30: a depth of 30 is refused
    by the universe guard before any formula is built, but the depths in
    between pass that guard and cost seconds in the Boolean layers first.
    """
    fields = [
        "atoms=" + draw(st.sampled_from(["p", "p,q", "q,p", "p,p", "", "P", "p,,q", "p,q,r"])),
        "depth=" + draw(st.sampled_from(["0", "1", "2", "3", "30", "-1", "x", ""])),
        "cap=" + draw(st.sampled_from(["0", "1", "-1", "x", ""])),
    ]
    fields = draw(st.permutations(fields))
    if draw(st.booleans()):
        del fields[draw(st.integers(0, 2))]
    extra = draw(st.sampled_from([[], ["extra=1"], ["bare"], ["depth=0"]]))
    return " ".join(["universe", *fields, *extra])


@st.composite
def modal_context_texts(draw):
    mc = draw(modal_contexts())
    lines = render_modal_context(mc).splitlines()
    if draw(st.booleans()):
        lines[0] = draw(universe_headers())
    words = (*mc.world_names, "c9", "cworld", "cedge", "has", "universe", "p", "[]p", "#")
    return draw(mutated(lines, words, "pq~&|-><[]()=, c0"))


@settings(max_examples=300)
@given(modal_context_texts())
def test_modal_context_parser_raises_only_model_file_errors(text):
    try:
        parse_modal_context(text)
    except ModelFileError:
        pass


def loaded_by(parse, text):
    """The context parse loads from text, or the message and line of its error."""
    try:
        return parse(text)
    except ModelFileError as exc:
        return str(exc), exc.line_no


@settings(max_examples=300)
@given(modal_context_texts())
def test_modal_context_loader_agrees_with_the_line_by_line_reference(text):
    assert loaded_by(parse_modal_context, text) == loaded_by(
        oracles.reference_parse_modal_context, text)


@pytest.mark.parametrize("text, line_no, message", [
    ("universe atoms=p depth=0 cap=1\n  has p\ncworld c0\n", 2, "`has` before any cworld"),
    ("  has p\nuniverse atoms=p depth=0 cap=1\ncworld c0\n", 1,
     "universe header must come first"),
])
def test_a_canonical_has_line_outside_a_cworld_is_an_error(text, line_no, message):
    for parse in (parse_modal_context, oracles.reference_parse_modal_context):
        assert loaded_by(parse, text) == (f"<string>:{line_no}: {message}", line_no)


def test_modal_context_file_errors():
    with pytest.raises(ModelFileError, match="universe header"):
        parse_modal_context("cworld c0\n")
    with pytest.raises(ModelFileError, match="outside the declared universe"):
        parse_modal_context(
            "universe atoms=p depth=0 cap=1\ncworld c0\n  has [][]p\n"
        )
    with pytest.raises(ModelFileError, match="unknown cworld"):
        parse_modal_context(
            "universe atoms=p depth=0 cap=1\ncworld c0\ncedge c0 c9\n"
        )
    with pytest.raises(ModelFileError, match="syntax error"):
        parse_modal_context(
            "universe atoms=p depth=0 cap=1\ncworld c0\n  has p &\n"
        )
    with pytest.raises(ModelFileError, match="empty"):
        parse_modal_context("# nothing here\n")


def parse_every_has_line(text, parsed):
    """Reference loader: each `has` line through parse_formula, no lookup.

    parsed memoizes parse_formula by line text across calls.
    """
    theories, relation, current = {}, set(), None
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "cworld":
            current = parts[1]
            theories[current] = set()
        elif parts[0] == "has":
            rest = line.split("has", 1)[1]
            if rest not in parsed:
                parsed[rest] = parse_formula(rest)
            theories[current].add(parsed[rest])
        elif parts[0] == "cedge":
            relation.add((parts[1], parts[2]))
    return {w: frozenset(fs) for w, fs in theories.items()}, relation


def modal_context_cases():
    """Every shape of the 200-model acceptance corpus (1-5 worlds, four
    densities, p,q at depths 0-2: seeds 0-59 meet each combination once),
    plus cap 0 and a three-atom universe."""
    universes = [formula_universe(("p", "q"), depth=d) for d in (0, 1, 2)]
    for seed in range(60):
        model = gen_random_kripke(seed, seed % 5 + 1, ("p", "q"), (0.0, 0.3, 0.7, 1.0)[seed % 4])
        yield model, universes[seed % 3]
    rng = random.Random(23)
    for universe in (formula_universe(("p", "q"), depth=2, cap=0),
                     formula_universe(("p", "q", "r"), depth=1)):
        for _ in range(10):
            yield corpus.random_kripke(rng, max_worlds=6, atoms=universe.atoms), universe


def test_modal_context_load_matches_parsing_every_line():
    parsed = {}
    for model, universe in modal_context_cases():
        mc = to_modal_context(model, universe)
        text = render_modal_context(mc)
        loaded = parse_modal_context(text)
        assert loaded == mc
        theories, relation = parse_every_has_line(text, parsed)
        assert {w: loaded.theory_at(w) for w in loaded.world_names} == theories
        assert loaded.relation == relation
        member_ids = {id(f) for f in loaded.universe.members}
        for w in loaded.world_names:
            assert all(id(f) in member_ids for f in loaded.theory_at(w))


def test_non_canonical_has_lines_load_to_equal_members():
    header = "universe atoms=p,q depth=1 cap=1\ncworld c0\n"
    canonical = parse_modal_context(header + "  has p\n  has ~[]p\n  has p & q\n")
    spelled = parse_modal_context(header + "  has (p)\n  has  ~ []p\n  has p&q\n")
    assert spelled == canonical
    p, q = Atom("p"), Atom("q")
    assert spelled.theory_at("c0") == {p, Not(Box(p)), And(p, q)}
    assert print_formula(And(p, q)) == "p & q"


@pytest.mark.parametrize("text, line_no, message", [
    ("universe atoms=p depth=0 cap=1\ncworld c0\n  has [][]p\n", 3,
     "formula '[][]p' is outside the declared universe"),
    ("universe atoms=p,q depth=1 cap=1\ncworld c0\n  has p\n  has (q) -> <>[]p\n", 4,
     "formula 'q -> <>[]p' is outside the declared universe"),
    ("universe atoms=p depth=0 cap=1\ncworld c0\n  has p &\n", 3,
     "syntax error at position 3: unexpected 'end of input'; "
     "expected one of: '(', '<>', '[]', 'false', 'true', '~', atom"),
    ("universe atoms=p,q depth=1 cap=1\ncworld c0\n  has p\n\n  has   q  &  (p\n", 5,
     "syntax error at position 8: unexpected 'end of input'; expected one of: ')'"),
])
def test_bad_has_lines_report_line_and_message(text, line_no, message):
    with pytest.raises(ModelFileError) as info:
        parse_modal_context(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"<string>:{line_no}: {message}"


@pytest.mark.parametrize("header, message", [
    ("universe atoms=p depth=x cap=1", "universe depth must be 1 to 4300 digits 0-9, got 'x'"),
    ("universe atoms=p depth=1 cap=x", "universe cap must be 1 to 4300 digits 0-9, got 'x'"),
    ("universe atoms=p depth= cap=1", "universe depth must be 1 to 4300 digits 0-9, got ''"),
    ("universe atoms=p depth=0 cap=-1", "universe cap must be 1 to 4300 digits 0-9, got '-1'"),
    # int() reads at most 4300 digits; the value is quoted to its first 16 characters
    ("universe atoms=p depth=0 cap=" + "0" * 4301,
     "universe cap must be 1 to 4300 digits 0-9, got '0000000000000000\u2026'"),
    ("universe atoms=p depth=" + "x" * 17 + " cap=1",
     "universe depth must be 1 to 4300 digits 0-9, got 'xxxxxxxxxxxxxxxx\u2026'"),
])
def test_bad_universe_counts_name_their_field(header, message):
    for parse in (parse_modal_context, oracles.reference_parse_modal_context):
        with pytest.raises(ModelFileError) as info:
            parse(header + "\ncworld c0\n")
        assert str(info.value) == f"<string>:1: {message}"


@pytest.mark.parametrize("header", [
    "universe atoms=p,q depth=1 cap=1 colour=red",
    "universe atoms=p,q depth=1",
    "universe atoms=p depth=1 cap=1 cap=1",
    "universe atoms=p depth=1 cap 1",
])
def test_a_universe_header_holds_exactly_its_three_keys(header):
    for parse in (parse_modal_context, oracles.reference_parse_modal_context):
        assert loaded_by(parse, header + "\ncworld c0\n") == (
            "<string>:1: expected `universe atoms=<list> depth=<d> cap=<k>`", 1)


@pytest.mark.parametrize("depth", (0, 1, 2))
@pytest.mark.parametrize("cap", (0, 1))
def test_printed_form_lookup_has_one_entry_per_member(depth, cap):
    universe = formula_universe(("p", "q"), depth=depth, cap=cap)
    assert len(universe._by_text) == len(universe)
    for i, (f, text) in enumerate(zip(universe.members, universe.texts)):
        assert print_formula(f) == text and universe.index_of(f) == i
    assert "(p)" not in universe._by_text  # printed forms only


def test_a_respaced_has_line_is_looked_up_without_building_a_node(monkeypatch):
    # atoms that no other test names, so no node over them is alive before
    model = KripkeModel(
        ("w0", "w1", "w2"),
        frozenset({("w0", "w1"), ("w1", "w2"), ("w2", "w2")}),
        {"respaced_a": frozenset({"w0", "w2"}), "respaced_b": frozenset({"w1"})},
    )
    text = render_modal_context(
        to_modal_context(model, formula_universe(("respaced_a", "respaced_b"), depth=1)))
    lines = text.splitlines()
    respaced = "".join(
        f"\thas   {line[len('  has '):]}\t# respaced\n" if line.startswith("  has ")
        else line + "\n"
        for line in lines
    )
    assert sum(line.startswith("  has ") for line in lines) > 100
    built = []
    intern = modal_logic._intern
    monkeypatch.setattr(modal_logic, "_intern",
                        lambda node, key, *rest: built.append(key) or intern(node, key, *rest))
    assert parse_modal_context(respaced) == parse_modal_context(text)
    assert built == []


@pytest.mark.parametrize("load", (load_context, load_kripke, load_modal_context))
def test_a_file_that_is_not_utf8_is_a_file_error_naming_the_path(load, tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\xffworld w0\n")
    with pytest.raises(ModelFileError) as err:
        load(path)
    assert (err.value.path, err.value.line_no) == (str(path), None)
    assert str(err.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                              "invalid start byte")


def byte_order_mark_samples():
    """(loader, canonical text) for each format."""
    model = gen_random_kripke(3, 4, ("p", "q"), 0.4)
    return (
        (load_context, render_context(gen_alice_bob(2))),
        (load_kripke, render_kripke(model)),
        (load_modal_context,
         render_modal_context(to_modal_context(model, formula_universe(("p", "q"), 1)))),
    )


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    for load, text in byte_order_mark_samples():
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load(marked) == load(plain), load.__name__
        # only one mark is dropped: a second one is the first line's text
        marked.write_bytes(b"\xef\xbb\xbf" * 2 + text.encode())
        with pytest.raises(ModelFileError) as err:
            load(marked)
        assert err.value.line_no == 1, load.__name__
    # an undecodable byte after the mark is still counted from the file's start
    path = tmp_path / "bad"
    path.write_bytes(b"\xef\xbb\xbfworld w0\n\xff")
    with pytest.raises(ModelFileError) as err:
        load_kripke(path)
    assert str(err.value) == (f"{path}: 'utf-8' codec can't decode byte 0xff in position 12: "
                              "invalid start byte")


# ---------------------------------------------------------------------------
# line ends
# ---------------------------------------------------------------------------

# the line breaks of `str.splitlines` that end no line of these formats
INLINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def code_point(char):
    return f"U+{ord(char):04X}"


def line_end_samples():
    """(parser, its line-by-line reference, canonical text) for each format."""
    model = gen_random_kripke(3, 4, ("p", "q"), 0.4)
    mc = to_modal_context(model, formula_universe(("p", "q"), 1))
    return (
        (parse_context, oracles.parse_context_tokenwise, ALICE_FILE),
        (parse_kripke, oracles.reference_parse_kripke, render_kripke(model)),
        (parse_modal_context, oracles.reference_parse_modal_context, render_modal_context(mc)),
    )


@pytest.mark.parametrize("char", INLINE_BREAKS, ids=code_point)
def test_a_comment_holding_a_line_break_of_splitlines_ends_at_its_line(char):
    for parse, reference, text in line_end_samples():
        first, rest = text.split("\n", 1)
        commented = f"# note {char} here\n{first} # {char} x\n{rest}"
        assert parse(commented) == parse(text), parse.__name__
        assert reference(commented) == reference(text), parse.__name__


@pytest.mark.parametrize("char", INLINE_BREAKS, ids=code_point)
def test_a_line_break_of_splitlines_is_whitespace_inside_a_line(char):
    for parse, reference, text in line_end_samples():
        spaced = text.replace(" ", char)
        assert parse(spaced) == parse(text), parse.__name__
        assert reference(spaced) == reference(text), parse.__name__


@pytest.mark.parametrize("end", ("\r\n", "\r"), ids=("crlf", "cr"))
def test_crlf_and_lone_cr_files_parse_as_their_lf_twin(end):
    for parse, reference, text in line_end_samples():
        assert parse(text.replace("\n", end)) == parse(text), parse.__name__
        assert reference(text.replace("\n", end)) == reference(text), parse.__name__


@pytest.mark.parametrize("char", INLINE_BREAKS, ids=code_point)
@pytest.mark.parametrize("parse, reference, text, line_no, message", [
    (parse_context, oracles.parse_context_tokenwise,
     "states: a\nentities: e\ntime: 0\n# note {} here\ninstance x:\n  e@0=zz\n", 6,
     "unknown state 'zz'"),
    (parse_kripke, oracles.reference_parse_kripke, "world a # {} x\nworld a\n", 2,
     "world 'a' declared twice"),
    (parse_modal_context, oracles.reference_parse_modal_context,
     "universe atoms=p depth=0 cap=1\n# {} x\ncworld c0\ncedge c0 c9\n", 4,
     "unknown cworld 'c9'"),
], ids=("ctx", "kr", "mctx"))
def test_an_error_after_such_a_comment_names_its_own_line(char, parse, reference, text, line_no,
                                                           message):
    # a line end read inside the comment would move the error down a line;
    # `\r\n` and a lone `\r` end a line as `\n` does
    for read, end in itertools.product((parse, reference), ("\n", "\r\n", "\r")):
        with pytest.raises(ModelFileError) as info:
            read(text.format(char).replace("\n", end), "f")
        assert (str(info.value), info.value.line_no) == (f"f:{line_no}: {message}", line_no)


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def test_file_digest_is_stable(tmp_path):
    path = tmp_path / "x"
    path.write_text("data")
    assert file_digest(path) == file_digest(path)
    assert len(file_digest(path)) == 12
