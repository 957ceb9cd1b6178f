"""The mutant table in `tests/mutants.py` keeps up with the code it mutates.

Running the mutants costs one pytest process each, so it stays out of the
default suite. An edit to `src/` can still leave a mutant's old text missing
or doubled, or rename a test that a mutant selects; these checks read the
table and the files, and collect the selected tests once, and see that at once.
"""

from mutants import MUTANTS, ROOT, run_pytest, selected, unlisted


def test_each_old_text_occurs_once_in_its_file():
    for mutant in MUTANTS:
        text = (ROOT / "src" / "ctxkit" / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name


def test_one_collection_run_lists_every_selected_node_id():
    tests = selected()
    result = run_pytest(ROOT / "src", "--collect-only", *tests)
    assert result.returncode == 0, result.stdout + result.stderr
    assert unlisted(result.stdout, tests) == []
