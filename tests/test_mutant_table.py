"""The mutant table in `tests/mutants.py` keeps up with the code it mutates.

Running the mutants costs one pytest process each, so it stays out of the
default suite. An edit to `src/` can still leave a mutant's old text missing
or doubled, or rename a test that a mutant selects; these checks read the
table and the files only, and see that at once.
"""

import ast

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once_in_its_file():
    for mutant in MUTANTS:
        text = (ROOT / "src" / "ctxkit" / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name


def test_each_selected_node_id_names_a_test_function_of_its_file():
    functions = {}  # test file -> the names of its module-level functions
    for mutant in MUTANTS:
        for node_id in mutant.tests:
            path, _, name = node_id.partition("::")
            if path not in functions:
                tree = ast.parse((ROOT / path).read_text())
                functions[path] = {node.name for node in tree.body
                                   if isinstance(node, ast.FunctionDef)}
            name = name.partition("[")[0]  # a parametrised id names its function
            assert name.startswith("test_") and name in functions[path], (mutant.name, node_id)
