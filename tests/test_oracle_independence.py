"""The references in `tests/oracles.py`, and the checkers in
`tests/certificates.py`, stay independent of the code they check.

A reference that imports the function it stands in for checks that function
against itself, so a mutant of the function passes both. This test reads each
module with `ast` and fails when a reference can reach a name it is the
reference for: through a module-level import, through an import of its own,
through an attribute of an imported module, or through another function or
class of the same module that it names.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"
CERTIFICATES = ORACLES.with_name("certificates.py")

# reference -> the ctxkit names it is the reference for
FORBIDDEN = {
    "parse_context_tokenwise": {"parse_context", "_lines"},
    "reference_parse_modal_context": {"parse_modal_context", "_lines"},
    "reference_parse_kripke": {"parse_kripke", "KripkeModel", "from_masks", "_lines"},
    "reference_universe": {"formula_universe", "_member_table", "_base_counts",
                           "print_formula", "_part"},
    "frozenset_extensions": {"Evaluator", "satisfies", "_MASK_RULES", "diamond",
                             "member_masks", "extension_table", "_rule"},
    "reference_requotient": {"_rule", "extension_table", "to_modal_context",
                             "requotient_is_identity", "Evaluator", "satisfies", "_MASK_RULES"},
}

# certificate checker -> the determinability names whose answers it checks
CERTIFIED = {"_Trie", "is_determinable", "extract_iterator"}
CHECKERS = {name: CERTIFIED for name in ("windowed_yes", "literal_yes", "determinability_no",
                                          "iterator_conflict")}


def _imported(statement: ast.Import | ast.ImportFrom) -> set[str]:
    """The names an import statement brings in: each imported name, and
    each module path's parts for a plain `import`."""
    if isinstance(statement, ast.ImportFrom):
        return {alias.name for alias in statement.names}
    return {part for alias in statement.names for part in alias.name.split(".")}


def _reached(name: str, definitions: dict[str, ast.AST]) -> set[str]:
    """The names the definition of name, and every oracle definition it
    names, imports or reads as an attribute."""
    reached: set[str] = set()
    todo, seen = [name], {name}
    while todo:
        for node in ast.walk(definitions[todo.pop()]):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _imported(node)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in definitions and node.id not in seen:
                seen.add(node.id)
                todo.append(node.id)
    return reached


def assert_independent(path, forbidden_by_name):
    tree = ast.parse(path.read_text())
    module_level = set().union(*[_imported(node) for node in tree.body
                                 if isinstance(node, (ast.Import, ast.ImportFrom))])
    definitions = {node.name: node for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for name, forbidden in forbidden_by_name.items():
        assert name in definitions, f"{path.name} has no {name}"
        leaks = (module_level | _reached(name, definitions)) & forbidden
        assert not leaks, f"{name} reaches {sorted(leaks)}, the code it is the reference for"


def test_no_reference_imports_the_code_it_checks():
    assert_independent(ORACLES, FORBIDDEN)


def test_no_certificate_checker_reads_the_analysis_it_checks():
    assert_independent(CERTIFICATES, CHECKERS)
