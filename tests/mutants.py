"""Committed mutants: each is a small fault that its selected tests must catch.

Run from anywhere with `python tests/mutants.py`. For each mutant in
`MUTANTS` it copies `src/` into a temporary directory, replaces the mutant's
old text (which must occur exactly once in its file) with the new text, and
runs the mutant's pytest node ids against the copy with `-x -q`. A mutant
survives when those tests pass. Before any mutant, one `pytest --collect-only`
run must list every selected node id, and all the selected tests must pass on
an unmutated copy. The run exits 2 naming each node id that collects no test,
exits 1 naming every survivor, and stops at once when an old text is missing
or ambiguous, since the table has then fallen behind the code. A fast path
with an oracle adds its mutants here. Not part of tier-1: one mutant costs one
pytest process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ctxkit
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MODAL = "tests/test_modal_context.py::"
# the quotient's columns against the frozenset evaluator, on the acceptance corpus
FROZENSET_FORM = MODAL + "test_columns_match_the_frozenset_form_on_the_acceptance_corpus"
# the .kr parser against its line-by-line reference
KRIPKE_REFERENCE = ("tests/test_formats.py::"
                    "test_kripke_loader_agrees_with_the_line_by_line_reference")
# every nonempty context of two small signatures against the oracles
SMALL_SCOPE = ("tests/test_small_scope.py::"
               "test_every_context_in_the_small_scopes_agrees_with_the_oracles")
# every Kripke model of two small scopes against the oracles, and the
# flipped copies of one scope's quotient contexts
KRIPKE_SMALL_SCOPE = ("tests/test_small_scope.py::"
                      "test_every_kripke_model_in_the_small_scopes_agrees_with_the_oracles")
# determinability verdicts and witnesses against the oracles
WITNESS_TESTS = (
    "tests/test_determinability.py::test_determinability_agrees_with_oracle_on_corpus",
    "tests/test_determinability.py::test_verdicts_and_witnesses_match_oracles_on_small_contexts",
    SMALL_SCOPE,
)
# determinism verdicts against the oracle
DETERMINISM_TESTS = (
    "tests/test_determinability.py::test_iterator_and_determinism_agree_with_oracles_on_corpus",
    "tests/test_determinability.py::test_verdicts_and_witnesses_match_oracles_on_small_contexts",
    SMALL_SCOPE,
)

# every extreme generator argv, each in a child process under an address-space limit
EXTREME_GEN = ("tests/test_cli.py::"
               "test_extreme_generator_arguments_are_refused_before_anything_is_built")

# each refusal of an extreme integer argument or guard is one short line
GUARD_MESSAGES = ("tests/test_cli.py::"
                  "test_guard_messages_format_for_every_integer_argparse_reads")

# each argparse refusal of a long or line-breaking word is one short last line
ARGPARSE_REFUSALS = "tests/test_cli.py::test_a_long_group_or_command_is_one_short_refusal"

# the pinned .ctx errors, and the pinned misplaced or nameless instance lines
CONTEXT_PINS = "tests/test_formats.py::test_context_parse_errors_are_pinned"
NAMELESS_PINS = ("tests/test_formats.py::"
                 "test_misplaced_headers_and_nameless_instances_are_pinned")

# gen random-ctx against random.Random(seed).randrange, cell by cell
RANDRANGE_ORACLE = ("tests/test_generators.py::"
                    "test_random_context_draws_every_cell_as_randrange_does")

# the pinned bytes of render_context, down to one entity and one time
RENDER_PINS = "tests/test_formats.py::test_render_context_bytes_are_pinned"

# the traced peak of a 5,000- and a 20,000-cell line
WIDE_LINE = "tests/test_formats.py::test_a_wide_cell_line_parses_in_memory_linear_in_its_cells"

# a one-line instance of 10,000 and of 160,000 cells, timed
WIDE_TIME = ("tests/test_formats.py::"
             "test_a_wide_cell_line_compiles_in_time_linear_in_its_cells")

# a .kr and a .mctx of 4,096 worlds load, and of 4,097 are refused on the last world line
WORLDS_GUARD = "tests/test_formats.py::test_a_model_file_past_the_worlds_guard_is_one_refusal"

# every formula of at most four nodes: one node each, built once, parsed back
SMALL_FORMULAS = ("tests/test_modal_logic.py::"
                  "test_every_formula_of_at_most_four_nodes_is_one_node")

# the library Evaluator's node walk against the oracle and the naive clauses
ORACLE_EVALUATOR = ("tests/test_modal_logic.py::"
                    "test_the_oracle_evaluator_agrees_with_the_naive_clauses_and_the_evaluator")

# both 1,024-world models at p,q depth 2: member masks, prover agreement and a flipped [] bit
AT_1024_WORLDS = (MODAL + "test_the_mask_evaluator_and_the_checks_agree_with_the_oracles_on_"
                  "1024_worlds")

MUTANTS = (
    Mutant(
        "_rule reads [] as <>",
        "modal_context.py",
        "mask = sum([bit for bit, succ in worlds if succ & inner == succ])",
        "mask = sum([bit for bit, succ in worlds if succ & inner])",
        (MODAL + "test_table_masks_are_the_evaluator_extensions", KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "the library Evaluator reads [] as <>",
        "modal_logic.py",
        "Box: lambda ev, a: ev.everywhere ^ ev.diamond(ev.everywhere ^ a),",
        "Box: lambda ev, a: ev.diamond(a),",
        ("tests/test_modal_logic.py::test_dual_law_and_k_axiom_on_corpus",
         ORACLE_EVALUATOR, AT_1024_WORLDS),
    ),
    Mutant(
        "the Evaluator's predecessor masks are built as successor masks",
        "modal_logic.py",
        "before[k] |= 1 << j",
        "before[j] |= 1 << k",
        (ORACLE_EVALUATOR, AT_1024_WORLDS, MODAL + "test_prover_agreement_is_the_by_hand_loop"),
    ),
    Mutant(
        "the member-row walk reads arg[0] for both sides of &",
        "modal_logic.py",
        "[masks[i] for i in arg]",
        "[masks[arg[0]] for i in arg]",
        (AT_1024_WORLDS, MODAL + "test_prover_agreement_is_the_by_hand_loop"),
    ),
    Mutant(
        "the check table fills from its own masks",
        "modal_context.py",
        "masks = out if stored is None else stored",
        "masks = out",
        (MODAL + "test_mutated_contexts_report_the_frozenset_violations",
         MODAL + "test_hand_built_contexts_check_like_the_frozenset_form",
         "tests/test_cli.py::test_modal_check_context_prints_the_pinned_violation_report",
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "windowed partner test without its first half",
        "determinability.py",
        "if len(upto(time_of[u])) > 1 or any(",
        "if any(",
        WITNESS_TESTS,
    ),
    Mutant(
        "windowed partner test without its second half",
        "determinability.py",
        "at(s) != {cut_to(u, s)} for s in times if s > time_of[u]))",
        "False for s in times if s > time_of[u]))",
        WITNESS_TESTS,
    ),
    Mutant(
        "windowed partner test reads <= s as < s",
        "determinability.py",
        "for v in nodes if time_of[v] <= s}",
        "for v in nodes if time_of[v] < s}",
        WITNESS_TESTS,
    ),
    Mutant(
        "lazy upto set cached under the wrong time",
        "determinability.py",
        "upto = cache(lambda s: {cut_to(v, s)",
        "upto = lambda s, memo={}: memo.setdefault(times[0], {cut_to(v, s)",
        WITNESS_TESTS,
    ),
    Mutant(
        "the trie records every node's first instance as the first row",
        "determinability.py",
        "first.append(pos)",
        "first.append(0)",
        WITNESS_TESTS,
    ),
    Mutant(
        "the conflict stores the trie's first snapshot",
        "determinability.py",
        "self.snaps[self.snap_of[a]], (self.occurrence(a)",
        "self.snaps[0], (self.occurrence(a)",
        WITNESS_TESTS + DETERMINISM_TESTS[:1],
    ),
    Mutant(
        "literal mode takes the last node",
        "determinability.py",
        "x = nodes[0]",
        "x = nodes[-1]",
        WITNESS_TESTS,
    ),
    Mutant(
        "determinism read off the final snapshots",
        "determinability.py",
        "{row[::n] for row in ctx.rows}",
        "{row[n - 1::n] for row in ctx.rows}",
        DETERMINISM_TESTS,
    ),
    Mutant(
        "parser rows not sorted",
        "formats.py",
        "rows = tuple(sorted(first_name))",
        "rows = tuple(first_name)",
        ("tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference",
         "tests/test_formats.py::test_parsed_contexts_equal_the_checked_constructor"),
    ),
    Mutant(
        "consistency_context passes its kept rows reversed",
        "core.py",
        "return Context.from_sorted_rows(sig, tuple(kept))",
        "return Context.from_sorted_rows(sig, tuple(kept[::-1]))",
        ("tests/test_core.py::test_consistency_laws_on_random_corpus",
         "tests/test_recorded_bytes.py::"
         "test_context_commands_print_the_recorded_bytes[timelines-200-26]"),
    ),
    Mutant(
        "the leaf route ignores leftover words",
        "cli.py",
        "        if not rest:\n            return args\n",
        "        return args\n",
        ("tests/test_cli.py::test_leaf_route_parses_as_the_parser_tree_does",),
    ),
    Mutant(
        "requotient_is_identity always answers yes",
        "modal_context.py",
        "return mc._held == list(mc.columns)",
        "return True",
        (MODAL + "test_requotient_check_is_the_second_quotient_on_the_acceptance_corpus",
         MODAL + "test_requotient_check_is_the_second_quotient_on_hand_built_contexts",
         MODAL + "test_a_requotient_fixed_point_is_a_modal_context",
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "the parse_context memo drops its given-twice test",
        "formats.py",
        "        if filled & mask:\n            clash(",
        "        if False:\n            clash(",
        ("tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference",),
    ),
    Mutant(
        "a compiled line misses a cell given twice on one line",
        "formats.py",
        "if digits.count(49) < len(positions):",
        "if False:",
        ("tests/test_formats.py::test_context_parse_errors_carry_line_numbers",
         "tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference"),
    ),
    Mutant(
        "a canonical has line is taken before any world line",
        "formats.py",
        "if i is not None and bit:",
        "if i is not None:",
        ("tests/test_formats.py::"
         "test_modal_context_loader_agrees_with_the_line_by_line_reference",),
    ),
    Mutant(
        "a respaced has line is parsed, not looked up",
        "formats.py",
        'i = canonical.get("  has " + written)',
        "i = None",
        ("tests/test_formats.py::"
         "test_a_respaced_has_line_is_looked_up_without_building_a_node",),
    ),
    Mutant(
        "decode keeps a leading byte-order mark",
        "formats.py",
        'return text.removeprefix("\\ufeff")',
        "return text",
        ("tests/test_formats.py::test_a_leading_byte_order_mark_is_dropped",
         "tests/test_cli.py::test_a_byte_order_mark_changes_only_the_input_digest"),
    ),
    Mutant(
        "load_kripke back on read_text()",
        "formats.py",
        "return parse_kripke(decode(Path(path).read_bytes(), path), path)",
        "return parse_kripke(Path(path).read_text(), path)",
        ("tests/test_formats.py::test_a_file_that_is_not_utf8_is_a_file_error_naming_the_path"
         "[load_kripke]",),
    ),
    Mutant(
        "_classes groups worlds by their first member only",
        "modal_context.py",
        "rows = _rows(table, len(worlds))",
        "rows = [row[:1] for row in _rows(table, len(worlds))]",
        (MODAL + "test_quotient_soundness_via_naive_satisfaction", FROZENSET_FORM,
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "_classes starts a fresh memo on every call",
        "modal_context.py",
        'memo = vars(model).setdefault("_quotients", {})',
        "memo = {}",
        (MODAL + "test_verify_theorem_builds_one_extension_table_and_one_model",),
    ),
    Mutant(
        "_rows reads a byte's bits in reverse",
        "modal_context.py",
        "rows += [plane.translate(_BIT[b]) for b in",
        "rows += [plane.translate(_BIT[7 - b]) for b in",
        (MODAL + "test_quotient_distinct_theories_gives_singletons", FROZENSET_FORM,
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "_columns reads rows big-endian",
        "modal_context.py",
        'plane += int.from_bytes(row, "little") << b',
        'plane += int.from_bytes(row, "big") << b',
        (MODAL + "test_representation_single_world", FROZENSET_FORM,
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "_columns starts each byte plane at 1",
        "modal_context.py",
        "        plane = 0\n",
        "        plane = 1\n",
        (MODAL + "test_rows_and_columns_are_the_bitwise_transposition",),
    ),
    Mutant(
        "the class lift ORs into the wrong class",
        "modal_context.py",
        "reach[k] |= succ",
        "reach[of[k]] |= succ",
        (FROZENSET_FORM,),
    ),
    Mutant(
        "from_masks skips its range check",
        "modal_context.py",
        "any(m < 0 or m >> len(names) for m in successors)",
        "False",
        (MODAL + "test_modal_context_validation",),
    ),
    Mutant(
        "prover agreement skips the representation check",
        "modal_context.py",
        "    class_world_map(model, mc)  # refuses a world with no carrier\n",
        "",
        (MODAL + "test_prover_agreement_is_the_by_hand_loop", KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "carriers come in class order, not model order",
        "modal_context.py",
        "return [by_row.get(classes.rows[k]) for k in classes.of]",
        "return [by_row.get(row) for row in classes.rows]",
        (MODAL + "test_carriers_store_the_naive_theories", KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "the universe renumbering swaps binary children",
        "modal_logic.py",
        "(place[arg[0]], place[arg[1]])",
        "(place[arg[1]], place[arg[0]])",
        ("tests/test_modal_logic.py::test_member_table_matches_the_node_and_sort_reference",
         FROZENSET_FORM, KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "a round counts every pair",
        "modal_logic.py",
        "n * n - known * known",
        "n * n",
        ("tests/test_modal_logic.py::test_a_later_boolean_round_is_refused_on_its_exact_size",
         "tests/test_modal_logic.py::test_member_table_matches_the_node_and_sort_reference"),
    ),
    Mutant(
        "only the first round is checked",
        "modal_logic.py",
        "        check_guard(len(grown) + len(_BINARY) * (n * n - known * known),\n"
        '                    DEFAULT_UNIVERSE_GUARD, "formula universe")\n',
        "",
        ("tests/test_modal_logic.py::test_a_later_boolean_round_is_refused_on_its_exact_size",
         "tests/test_modal_logic.py::test_member_table_matches_the_node_and_sort_reference"),
    ),
    Mutant(
        "the interning key drops the kind",
        "modal_logic.py",
        "key = (cls,) + fields",
        "key = fields",
        (SMALL_FORMULAS, KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "an atom's children are its fields",
        "modal_logic.py",
        '_set(node, "children", () if cls is Atom else fields)',
        '_set(node, "children", fields)',
        (SMALL_FORMULAS, KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "a live node is built again",
        "modal_logic.py",
        "return _intern(cls, key, fields) if node is None else node",
        "return _intern(cls, key, fields)",
        (SMALL_FORMULAS,),
    ),
    Mutant(
        "the interning table holds its nodes strongly",
        "modal_logic.py",
        "_NODES: weakref.WeakValueDictionary[tuple, Formula] = weakref.WeakValueDictionary()",
        "_NODES: dict[tuple, Formula] = {}",
        ("tests/test_modal_logic.py::test_unreferenced_nodes_leave_the_table",),
    ),
    Mutant(
        "world_theory reads world 0's bit for every world",
        "modal_logic.py",
        "if mask >> j & 1)",
        "if mask & 1)",
        ("tests/test_modal_logic.py::"
         "test_theories_match_the_frozenset_extensions_on_the_acceptance_models",),
    ),
    Mutant(
        "successor_masks reads a one-shot relation twice",
        "modal_logic.py",
        "    relation = list(relation)\n",
        "",
        ("tests/test_modal_logic.py::"
         "test_a_generator_of_pairs_builds_the_model_of_the_set_it_yields",),
    ),
    Mutant(
        "successor masks built transposed",
        "formats.py",
        "successors[args[0]] |= bit[args[1]]",
        "successors[args[1]] |= bit[args[0]]",
        (KRIPKE_REFERENCE, "tests/test_formats.py::test_kripke_save_load_round_trip",
         KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "the .mctx parser stores a cedge transposed",
        "formats.py",
        "successors[parts[1]] |= bits[parts[2]]",
        "successors[parts[2]] |= bits[parts[1]]",
        ("tests/test_formats.py::"
         "test_modal_context_loader_agrees_with_the_line_by_line_reference", KRIPKE_SMALL_SCOPE),
    ),
    Mutant(
        "the .kr parser skips its endpoint check",
        "formats.py",
        "            for name in args:\n"
        "                if name not in bit:\n"
        "                    raise ModelFileError(source, line_no, f\"unknown world {brief(name)}\")\n",
        "",
        (KRIPKE_REFERENCE,),
    ),
    Mutant(
        "a collapsed duplicate keeps no name",
        "formats.py",
        "                    row = named[name] = tuple(cells)\n",
        "                    row = tuple(cells)\n"
        "                    if row not in first_name:\n"
        "                        named[name] = row\n",
        ("tests/test_cli.py::test_consistency_reads_a_duplicate_by_its_own_name",
         "tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference"),
    ),
    Mutant(
        "the fast instance case skips the reused-name check",
        "formats.py",
        "if new in named:",
        "if new in named and raw[:9] != \"instance \":",
        (CONTEXT_PINS,
         "tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference"),
    ),
    Mutant(
        "the fast instance case drops its # test",
        "formats.py",
        ' and "#" not in raw and sig is not None:',
        " and sig is not None:",
        (NAMELESS_PINS,),
    ),
    Mutant(
        "the inline close skips the missing-cell check",
        "formats.py",
        "if filled != full:",
        "if False:",
        (CONTEXT_PINS,
         "tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference"),
    ),
    Mutant(
        "a cell token's position comes from its state index",
        "formats.py",
        "positions.append(cell[0])",
        "positions.append(cell[1])",
        ("tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference",
         "tests/test_formats.py::test_context_save_load_round_trip"),
    ),
    Mutant(
        "a contiguous line's mask misses its last cell",
        "formats.py",
        "(1 << hi) - (1 << lo)",
        "(1 << hi - 1) - (1 << lo)",
        ("tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference",
         "tests/test_formats.py::test_context_save_load_round_trip"),
    ),
    Mutant(
        "a scattered line's mask reads its digits unreversed",
        "formats.py",
        "int(digits[::-1], 2)",
        "int(digits, 2)",
        ("tests/test_formats.py::test_parse_context_agrees_with_tokenwise_reference",),
    ),
    Mutant(
        "the token memo keeps the bit",
        "formats.py",
        "cell = cell_of[token] = (k, i)",
        "cell = cell_of[token] = (k, i, 1 << k)",
        (WIDE_LINE,),
    ),
    Mutant(
        "each token's bit is tested and set in a running mask again",
        "formats.py",
        "                    positions.append(cell[0])\n",
        "                    bit = 1 << cell[0]\n"
        "                    if (seen if positions else filled) & bit:\n"
        "                        raise ModelFileError(source, line_no, 'given twice')\n"
        "                    seen = (seen if positions else filled) | bit\n"
        "                    positions.append(cell[0])\n",
        (WIDE_TIME,),
    ),
    Mutant(
        "the error path does not look for an earlier cell given twice",
        "formats.py",
        "                clash(filled, positions, line_no)\n                raise\n",
        "                raise\n",
        (CONTEXT_PINS,),
    ),
    Mutant(
        "the rescan misses a cell given twice within its line",
        "formats.py",
        "if k in line or held[k : k + 1] == \"1\":",
        "if held[k : k + 1] == \"1\":",
        (CONTEXT_PINS,),
    ),
    Mutant(
        "the render memo is shared across entities",
        "formats.py",
        "        line: dict[Row, str] = {}  # this entity's line of each distinct slice\n",
        "        line = line if ei else {}\n",
        (RENDER_PINS,),
    ),
    Mutant(
        "the Kripke file guard counts worlds, not worlds squared",
        "formats.py",
        "            if len(bit) ** 2 > guard:",
        "            if len(bit) > guard:",
        (WORLDS_GUARD + "[.kr]",),
    ),
    Mutant(
        "the modal context file guard lets one cworld more through",
        "formats.py",
        "            if len(names) ** 2 > guard:",
        "            if (len(names) - 1) ** 2 > guard:",
        (WORLDS_GUARD + "[.mctx]",),
    ),
    Mutant(
        "the alice-bob guard runs after the signature is built",
        "generators.py",
        "    check_full_space_guard(2, 2, horizon)\n"
        "    sig = Signature(\n"
        "        (\"Home\", \"Out\"),\n"
        "        (\"Alice\", \"Bob\"),\n"
        "        tuple(str(t) for t in range(horizon)),\n"
        "    )\n",
        "    sig = Signature(\n"
        "        (\"Home\", \"Out\"),\n"
        "        (\"Alice\", \"Bob\"),\n"
        "        tuple(str(t) for t in range(horizon)),\n"
        "    )\n"
        "    check_full_space_guard(2, 2, horizon)\n",
        (EXTREME_GEN,),
    ),
    Mutant(
        "a rejected draw is not drawn again",
        "generators.py",
        "        while i >= n_states:\n",
        "        if i >= n_states:\n",
        (RANDRANGE_ORACLE,),
    ),
    Mutant(
        "the draw width is the bit length of the largest state index",
        "generators.py",
        "n_states.bit_length(), []",
        "(n_states - 1).bit_length(), []",
        (RANDRANGE_ORACLE,),
    ),
    Mutant(
        "random-ctx guards the draws only",
        "generators.py",
        "check_guard(n_states + n_entities + n_times, DEFAULT_SPACE_GUARD,",
        "check_guard(0, DEFAULT_SPACE_GUARD,",
        (EXTREME_GEN,),
    ),
    Mutant(
        "SizeGuardError prints the guard in decimal",
        "core.py",
        'f"{shown[1]}; set {GUARD_ENV_VAR} to raise it")',
        'f"{guard}; set {GUARD_ENV_VAR} to raise it")',
        (GUARD_MESSAGES,),
    ),
    Mutant(
        "the random-ctx draw guard text echoes its arguments",
        "generators.py",
        'DEFAULT_SPACE_GUARD, "random context draws")',
        'DEFAULT_SPACE_GUARD,\n'
        '                f"random context of {count} instances over {n_entities} entities")',
        (GUARD_MESSAGES,),
    ),
    Mutant(
        "gen random-ctx defaults to four states",
        "cli.py",
        'p.add_argument("--states", type=int, default=3)',
        'p.add_argument("--states", type=int, default=4)',
        ("tests/test_cli.py::test_every_default_is_the_one_written_out",),
    ),
    Mutant(
        "check-determinable reads a witness as yes",
        "cli.py",
        '("verdict", "yes" if witness is None else "no")',
        '("verdict", "yes" if witness else "no")',
        ("tests/test_cli.py::test_check_determinable_literal_no_with_witness",),
    ),
    Mutant(
        "verify-theorem reads violations as yes",
        "cli.py",
        "conditions = not violations",
        "conditions = violations is not None",
        ("tests/test_cli.py::test_verify_theorem_says_no_to_a_context_that_breaks_the_conditions",),
    ),
    Mutant(
        "error passes argparse's message through uncut",
        "cli.py",
        "data[:200]",
        "data",
        (ARGPARSE_REFUSALS,),
    ),
    Mutant(
        "the cut keeps a word's line break",
        "cli.py",
        '" ".join(message.splitlines())',
        "message",
        (ARGPARSE_REFUSALS,),
    ),
    Mutant(
        "_report drops the blank line before the human section",
        "cli.py",
        'return text + "\\n" + human if human else text',
        "return text + human",
        ("tests/test_cli.py::test_modal_check_context_prints_the_pinned_violation_report",
         "tests/test_recorded_bytes.py::"
         "test_context_commands_print_the_recorded_bytes[timelines-200-26]"),
    ),
    Mutant(
        "cli_dispatch writes the report twice",
        "cli.py",
        "        sys.stdout.write(report)\n",
        "        sys.stdout.write(report)\n        sys.stdout.write(report)\n",
        ("tests/test_cli.py::test_each_command_writes_its_whole_report_in_one_call",),
    ),
    Mutant(
        "the symbol rule bars ASCII whitespace only",
        "core.py",
        'r"[\\s@=;,#]"',
        'r"[ \\t\\n\\r\\f\\v@=;,#]"',
        ("tests/test_core.py::test_a_symbol_is_refused_for_whitespace_or_a_reserved_character",),
    ),
    Mutant(
        "generators reads a modal attribute at import",
        "generators.py",
        "from ctxkit import modal_logic\n",
        "from ctxkit import modal_logic\nmodal_logic.KripkeModel\n",
        ("tests/test_cli.py::test_context_and_gen_commands_run_no_modal_module",),
    ),
)


def apply(src: Path, mutant: Mutant) -> None:
    """Write the mutant into the copy at src; refuse an old text that does
    not occur exactly once."""
    path = src / "ctxkit" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"mutant {mutant.name!r}: its old text occurs {count} times in {mutant.file}, "
            "not once; update the table"
        )
    path.write_text(text.replace(mutant.old, mutant.new))


def selected() -> list[str]:
    """Every node id the table selects, each once, in table order."""
    return list(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))


def run_pytest(src: Path, *args: str) -> subprocess.CompletedProcess:
    """One quiet pytest run from the repository root against the sources at src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={src}", *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )


def unlisted(listing: str, tests: Sequence[str]) -> list[str]:
    """The node ids among tests that name no test of a `--collect-only -q`
    listing: neither a listed id nor a parametrised test's function."""
    lines = listing.splitlines()
    return [t for t in tests if t not in lines and not any(
        line.startswith(t + "[") for line in lines)]


def uncollected(src: Path, tests: Sequence[str]) -> list[str]:
    """The node ids among tests that collect no test, from one collection
    run over them. pytest lists nothing when an id matches no test, so the
    ids are then looked up in a collection run over their files."""
    result = run_pytest(src, "--collect-only", *tests)
    if result.returncode != 0:
        files = dict.fromkeys(t.partition("::")[0] for t in tests)
        result = run_pytest(src, "--collect-only", *files)
    return unlisted(result.stdout, tests)


def passes(src: Path, tests: Sequence[str]) -> bool:
    """Do the tests pass against the sources at src?"""
    result = run_pytest(src, "-x", *tests)
    if result.returncode not in (0, 1):  # 1: tests failed; anything else: no run
        raise SystemExit(f"pytest exited {result.returncode} on {' '.join(tests)}\n"
                         + result.stdout + result.stderr)
    return result.returncode == 0


def copy_src(workdir: Path) -> Path:
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="ctxkit-mutants-") as tmp:
        every_test, src = selected(), copy_src(Path(tmp))
        missing = uncollected(src, every_test)
        if missing:
            print("these node ids collect no test; update the table:", *missing, sep="\n  ")
            return 2
        # a killed mutant means something only if its tests pass without it
        if not passes(src, every_test):
            raise SystemExit("the selected tests fail on the unmutated sources")
        for mutant in MUTANTS:
            src = copy_src(Path(tmp))
            apply(src, mutant)
            alive = passes(src, mutant.tests)
            print(f"{'SURVIVED' if alive else 'killed  '}  {mutant.name}", flush=True)
            if alive:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: " + "; ".join(survivors))
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
