"""ctxkit: finite contexts over entities and time, and their modal-logic face.

The library models sets of timelines (contexts), decides determinability,
extracts iterators, and compiles Kripke models into modal contexts via a
theory quotient.
"""

from ctxkit.core import (
    Context,
    Instance,
    Signature,
    SizeGuardError,
    Snapshot,
    build_full_space,
    consistency_context,
    curry_entity,
    curry_time,
    restrict,
    uncurry_entity,
    uncurry_time,
)
from ctxkit.determinability import (
    DeterminabilityReport,
    DeterminabilityWitness,
    IteratorConflict,
    IteratorExtraction,
    IteratorMap,
    extract_iterator,
    generate_from_iterator,
    has_iterator,
    is_determinable,
    is_deterministic,
    render_iterator_map,
)
from ctxkit.modal_logic import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Bottom,
    Box,
    Diamond,
    Evaluator,
    Formula,
    FormulaSyntaxError,
    FormulaUniverse,
    Iff,
    Implies,
    KripkeModel,
    Not,
    Or,
    Top,
    check_modal_operator,
    closure_universe,
    formula_universe,
    modal_depth,
    parse_formula,
    print_formula,
    satisfies,
    world_theory,
)
from ctxkit.modal_context import (
    ModalContext,
    ModalContextReport,
    ModalViolation,
    WorldClass,
    class_world_map,
    is_modal_context,
    prove_in_context,
    quotient,
    to_modal_context,
    verify_representation,
)
from ctxkit.generators import (
    gen_alice_bob,
    gen_alice_bob_odd,
    gen_minigame,
    gen_random_context,
    gen_random_kripke,
)
from ctxkit.formats import (
    LoadedContext,
    ModelFileError,
    load_context,
    load_kripke,
    load_modal_context,
    render_context,
    render_kripke,
    render_modal_context,
    save_context,
    save_kripke,
    save_modal_context,
)

__version__ = "0.1.0"
