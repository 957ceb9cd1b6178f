"""ctxkit: finite contexts over entities and time, and their modal-logic face.

The library models sets of timelines (contexts), decides determinability,
extracts iterators, and compiles Kripke models into modal contexts via a
theory quotient.

The modal modules are registered here but run on first use: `modal_logic`
and `modal_context` sit in `sys.modules` as lazy modules whose code runs at
the first attribute read, and the modal names below resolve through the
module `__getattr__`. Only this module knows that: the CLI, `formats` and
`generators` hold the two module objects and read their attributes only in
modal functions, so a context or generator command compiles neither.
"""

import importlib.util
import sys


def _lazy_module(name: str):
    """Register the module `name` in sys.modules, to run on first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# above every submodule import: `generators` and `formats` take these module
# objects at their own import, which would otherwise run the modal modules
modal_logic = _lazy_module("ctxkit.modal_logic")
modal_context = _lazy_module("ctxkit.modal_context")

from ctxkit.core import (
    Context,
    Instance,
    Signature,
    SizeGuardError,
    Snapshot,
    build_full_space,
    consistency_context,
    restrict,
)
from ctxkit.determinability import (
    SnapshotConflict,
    extract_iterator,
    generate_from_iterator,
    is_determinable,
    is_deterministic,
    render_iterator_map,
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
)

__version__ = "0.1.0"

_MODAL_NAMES = {
    "modal_logic": (
        "BOTTOM", "TOP", "And", "Atom", "Bottom", "Box", "Diamond", "Evaluator", "Formula",
        "FormulaSyntaxError", "FormulaUniverse", "Iff", "Implies", "KripkeModel", "Not", "Or",
        "Top", "formula_universe",
        "parse_formula", "print_formula", "satisfies", "world_theory",
    ),
    "modal_context": (
        "ModalContext", "ModalViolation",
        "class_world_map", "is_modal_context", "prove_in_context", "quotient",
        "to_modal_context", "verify_representation",
    ),
}
_MODAL_HOME = {name: module for module, names in _MODAL_NAMES.items() for name in names}


def __getattr__(name: str):
    home = _MODAL_HOME.get(name)
    if home is None:
        raise AttributeError(f"module 'ctxkit' has no attribute {name!r}")
    return getattr(globals()[home], name)
