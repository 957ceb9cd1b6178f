"""The benchmark's traced run rebinds ctxkit functions by name.

`perfbench/tracing.py` lists them in its `SPANNED` and `HOT` tables and looks
each one up with `getattr` when a traced run starts, so renaming or deleting
one breaks `perfbench/run.py --trace 1`. This test catches that in the suite.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    checked = 0
    for table in (tracing.SPANNED, tracing.HOT):
        for module_name, names in table.items():
            owner_module = importlib.import_module(f"ctxkit.{module_name}")
            for name in names:
                owner = owner_module
                for part in name.split("."):  # a method resolves through its class
                    assert hasattr(owner, part), f"ctxkit.{module_name} has no {name}"
                    owner = getattr(owner, part)
                assert callable(owner), f"ctxkit.{module_name}.{name} is not callable"
                checked += 1
    assert checked, "the tracer lists no names"
