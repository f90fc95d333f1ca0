"""Every function and method the benchmark tracer wraps exists in burnside.

``perfbench/tracer.py`` patches the names in its ``SPANNED`` and
``COUNTED`` tables by attribute lookup, so deleting or renaming one of
them breaks ``perfbench/run.py --trace 1``. The tables are read from the
file's source, without importing or running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _table(name):
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not found in {TRACER}")


SPANNED = [(module, fn) for module, fns in _table("SPANNED").items() for fn in fns]
COUNTED = [entry[:3] for entry in _table("COUNTED")]


@pytest.mark.parametrize("module, fn", SPANNED,
                         ids=[f"{m}.{f}" for m, f in SPANNED])
def test_spanned_function_exists(module, fn):
    assert callable(getattr(importlib.import_module(f"burnside.{module}"), fn))


@pytest.mark.parametrize("module, cls, method", COUNTED,
                         ids=[f"{m}.{c}.{f}" for m, c, f in COUNTED])
def test_counted_method_exists(module, cls, method):
    owner = getattr(importlib.import_module(f"burnside.{module}"), cls)
    # the tracer reads the method from the class's own namespace
    assert callable(vars(owner)[method])


def test_tables_are_not_empty():
    assert len(SPANNED) > 10 and len(COUNTED) >= 4
