"""Every module-level function and class in ``src/burnside`` is program code.

A definition belongs in the package if ``src/`` refers to it outside its
own definition, if the package root exports it (``burnside.__all__``), or
if ``perfbench/tracer.py`` wraps it by name (its ``SPANNED`` table, read as
``test_tracer_names`` reads it). Anything else is called by tests alone and
belongs in ``tests/oracles.py``. The sources are parsed, not imported.
"""

import ast
from pathlib import Path

import burnside

from test_tracer_names import SPANNED

SRC = Path(__file__).resolve().parent.parent / "src" / "burnside"


def _names(node) -> set[str]:
    """Every name and attribute name that appears under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _definitions():
    """(module, name, names used by the rest of src/) per definition."""
    bodies = {
        path.stem: ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(SRC.glob("*.py"))
    }
    statements = [(module, s) for module, body in bodies.items() for s in body]
    used = [_names(s) for _, s in statements]
    for i, (module, s) in enumerate(statements):
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            rest = set().union(*used[:i], *used[i + 1:])
            yield module, s.name, rest


def test_every_definition_has_a_program_use():
    exported = set(burnside.__all__)
    wrapped = set(SPANNED)
    definitions = list(_definitions())
    assert len(definitions) > 50
    unused = [
        f"{module}.{name}"
        for module, name, rest in definitions
        if name not in rest and name not in exported and (module, name) not in wrapped
    ]
    assert unused == []
