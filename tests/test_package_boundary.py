"""Every module-level definition and every method in ``src/burnside`` is
program code.

A definition belongs in the package if ``src/`` refers to it outside its
own definition, if the package root exports it (``burnside.__all__``), or
if ``perfbench/tracer.py`` wraps it by name (its ``SPANNED`` table, read as
``test_tracer_names`` reads it). A method or property belongs in its class
if ``src/`` names it as an attribute outside its own body, or if the
tracer's ``COUNTED`` table wraps it; a method that overrides one of a
base class from outside the package (``argparse``'s ``error``) is called
by that base. Protocol dunders (``__eq__``, ``__hash__``, ``__len__``,
``__contains__``, ...) run without being named and are exempt. Operator
dunders count only when counted: the sources cannot tell ``a * b`` or
``p.__add__`` on an int from a use of the class's own. Anything else is
called by tests alone and belongs in ``tests/oracles.py``. The sources are
parsed; only the override check imports the classes.
"""

import ast
import importlib
from pathlib import Path

import burnside

from test_tracer_names import COUNTED, SPANNED

SRC = Path(__file__).resolve().parent.parent / "src" / "burnside"

OPERATORS = {"__call__", "__add__", "__sub__", "__mul__", "__matmul__", "__truediv__",
             "__floordiv__", "__mod__", "__pow__", "__neg__", "__pos__", "__invert__"}

# Methods that only tests use. ``FpPoly.__add__``, oracle arithmetic, is
# kept in place until the tracer-pinned ``FpPoly.__mul__`` and ``__pow__``
# move with it (ROADMAP item 3). ``Classification.from_payload`` is read by
# the benchmark harness and CI, and waits on a ``burnside verify`` command
# (ROADMAP item 2).
WAITING = {
    ("polynomials", "FpPoly", "__add__"),
    ("classifier", "Classification", "from_payload"),
}


def _bodies():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8")).body
        for path in sorted(SRC.glob("*.py"))
    }


def _names(node) -> set[str]:
    """Every name and attribute name that appears under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _definitions():
    """(module, name, names used by the rest of src/) per definition."""
    statements = [(module, s) for module, body in _bodies().items() for s in body]
    used = [_names(s) for _, s in statements]
    for i, (module, s) in enumerate(statements):
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            rest = set().union(*used[:i], *used[i + 1:])
            yield module, s.name, rest


def _methods():
    """(module, class, method, attribute names used by the rest of src/)
    per method and property of a module-level class."""
    parts = []
    for module, body in _bodies().items():
        for s in body:
            if isinstance(s, ast.ClassDef):
                parts += [(module, s.name, member) for member in s.body]
            else:
                parts.append((module, None, s))
    used = [{n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            for *_, node in parts]
    for i, (module, cls, node) in enumerate(parts):
        if cls is not None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            rest = set().union(*used[:i], *used[i + 1:])
            yield module, cls, node.name, rest


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


def _overrides_outside_base(module, cls, name):
    owner = getattr(importlib.import_module(f"burnside.{module}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:]
               if not base.__module__.startswith("burnside"))


def _unused_methods():
    counted = set(COUNTED)
    methods = list(_methods())
    assert len(methods) > 40
    unused = set()
    for module, cls, name, rest in methods:
        if name.startswith("__") and name.endswith("__") and name not in OPERATORS:
            continue  # a protocol dunder
        named = name in rest and name not in OPERATORS
        if not (named or (module, cls, name) in counted
                or _overrides_outside_base(module, cls, name)):
            unused.add((module, cls, name))
    return unused


def test_every_method_has_a_program_use():
    assert sorted(_unused_methods() - WAITING) == []


def test_waiting_methods_are_still_unused():
    # a listed method that gains a program use, or moves, leaves the list
    assert sorted(WAITING - _unused_methods()) == []
