"""The README's library example runs, and its import list is the root API."""

import ast
import re
from pathlib import Path

import burnside

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first fenced python block under the README's ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _root_names(source: str) -> list[str]:
    (node,) = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.ImportFrom) and n.module == "burnside"
    ]
    return sorted(alias.name for alias in node.names)


def test_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def test_all_is_the_example_imports():
    assert sorted(burnside.__all__) == _root_names(_library_example())


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from burnside import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == _root_names(_library_example())
