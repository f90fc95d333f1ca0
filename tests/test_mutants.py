"""The mutation record in ``tests/mutants.py`` still matches the source.

Each snippet must occur exactly once in its file under ``src/``, so a
refactor that moves or rewrites a mutated line fails here until the record
is updated, and no mutant is dropped silently. The mutants themselves run
outside this suite (``python tests/mutants.py``).
"""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT

IDS = [m.name for m in MUTANTS]


def test_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_snippet_occurs_once_in_src(mutant):
    path = ROOT / mutant.path
    assert Path(mutant.path).parts[0] == "src"
    assert path.read_text(encoding="utf-8").count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_nodes_name_existing_tests(mutant):
    # Each node is a test file, optionally with a class and a test in it.
    assert mutant.nodes
    for node in mutant.nodes:
        path, *names = node.split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        scope = tree.body
        for name in names:
            match = [n for n in scope if getattr(n, "name", None) == name]
            assert match, node
            scope = match[0].body
