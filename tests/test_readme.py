"""The README's library example and command lines run, and the example's
import list is the root API."""

import ast
import re
import shlex
from pathlib import Path

import burnside
import burnside.automorphisms
from burnside.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    """The README text under ``## <title>``, up to the next heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return section.split("\n## ", 1)[0]


def _library_example() -> str:
    """The first fenced python block under the README's ``## Library``."""
    return re.search(r"```python\n(.*?)```", _section("Library"), re.S).group(1)


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


def test_command_lines_run(tmp_path, monkeypatch, capsys, fake_pool):
    """Every ``burnside ...`` line of ``## Command line`` exits 0, with the
    section's group file written as d5.grp and no worker process started."""
    blocks = dict(re.findall(r"```(\w*)\n(.*?)```", _section("Command line"), re.S))
    (tmp_path / "d5.grp").write_text(blocks[""], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(burnside.automorphisms.os, "cpu_count", lambda: 4)
    argvs = [shlex.split(line, comments=True) for line in blocks["sh"].splitlines()]
    assert [argv[:2] for argv in argvs] == [
        ["burnside", cmd] for cmd in ("classify", "aut", "trace", "scan", "interp")
    ]
    for argv in argvs:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.startswith("{")
    assert fake_pool == [4]
