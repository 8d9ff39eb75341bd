"""Every name a package or test module imports is read there or exported
in its `__all__`, so a deletion cannot leave a dead import behind.
`__future__` imports are compiler directives, not names, and are not
counted."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "schmidtgame"


def unused_imports(tree):
    """(line, name) for each imported name a parsed module never reads and
    does not list in `__all__`."""
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets)):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_guard_sees_each_kind():
    code = ("from __future__ import annotations\n"
            "import os\nimport os.path\nimport json as j\n"
            "from math import ceil, floor\nfrom . import alice\n"
            "from .game import Ball\n__all__ = ['Ball']\n"
            "x = math.floor(1)\ny = ceil(2)\n")
    assert unused_imports(ast.parse(code)) == [
        (2, "os"), (4, "j"), (5, "floor"), (6, "alice")]


def check(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert unused_imports(tree) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import_in_package(path):
    check(path)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_import_in_tests(path):
    check(path)
