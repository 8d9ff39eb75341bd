"""Every private name the package defines is read somewhere in the package:
a module-level `_function`, `_Class` or `_CONSTANT`, and every `_method`.
A private name is the package's own business, so one that nothing in `src/`
reads is dead code, whatever the tests still call.  Dunder names are
protocol hooks, not private names, and are not counted."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schmidtgame"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_definitions(tree):
    """(line, name) for each private module-level function, class or
    assigned name, and each private method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.extend((t.lineno, t.id) for target in targets
                       for t in ast.walk(target) if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            out.extend((item.lineno, item.name) for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)))
    return [(line, name) for line, name in out if _private(name)]


def names_read(tree):
    """Every name a module loads, as a variable or an attribute, or
    imports from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def orphans(trees):
    """(module, line, name) for each private definition in the parsed
    modules `trees` ({module: tree}) that none of them reads."""
    read = set().union(*(names_read(t) for t in trees.values()))
    return sorted((module, line, name) for module, tree in trees.items()
                  for line, name in private_definitions(tree)
                  if name not in read)


def test_guard_sees_each_kind():
    lib = ("_LIMIT = 3\n_UNUSED: int = 4\n"
           "def _helper():\n    return _LIMIT\n"
           "def _dead():\n    pass\n"
           "class _Box:\n"
           "    def __init__(self):\n        self._slot = _helper()\n"
           "    def _used(self):\n        return self._slot\n"
           "    def _stale(self):\n        pass\n"
           "class Open:\n    def _twin(self):\n        pass\n")
    user = ("from .lib import _Box\n"
            "def public(box):\n    return box._used(), box._twin\n")
    trees = {"lib": ast.parse(lib), "user": ast.parse(user)}
    assert orphans(trees) == [
        ("lib", 2, "_UNUSED"), ("lib", 5, "_dead"), ("lib", 12, "_stale")]


def test_no_orphan_private_in_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert orphans(trees) == []
