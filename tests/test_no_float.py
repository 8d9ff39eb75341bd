"""The package holds no float: no float literal, no `float` or `__float__`,
no `math.log*` and no `limit_denominator`, so no float can decide a
comparison."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schmidtgame"


def float_uses(tree):
    """(line, what) for each float use in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "float"
        elif isinstance(node, ast.FunctionDef) and node.name == "__float__":
            yield node.lineno, "__float__"
        elif isinstance(node, ast.Attribute) and node.attr == "limit_denominator":
            yield node.lineno, "limit_denominator"
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("log")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, "math." + node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, "math." + a.name)
                        for a in node.names if a.name.startswith("log"))


def test_guard_sees_each_kind():
    code = ("import math\nfrom math import gcd, log2\nx = 0.5\ny = float(1)\n"
            "z = math.log(2)\nw = y.limit_denominator(64)\n"
            "class A:\n    def __float__(self):\n        return 0\n")
    assert sorted(float_uses(ast.parse(code))) == [
        (2, "math.log2"), (3, "0.5"), (4, "float"), (5, "math.log"),
        (6, "limit_denominator"), (8, "__float__")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_float_in_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(float_uses(tree)) == []
