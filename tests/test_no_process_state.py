"""The package changes no process-wide numeric state: it never calls
`sys.set_int_max_str_digits`, nor `decimal.getcontext`, `setcontext` or
`localcontext`, whose context every thread's decimal arithmetic shares.
Exact decimal steps go through a private `decimal.Context`'s own methods."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schmidtgame"
GLOBAL = {"set_int_max_str_digits", "getcontext", "setcontext", "localcontext"}


def global_state_uses(tree):
    """(line, name) for each call, or import, of a process-wide setter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in GLOBAL:
                yield node.lineno, name
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names
                        if a.name in GLOBAL)


def test_guard_sees_each_kind():
    code = ("import sys, decimal\nfrom decimal import localcontext, Context\n"
            "sys.set_int_max_str_digits(0)\ndecimal.getcontext().prec = 9\n"
            "decimal.setcontext(Context())\nwith localcontext() as c:\n"
            "    pass\nContext(prec=9).multiply(2, 3)\n"
            "sys.get_int_max_str_digits()\n")
    assert sorted(global_state_uses(ast.parse(code))) == [
        (2, "localcontext"), (3, "set_int_max_str_digits"), (4, "getcontext"),
        (5, "setcontext"), (6, "localcontext")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_process_state_in_package(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert list(global_state_uses(tree)) == []
