"""No package function calls itself: a recursion's depth would be bounded by
the interpreter's recursion limit instead of by the input or the node budget.
The oracle's recursive helpers are test references with guards of their own."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclecover"
EXEMPT = {"oracle.py"}


def self_calls(tree: ast.AST) -> list[str]:
    """'name:line' of every function that calls itself by name, from its own
    body or from a def nested in it (``self.name()`` and ``cls.name()`` count)."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                found.append(f"{fn.name}:{node.lineno}")
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr == fn.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{fn.name}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name not in EXEMPT), ids=lambda p: p.name
)
def test_no_function_calls_itself(path):
    assert self_calls(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_direct_and_nested_recursion():
    direct = "def f(n):\n    return f(n - 1)\n"
    nested = "def f(n):\n    def g():\n        return f(n - 1)\n    return g()\n"
    inner = "def f(n):\n    def g(m):\n        return g(m - 1)\n    return g(n)\n"
    method = "class C:\n    def f(self):\n        return self.f()\n"
    assert self_calls(ast.parse(direct)) == ["f:2"]
    assert self_calls(ast.parse(nested)) == ["f:3"]
    assert self_calls(ast.parse(inner)) == ["g:3"]
    assert self_calls(ast.parse(method)) == ["f:3"]
    assert self_calls(ast.parse("def f(g):\n    return g.f()\n")) == []
