"""No function in the library calls itself, so no input depth meets
Python's recursion limit."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rvc"


def self_calls(tree: ast.AST) -> list[str]:
    """Names of functions, nested ones included, that call themselves by
    name or as `self.<name>`."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                isinstance(f, ast.Attribute)
                and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
            ):
                found.append(fn.name)
                break
    return found


def test_guard_flags_direct_and_method_recursion():
    src = (
        "def walk(n):\n    return walk(n - 1)\n"
        "def outer():\n    def inner():\n        inner()\n"
        "class S:\n    def rec(self):\n        self.rec()\n"
    )
    assert self_calls(ast.parse(src)) == ["walk", "inner", "rec"]


def test_no_library_function_calls_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {
        f"{path.name}:{name}"
        for path in paths
        for name in self_calls(ast.parse(path.read_text()))
    }
    assert not found, f"recursive functions: {sorted(found)}"
