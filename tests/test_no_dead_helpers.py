"""Every private module-level function and class in the library is used
somewhere in the library outside its own definition."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rvc"


def unused_private(trees: list[ast.Module]) -> list[str]:
    """Names of the private top-level functions and classes of `trees` that
    no name or attribute outside their own definition refers to."""
    stmts = [stmt for tree in trees for stmt in tree.body]
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, stmt)
        for stmt in stmts
        for node in ast.walk(stmt)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    return [
        d.name
        for d in stmts
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and d.name.startswith("_")
        and not any(name == d.name and owner is not d for name, owner in refs)
    ]


def test_guard_flags_helpers_used_only_by_themselves_or_imports():
    src = (
        "from .verify import _imported_only\n"
        "def _used(): pass\n"
        "def _self_only(): return _self_only()\n"
        "class _Kept: pass\n"
        "class _Dead:\n    def f(self): return _Dead\n"
        "def public(): return _used(), mod._Kept\n"
    )
    assert unused_private([ast.parse(src)]) == ["_self_only", "_Dead"]


def test_every_private_helper_is_used():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert trees
    unused = unused_private(trees)
    assert not unused, f"private helpers nothing uses: {unused}"
