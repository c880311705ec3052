"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltskit"


def _imports_by_scope(node: ast.AST, scope: ast.AST, out: list) -> None:
    """Append (scope, import node) for every import under ``node``; the
    scope of an import is its innermost enclosing function, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _imports_by_scope(child, child, out)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            out.append((scope, child))
        _imports_by_scope(child, scope, out)


def unused_imports(source: str) -> list[str]:
    """Names that a module imports (``__future__`` aside) and never reads.
    A module-level import may be read anywhere in the module; an import
    inside a function must be read in that function."""
    tree = ast.parse(source)
    found: list = []
    _imports_by_scope(tree, tree, found)
    reads: dict[ast.AST, set[str]] = {}
    unused: list[tuple[str, int]] = []
    for scope, node in found:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if scope not in reads:
            reads[scope] = {n.id for n in ast.walk(scope)
                            if isinstance(n, ast.Name)}
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in reads[scope]:
                unused.append((name, node.lineno))
    return [f"{name} (line {line})" for name, line in sorted(unused)]


def test_unused_imports_finds_unread_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import re as regex\nfrom math import isqrt, pi\nprint(pi)\n")
    assert unused_imports(source) == [
        "isqrt (line 4)", "os (line 2)", "regex (line 3)"]
    # a function's import is checked against that function's reads only
    source = ("import sys\n"
              "def f():\n    import json\n    return 1\n"
              "def g(json):\n    return json, sys\n"
              "def h():\n    from math import pi\n"
              "    def inner():\n        return pi\n    return inner\n")
    assert unused_imports(source) == ["json (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__") and name != "_"


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private functions, classes, methods and module-level assignments
    (``_name``) of the given modules that no module reads outside the
    definition itself; a name imported by ``from ... import`` counts as
    read."""
    defs: list[tuple[str, str, int, int]] = []
    reads: dict[str, list[tuple[str, int]]] = {}
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and _is_private(node.name):
                defs.append((path, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                reads.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store):
                reads.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, []).append(
                        (path, node.lineno))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AnnAssign, ast.AugAssign)) else [])
            for t in targets:
                if isinstance(t, ast.Name) and _is_private(t.id):
                    defs.append((path, t.id, node.lineno, node.end_lineno))
    return sorted(
        f"{path}: {name} (line {start})" for path, name, start, end in defs
        if not any(p != path or not start <= line <= end
                   for p, line in reads.get(name, ())))


def test_dead_private_names_finds_unread_definitions():
    sources = {
        "a.py": ("_LIMIT = 3\n_UNUSED: int = 4\n"
                 "def _used():\n    return _LIMIT\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Box:\n    def _peek(self):\n        return 1\n"
                 "    def __len__(self):\n        return 0\n"
                 "print(_used())\n"),
        "b.py": "from a import _Box\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _UNUSED (line 2)", "a.py: _peek (line 8)",
        "a.py: _recursive (line 5)"]


def test_no_dead_private_names():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
