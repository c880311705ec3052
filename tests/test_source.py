"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ltskit"


def unused_imports(source: str) -> list[str]:
    """Names that a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_unused_imports_finds_unread_names():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import re as regex\nfrom math import isqrt, pi\nprint(pi)\n")
    assert unused_imports(source) == [
        "isqrt (line 4)", "os (line 2)", "regex (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
