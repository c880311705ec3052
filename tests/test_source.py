"""Static checks on the package source."""

import ast
import importlib
from pathlib import Path
from typing import Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ltskit"


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


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def dead_names(sources: dict[str, str], wanted: Callable[[str], bool],
               readers: dict[str, str] | None = None) -> list[str]:
    """Functions, classes, methods and module-level assignments of the given
    modules whose name is ``wanted`` and that no module, and no source of
    ``readers``, reads outside the definition itself; a name imported by
    ``from ... import`` counts as read.  Reads are matched by name alone, so
    a definition is masked by any read of the same name."""
    defs: list[tuple[str, str, int, int]] = []
    reads: dict[str, list[tuple[str, int]]] = {}
    for path, source in {**(readers or {}), **sources}.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if path in sources and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)) and wanted(node.name):
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
        for node in tree.body if path in sources else ():
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(
                           node, (ast.AnnAssign, ast.AugAssign)) else [])
            for t in targets:
                if isinstance(t, ast.Name) and wanted(t.id):
                    defs.append((path, t.id, node.lineno, node.end_lineno))
    return sorted(
        f"{path}: {name} (line {start})" for path, name, start, end in defs
        if not any(p != path or not start <= line <= end
                   for p, line in reads.get(name, ())))


def _sources(directory: Path, prefix: str = "") -> dict[str, str]:
    return {prefix + path.name: path.read_text(encoding="utf-8")
            for path in sorted(directory.glob("*.py"))}


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
    assert dead_names(sources, _is_private) == [
        "a.py: _UNUSED (line 2)", "a.py: _peek (line 8)",
        "a.py: _recursive (line 5)"]


def test_no_dead_private_names():
    assert dead_names(_sources(SRC), _is_private) == []


def test_dead_public_names_finds_unread_definitions():
    sources = {
        "a.py": ("LIMIT = 3\nUNUSED = 4\n_hidden = 5\n"
                 "def helper():\n    return helper\n"
                 "class Box:\n    def peek(self):\n        return LIMIT\n"
                 "    def __len__(self):\n        return 0\n"
                 "def tool():\n    return Box().peek()\n"),
    }
    # a reader's reads count, its own definitions are not checked
    readers = {"bench.py": "from a import tool\ndef unread():\n    pass\n"}
    assert dead_names(sources, _is_public, readers) == [
        "a.py: UNUSED (line 2)", "a.py: helper (line 4)"]
    assert dead_names(sources, _is_public) == [
        "a.py: UNUSED (line 2)", "a.py: helper (line 4)",
        "a.py: tool (line 11)"]


# Public names that no program path reads (the package, its CLI and the
# benchmark harness), kept as API with the reason why.
PUBLIC_API = {
    "jordan.py: jordan_mul":
        "the Jordan model's product (XY + YX)/2, which the tests check",
    "matrix_groups.py: polar_stabilizer_criterion":
        "the stabilizer criterion as the paper states it; so10_constructions "
        "passes its precomputed midpoint to the private form",
    "lts.py: lts_from_closed_subsystem":
        "builds an LTS from a closed root subsystem, the fixture of the "
        "test_lts checks",
    "spaces.py: reference_sharp":
        "restricted-root duals in the normalization of the quoted curvature "
        "identities, which the tests check",
}


def test_no_dead_public_names():
    dead = dead_names(_sources(SRC), _is_public,
                      readers=_sources(ROOT / "perfbench", "perfbench/"))
    unread = {entry.rpartition(" (line")[0] for entry in dead}
    assert sorted(unread - PUBLIC_API.keys()) == [], "unread public names"
    assert sorted(PUBLIC_API.keys() - unread) == [], (
        "kept as API but no longer defined, or now read by a program path")


def unread_fields(sources: dict[str, str],
                  readers: dict[str, str] | None = None) -> list[str]:
    """Annotated class fields of the given modules (dataclass, NamedTuple
    and the like) that no module, and no source of ``readers``, reads.  A
    field counts as read when an attribute of its name is read, or when a
    string constant names it (for ``getattr``); a store, such as
    ``report.x = x`` or a constructor keyword, is not a read.  Reads are
    matched by name alone, so a field is missed when an attribute of the
    same name is read elsewhere: ``CartanInstance.name`` went unread while
    every ``sp.name`` was read, and was found by hand."""
    fields: list[tuple[str, str, str, int]] = []
    reads: set[str] = set()
    for path, source in {**(readers or {}), **sources}.items():
        for node in ast.walk(ast.parse(source)):
            if path in sources and isinstance(node, ast.ClassDef):
                fields += [(path, node.name, stmt.target.id, stmt.lineno)
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            if isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Store):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                reads.add(node.value)
    return sorted(f"{path}: {cls}.{name} (line {line})"
                  for path, cls, name, line in fields if name not in reads)


def test_unread_fields_finds_stored_only_fields():
    sources = {
        "a.py": ("from dataclasses import dataclass\n"
                 "@dataclass\nclass Report:\n    dim: int\n    flat: object\n"
                 "    kind: str\n    note: str = ''\n"
                 "    def show(self):\n        return self.dim\n"
                 "r = Report(dim=1, flat=None, kind='x')\n"
                 "r.note = 'kept'\nprint(getattr(r, 'kind'))\n"),
    }
    readers = {"bench.py": "def f(r):\n    return r.note\n"}
    assert unread_fields(sources, readers) == ["a.py: Report.flat (line 5)"]
    assert unread_fields(sources) == [
        "a.py: Report.flat (line 5)", "a.py: Report.note (line 7)"]


# Class fields that no program path reads, kept with the reason why.
UNREAD_FIELDS = {
    "prototypes.py: ExpectedRow.maximal":
        "the catalog's maximality column as the paper tables it, the data "
        "of the maximality verdict that the catalog does not check yet",
}


def test_no_unread_fields():
    unread = {entry.rpartition(" (line")[0] for entry in unread_fields(
        _sources(SRC), readers=_sources(ROOT / "perfbench", "perfbench/"))}
    assert sorted(unread - UNREAD_FIELDS.keys()) == [], "unread fields"
    assert sorted(UNREAD_FIELDS.keys() - unread) == [], (
        "kept as data but no longer defined, or now read by a program path")


def name_compares(source: str, names: tuple[str, ...]) -> list[str]:
    """Comparisons that read a ``.name`` attribute or one of the given
    strings, alone or in a tuple, list or set literal, as 'line n'."""
    def reads_a_name(node: ast.AST) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(reads_a_name(elt) for elt in node.elts)
        return ((isinstance(node, ast.Attribute) and node.attr == "name")
                or (isinstance(node, ast.Constant) and node.value in names))
    lines = sorted(node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare)
                   and any(map(reads_a_name, (node.left, *node.comparators))))
    return [f"line {n}" for n in lines]


def test_name_compares_finds_space_name_branches():
    source = ('if sp.name == "EIII":\n    pass\n'
              'flag = kind in ("A2", "EIV")\n'
              'if "G2group" != kind:\n    pass\n'
              'if sp.data.hermitian and label == "l1":\n    pass\n'
              'title = sp.name\nok = sp.name is None\n')
    assert name_compares(source, ("EIII", "EIV", "G2group")) == [
        "line 1", "line 3", "line 4", "line 9"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_space_name_branches(path):
    # the model reads its space from its SpaceData record and the catalog
    # its rows from per-space tables: no module branches on which space it is
    from ltskit.spaces import SPACE_NAMES
    source = path.read_text(encoding="utf-8")
    assert name_compares(source, SPACE_NAMES) == []


def test_hypothesis_storage_is_outside_the_checkout():
    # tests/conftest.py points Hypothesis's storage at a session directory
    from hypothesis.configuration import storage_directory
    found = storage_directory("constants", intent_to_write=False)
    path = Path(getattr(found, "path", found)).resolve()
    assert ROOT != path and ROOT not in path.parents, path


def private_reads(source: str, names: set[str]) -> list[str]:
    """Attribute reads and writes of the given names, as 'name (line n)'."""
    found = sorted((node.lineno, node.attr)
                   for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in names)
    return [f"{name} (line {line})" for line, name in found]


def test_private_reads_finds_slot_access():
    source = "x._num + y.terms()\nz._terms = None\nw._other\n"
    assert private_reads(source, {"_num", "_terms"}) == [
        "_num (line 1)", "_terms (line 2)"]


@pytest.mark.parametrize("path", sorted(
    [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]),
    ids=lambda p: p.name)
def test_only_scalars_reads_scalar_state(path):
    # a rational has no radicand dict, so an outside read of Scalar's
    # stored state would be silently wrong for one of its two forms
    from ltskit.scalars import Scalar
    if path == SRC / "scalars.py":
        return
    slots = set(Scalar.__slots__)
    assert private_reads(path.read_text(encoding="utf-8"), slots) == []


@pytest.mark.parametrize("path", sorted(
    [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]),
    ids=lambda p: p.name)
def test_only_linalg_reads_span_state(path):
    # a Span keeps each reduced row once, as its moves by pivot; only
    # linalg knows that form, the rest reads basis, basis_terms and pivots
    if path == SRC / "linalg.py":
        return
    state = {"_moves", "_pivots"}
    assert private_reads(path.read_text(encoding="utf-8"), state) == []


def traced_targets(source: str) -> list[tuple[str, str]]:
    """(module, attr) of every ``Target("module", "attr", ...)`` literal
    with a module name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Target" and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) for a in node.args[:2])
                and node.args[0].value):
            found.append((node.args[0].value, node.args[1].value))
    return found


def test_traced_targets_finds_literals():
    source = ('Target("", "noop", "noop")\n'
              'xs = [Target("pkg.mod", "Cls.meth", "a"),\n'
              '      Target("pkg.mod", "fn", "b", lambda a: "c")]\n'
              'Other("pkg.mod", "gone", "d")\n')
    assert traced_targets(source) == [("pkg.mod", "Cls.meth"),
                                      ("pkg.mod", "fn")]


def test_traced_names_resolve():
    # the benchmark's tracer patches these by name, a method in its class's
    # own __dict__: a rename fails here rather than in a traced run
    targets = [t for path in sorted((ROOT / "perfbench").glob("*.py"))
               for t in traced_targets(path.read_text(encoding="utf-8"))]
    assert len(targets) == 23  # update with the benchmark's target lists
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            found = cls is not None and name in vars(cls)
        else:
            found = callable(getattr(owner, name, None))
        if not found:
            missing.append(f"{module}:{attr}")
    assert missing == []


def test_traced_sweep_reaches_every_layer(tmp_path, monkeypatch):
    # a traced benchmark run stops with ZeroCalls when a layer it wraps is
    # no longer called, say relations solved off linalg.kernel; the sweep's
    # profile job (about a second) shows that here, with its verdicts, after
    # the same set-up (the models and J are built before tracing starts)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer
    from worker import setup
    from workloads import Sweep
    setup("sweep")
    sweep, tracer = Sweep(0, tmp_path), Tracer()
    tracer.install(Sweep.layers)
    try:
        ops = sweep.run_profile()
    finally:
        tracer.restore()
    tracer.check_calls()
    assert [sweep.check(op) for op in ops] == [None] * 6
