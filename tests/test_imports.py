"""What each module loads, checked in fresh interpreters: in-process tests
share one ``sys.modules``, so they can neither see which modules a cold
command loads nor an import cycle that an earlier import resolved."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden"


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with ``args`` and only ``src`` on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


# Modules that importing the key must leave unloaded: the CLI loads the
# sweeps a verb runs when it runs, and the models battery needs no space.
NOT_LOADED_BY = {
    "ltskit.cli": ("ltskit.catalog", "ltskit.lts", "ltskit.cayley",
                   "argparse"),
    "ltskit.cayley": ("ltskit.catalog", "ltskit.lts", "ltskit.spaces",
                      "ltskit.chevalley"),
}


@pytest.mark.parametrize("module", sorted(NOT_LOADED_BY))
def test_import_loads_no_unused_module(module):
    absent = NOT_LOADED_BY[module]
    proc = fresh("-c", f"import sys, {module}\n"
                       f"print(*[m for m in {absent!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("module", ["ltskit.report", "ltskit.cayley",
                                    "ltskit.matrix_groups", "ltskit.catalog",
                                    "ltskit.cli"])
def test_module_imports_on_its_own(module):
    proc = fresh("-c", f"import {module}")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_cold_space_info_matches_golden():
    proc = fresh("-m", "ltskit.cli", "space", "info", "EIV",
                 "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "space_info_EIV.json").read_text(
        encoding="utf-8")
