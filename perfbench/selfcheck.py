"""The benchmark's own tests.

    python3 perfbench/selfcheck.py

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports, with the
   same units, and only workloads ``run.py`` knows.
2. Seed independence: the full ``sweep`` profile and one ``lts check`` pass
   (``workloads.LtsCheck``) with each of the seeds 0 and 7 give identical
   verdict counts, and every output
   passes the workload's checks.  Verdicts must not depend on the
   flat-search seed or on which exact isometry moved a prototype.

Exits 0 when both hold, 1 otherwise.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 7)


def check_manifest() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END_UNITS:
        problems.append(f"end_to_end {e2e} != reported {run.END_TO_END_UNITS}")
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer != run.per_layer_units():
        diff = set(layer.items()) ^ set(run.per_layer_units().items())
        problems.append(f"per_layer differs from reported: {sorted(diff)}")
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        problems.append(f"unknown workloads {sorted(unknown)}")
    return problems


def check_seeds() -> list[str]:
    problems = []
    for name, cls in (("sweep", workloads.Sweep),
                      ("lts check", workloads.LtsCheck)):
        seen = {}
        for seed in SEEDS:
            wl = cls(seed, HERE / ".out" / "selfcheck")
            ops = wl.run_profile()
            problems += [e for e in map(wl.check, ops) if e]
            seen[seed] = sum((wl.verdicts(op) for op in ops), Counter())
            print(f"{name} seed {seed}: {dict(sorted(seen[seed].items()))}")
        if len({tuple(sorted(c.items())) for c in seen.values()}) != 1:
            problems.append(f"{name}: verdict counts differ between seeds {SEEDS}")
    return problems


def main() -> int:
    problems = check_manifest() + check_seeds()
    for p in problems:
        print(f"FAIL: {p}")
    print("selfcheck:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
