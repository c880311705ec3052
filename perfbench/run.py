"""Benchmark for ltskit: end-to-end timings per workload, and a traced run
that splits them over the package's layers.

    python3 perfbench/run.py --workload {sweep,models} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; it builds nothing and imports
``ltskit`` from ``src/``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A run
header (git SHA, nproc, Python version, load average) goes to
standard error, and the whole run record to ``perfbench/.out/runs/``.

Every measurement runs in a fresh interpreter started from here, one child
at a time, so at most two processes (this one, waiting, and its child) exist
at once.  See README.md for the workloads and the layer -> metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from worker import MIN_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".out" / "runs"
WORKLOADS = ("sweep", "models")
SETUP_REPEATS = 3
RUN_LIMIT_S = 175
FIXTURE = HERE / "data" / "eiii_dIII.sub"
SPACES = ("G2group", "EIV", "EIII")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Traced spans -> reported fields ("calls", "self_s" or "total_s").
SPAN_FIELDS = {
    "chevalley.bracket": ("calls", "self_s"),
    "linalg.span_contains": ("calls", "self_s"),
    "linalg.span_add": ("calls", "self_s"),
    "linalg.kernel": ("calls", "self_s"),
    "lts.closure_defect": ("calls", "self_s", "total_s"),
    "lts.rank_and_flat": ("self_s",),
    "lts.sub_restricted_roots": ("self_s",),
    "lts.decomposition_checks": ("self_s",),
    "lts.complexity_class": ("self_s",),
    "catalog.make_prototype": ("self_s",),
    "cayley.mat_mul": ("calls", "self_s"),
    "cayley.Phi_su6": ("calls", "self_s"),
    "cayley.f_su6_action": ("calls", "self_s"),
    "cayley.f_sp4_action": ("self_s",),
    "cayley.embed_f1": ("self_s",),
    "cayley.proj_member": ("self_s",),
}
# Inclusive span times, reported as "<metric>": "<span>".
SPAN_TOTALS = {
    **{f"catalog.{fn}_s.{sp}": f"catalog.{fn}.{sp}"
       for fn in ("verify_catalog", "verify_containments") for sp in SPACES},
    "cayley.so10_constructions_s": "cayley.so10_constructions",
    "cayley.cartan_map_check_s": "cayley.cartan_map_check",
}
MICRO_UNITS = {
    "scalars.mul_rational_ns": "ns", "scalars.add_rational_ns": "ns",
    "scalars.mul_radical_ns": "ns", "scalars.add_radical_ns": "ns",
    "scalars.inv_radical_ns": "ns",
    "chevalley.bracket_us": "us", "linalg.span_contains_us": "us",
}

EXPECTED_KIND = {"G2group": "G2", "EIV": "A2", "EIII": "BC2"}
# Cold CLI commands of the traced run: metric suffix, argv, output check.
CLI_PROBES = [
    *[(f"space_info_ms.{sp}", ["space", "info", sp],
       lambda d, sp=sp: d["name"] == sp and d["rank"] == 2
       and d["restricted_kind"] == EXPECTED_KIND[sp]) for sp in SPACES],
    ("geodesic_length_ms",
     ["geodesic", "length", "--H", "(9*l1 + 5*l2)/sqrt(21)"],
     lambda d: d["length"] == "4/3*pi*sqrt(21)"),
    ("curvature_eval_ms",
     ["curvature", "eval", "EIII", "--x", "a(1, 0)",
      "--y", "M[l1](1, 0, 0, 0)", "--z", "M[l1](i, 0, 0, 0)"],
     lambda d: d["space"] == "EIII" and not d["is_zero"]),
    ("lts_check_ms", ["lts", "check", str(FIXTURE)],
     lambda d: (d["is_lts"], d["dim"], d["rank"], d["complexity"])
     == (True, 20, 2, "complex")),
]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update({name: "s" for name in SPAN_TOTALS})
    units.update(MICRO_UNITS)
    units["lts.parse_subspace.self_s"] = "s"
    units["chevalley.e6_build_s"] = "s"
    units.update({f"spaces.build_s.{sp}": "s" for sp in SPACES})
    units["cli.import_ms"] = "ms"
    units.update({f"cli.{name}": "ms" for name, _, _ in CLI_PROBES})
    units["trace.overhead_frac"] = "ratio"
    return units


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts one fresh-interpreter child at a time, within the run limit."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def child(self, *args) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[:2]} exceeded the run limit") from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"child {args[:2]} exited {proc.returncode}:\n{tail}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    children = [runner.child("setup", args.workload)
                for _ in range(SETUP_REPEATS - 1)]
    m = runner.child("measure", args.workload, args.seed, args.seconds, 0)
    children.append(m)
    setups = [c["setup_s"] for c in children]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(m["pass_s"][:MIN_PASSES]),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    m["setup_samples_s"] = setups
    m["setup_raw_samples_s"] = [c["setup_raw_s"] for c in children]
    return m, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in metrics.items()}


def layers(runner: Runner, args) -> tuple[dict, dict]:
    m = runner.child("measure", args.workload, args.seed, args.seconds, 1)
    spans = m["spans"]
    values: dict[str, float] = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            values[f"{span}.{f}"] = spans.get(span, {}).get(f, 0)
    for name, span in SPAN_TOTALS.items():
        values[name] = spans.get(span, {}).get("total_s", 0.0)
    values.update(m["micro"])

    builds: dict[str, list[float]] = {sp: [] for sp in SPACES}
    e6, imports, probes = [], [], []
    for name, argv, ok in CLI_PROBES:
        p = runner.child("cli", *argv, "--format", "json")
        m["attempted"] += 1
        try:
            good = p["error"] is None and p["code"] == 0 and ok(p["doc"]["data"])
        except (KeyError, TypeError):
            good = False
        if not good:
            m["failed"] += 1
            m["errors"].append(p["error"] or f"{' '.join(argv)}: exit "
                               f"{p['code']}, unexpected output")
        values[f"cli.{name}"] = p["verb_ms"]
        imports.append(p["import_ms"])
        for sp, s in p["build_s"].items():
            builds[sp].append(s)
        if p["e6_build_s"] is not None:
            e6.append(p["e6_build_s"])
        if name == "lts_check_ms":
            if p["parse_self_s"] is None:
                raise BenchError("lts.parse_subspace recorded no calls in "
                                 "the lts check probe")
            values["lts.parse_subspace.self_s"] = p["parse_self_s"]
        probes.append({"probe": name, "verb_ms": p["verb_ms"],
                       "import_ms": p["import_ms"], "ok": good})
    values["chevalley.e6_build_s"] = median(e6)
    for sp in SPACES:
        values[f"spaces.build_s.{sp}"] = median(builds[sp])
    values["cli.import_ms"] = median(imports)
    cost = m["span_count"] * m["span_cost_s"]
    values["trace.overhead_frac"] = cost / (m["profile_s"] - cost)
    m["cli_probes"] = probes
    units = per_layer_units()
    return m, {k: {"value": values[k], "unit": u} for k, u in units.items()}


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def header(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ltskit" / "__init__.py").is_file():
        print(f"error: no ltskit sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    head = header(args)
    print(json.dumps({"run": head}), file=sys.stderr)
    t0 = time.monotonic()
    try:
        detail, metrics = (layers if args.trace else end_to_end)(Runner(), args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail["run_s"] = time.monotonic() - t0
    for err in detail["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": detail["failed"] == 0,
              "attempted": detail["attempted"], "failed": detail["failed"],
              "metrics": metrics}
    RUNS.mkdir(parents=True, exist_ok=True)
    record = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"run": head, "result": result,
                                  "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
