"""Child process of the benchmark: every measurement runs in a fresh
interpreter started by ``run.py``, and prints one JSON object as its last
line of output.

    worker.py setup WORKLOAD
        import ltskit and build the workload's models; report the time,
        raw and scaled to reference speed (speed.py).
    worker.py measure WORKLOAD SEED SECONDS TRACE
        set up, run passes of the workload for SECONDS and check every
        output, with times raw and scaled to reference speed; with TRACE=1
        run the workload's profile once under the tracer instead, then the
        microbenchmarks.
    worker.py cli ARG...
        one cold ``ltskit`` command: import, build and run, with the import,
        model-build and E6 algebra-build times split out.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import Sampler

HERE = Path(__file__).resolve().parent
WORK = HERE / ".out"
MAX_ERRORS = 5
# Untraced runs time at least this many passes; run.py takes the median of
# the first MIN_PASSES, so a faster commit gets no more samples.
MIN_PASSES = 7
# Models each workload's pass uses.  Kept here, not in workloads.py, so that
# set-up timing starts before any ltskit import.
SETUP_SPACES = {
    "sweep": ("EIV", "EIII"),
    "models": (),
}


def setup(workload: str) -> tuple[float, float]:
    """The ``perf_counter`` interval in which ltskit is imported and the
    workload's models are built, including the EIII complex structure J,
    which is solved once per process on first use."""
    t0 = perf_counter()
    import ltskit.cli  # noqa: F401  (the package as the CLI loads it)
    from ltskit.spaces import build_space
    if workload == "models":
        import ltskit.cayley  # noqa: F401
    for name in SETUP_SPACES[workload]:
        space = build_space(name)
        if name == "EIII":
            space.complex_structure()
    return t0, perf_counter()


def timed_setup(workload: str) -> dict:
    with Sampler() as speed:
        t0, t1 = setup(workload)
    return {"setup_s": speed.scaled(t0, t1), "setup_raw_s": t1 - t0}


def _passes(wl, seconds: float):
    """Run whole passes until ``seconds`` have elapsed, at least
    ``MIN_PASSES``; return each pass's interval and operations."""
    out = []
    deadline = perf_counter() + seconds
    while True:
        t = perf_counter()
        ops = wl.run_pass()
        out.append((t, perf_counter(), ops))
        if perf_counter() >= deadline and len(out) >= MIN_PASSES:
            return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Untraced: set up, then passes for ``seconds``, with every time scaled
    to reference speed.  Traced: the workload's profile, once, under the
    tracer, then the microbenchmarks."""
    result = {"attempted": 0, "failed": 0, "errors": []}
    if trace:
        setup(workload)
        import workloads
        from tracer import Tracer, span_cost
        wl = workloads.WORKLOADS[workload](seed, WORK / "inputs")
        tr = Tracer()
        tr.install(wl.layers)
        try:
            t = perf_counter()
            ops = wl.run_profile()
            result["profile_s"] = perf_counter() - t
        finally:
            tr.restore()
        tr.check_calls()
        result["spans"] = tr.summary()
        result["span_count"] = len(tr.start)
        result["span_cost_s"] = span_cost()
        passes = [ops]
    else:
        with Sampler() as speed:
            t0, t1 = setup(workload)
            import workloads
            wl = workloads.WORKLOADS[workload](seed, WORK / "inputs")
            intervals = _passes(wl, seconds)
        result["setup_s"] = speed.scaled(t0, t1)
        result["setup_raw_s"] = t1 - t0
        result["pass_s"] = [speed.scaled(a, b) for a, b, _ in intervals]
        result["pass_raw_s"] = [b - a for a, b, _ in intervals]
        result["slowdown"] = speed.slowdown()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        passes = [ops for _, _, ops in intervals]
    ops = [op for pass_ops in passes for op in pass_ops]
    result["ops"] = [[op.label, op.seconds] for op in ops]
    result["verdicts"] = dict(sum((wl.verdicts(op) for op in passes[0]),
                                  Counter()))
    for op in ops:
        result["attempted"] += 1
        err = wl.check(op)
        if err:
            result["failed"] += 1
            if len(result["errors"]) < MAX_ERRORS:
                result["errors"].append(err)
    if trace:
        import micro
        result["micro"] = micro.run()
    return result


_ALGEBRA = {36: "E6", 6: "G2"}  # positive-root count -> type


def cli_probe(argv: list[str]) -> dict:
    t0 = perf_counter()
    from ltskit import cli
    import_s = perf_counter() - t0
    from tracer import Target, Tracer
    tr = Tracer()
    tr.install([
        Target("ltskit.spaces", "build_space", "spaces.build",
               lambda a: f"spaces.build.{a[0]}"),
        Target("ltskit.chevalley", "ChevalleyAlgebra.__init__",
               "chevalley.init",
               lambda a: "chevalley.init."
               + _ALGEBRA.get(len(a[1].positives), "other")),
        Target("ltskit.lts", "parse_subspace", "lts.parse_subspace"),
    ])
    buf = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    main_s = perf_counter() - t
    tr.restore()
    spans = tr.summary()

    import jsonschema
    doc, error = None, None
    try:
        doc = json.loads(buf.getvalue())
        jsonschema.validate(doc, json.loads(cli.schema_text()))
    except (ValueError, jsonschema.ValidationError) as exc:
        error = f"{' '.join(argv)}: {str(exc).splitlines()[0]}"
    return {
        "code": code, "doc": doc, "error": error,
        "import_ms": import_s * 1e3,
        "verb_ms": (import_s + main_s) * 1e3,
        "build_s": {k.rsplit(".", 1)[1]: v["total_s"]
                    for k, v in spans.items() if k.startswith("spaces.build.")},
        "e6_build_s": spans.get("chevalley.init.E6", {}).get("total_s"),
        "parse_self_s": spans.get("lts.parse_subspace", {}).get("self_s"),
    }


def main(argv: list[str]) -> int:
    role = argv[0]
    if role == "setup":
        out = timed_setup(argv[1])
    elif role == "measure":
        out = measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    elif role == "cli":
        out = cli_probe(argv[1:])
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
