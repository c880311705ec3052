"""Span tracing from the benchmark's side of the program boundary.

A ``Tracer`` replaces public functions and methods of ``ltskit`` with thin
wrappers that record one span per call: its name, start, end and parent span.
Functions are patched at every module binding that holds them (``lts`` does
``from .linalg import kernel``, so patching ``linalg.kernel`` alone would miss
those calls); methods are patched on their class.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from statistics import median
from time import perf_counter
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """One traced callable: ``module`` and ``attr`` (``Class.method`` for a
    method), the span ``name``, and an optional ``name_fn`` that derives the
    span name from the call arguments."""

    module: str
    attr: str
    name: str
    name_fn: Callable[[tuple], str] | None = None


class ZeroCalls(RuntimeError):
    """A wrapped callable was never called: it was renamed, bound somewhere
    the tracer cannot see, or the workload no longer reaches it."""


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._calls: dict[str, int] = {}

    # -- patching ----------------------------------------------------------

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            owner = importlib.import_module(t.module)
            cls_name, _, attr = t.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(cls.__dict__[attr], t))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, t)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "ltskit":
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _wrap(self, fn, t: Target):
        key = f"{t.module}:{t.attr}"
        self._calls[key] = 0
        fixed_id = None if t.name_fn else self._name_id(t.name)
        stack, start, end = self._stack, self.start, self.end
        name_of, parent, calls = self.name_of, self.parent, self._calls

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else self._name_id(
                t.name_fn(args))
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            calls[key] += 1
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    # -- results -----------------------------------------------------------

    def check_calls(self) -> None:
        """Raise ``ZeroCalls`` naming every wrapped callable with no call."""
        idle = sorted(k for k, n in self._calls.items() if n == 0)
        if idle:
            raise ZeroCalls("traced callables recorded no calls: "
                            + ", ".join(idle))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total (inclusive) and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.span_names}
        for sid in range(n):
            row = out[self.span_names[self.name_of[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[sid]
        return out


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds that tracing adds to one call, measured on a no-op function
    traced by a throwaway tracer."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, Target("", "noop", "noop"))
    samples = []
    for _ in range(repeats):
        t = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t
        t = perf_counter()
        for _ in range(calls):
            traced()
        samples.append((perf_counter() - t - bare) / calls)
    return median(samples)
