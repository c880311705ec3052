"""Verification reports: rows with expected and computed data, rendered as
JSON or markdown.

Every sweep (catalog, foundations, models) returns a ``CatalogReport``.  This
module imports only the standard library, so a command loads the report
types without the sweeps it does not run.  Both types have slots, and a row
that states no expected data shares one read-only empty mapping, since a
long run of sweeps keeps many rows.  Both are frozen: a sweep may share one
row between reports (``add_row``), whose ``expected`` and ``computed`` may
be read-only mappings (``as_json`` copies both into plain dicts), and one
whole report whose rows are a tuple (``shared_report``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from sys import intern
from types import MappingProxyType

# The expected data of every row that states none (each Cayley row), shared
# and read-only instead of one empty dict per kept row.
_NO_EXPECTATION: Mapping = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class ReportRow:
    label: str
    status: str  # PASS | FAIL | SKIPPED
    expected: Mapping = field(default_factory=lambda: _NO_EXPECTATION)
    computed: Mapping = field(default_factory=dict)
    certificate: str = ""

    def as_json(self) -> dict:
        return {"label": self.label, "expected": dict(self.expected),
                "computed": dict(self.computed), "status": self.status,
                "certificate": self.certificate}


@dataclass(frozen=True, slots=True)
class CatalogReport:
    space: str
    kind: str
    rows: list[ReportRow] | tuple[ReportRow, ...] = field(
        default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.rows)

    def counts(self) -> dict[str, int]:
        out = {"PASS": 0, "FAIL": 0, "SKIPPED": 0}
        for r in self.rows:
            out[r.status] += 1
        return out

    def as_json(self) -> dict:
        return {"space": self.space, "kind": self.kind,
                "rows": [r.as_json() for r in self.rows],
                "counts": self.counts()}

    def as_markdown(self) -> str:
        lines = [f"## {self.space} {self.kind}", "",
                 "| label | status | expected | computed | note |",
                 "|---|---|---|---|---|"]
        for r in self.rows:
            exp = "; ".join(f"{k}={v}" for k, v in r.expected.items())
            got = "; ".join(f"{k}={v}" for k, v in r.computed.items())
            lines.append(
                f"| `{r.label}` | {r.status} | {exp} | {got} "
                f"| {r.certificate} |")
        c = self.counts()
        lines += ["", f"{c['PASS']} passed, {c['FAIL']} failed, "
                      f"{c['SKIPPED']} skipped."]
        return "\n".join(lines)


# Rows are values, and a long run of sweeps keeps many of them, so each
# distinct row is made once and shared, as ``_NO_EXPECTATION`` is: one
# read-only computed mapping per distinct content (keyed by its repr) and
# one row per (label, verdict, content).
_SHARED_COMPUTED: dict = {}
_SHARED_ROWS: dict = {}


def add_row(rep: CatalogReport, label: str, ok: bool,
            computed: dict | None = None) -> None:
    """Append a PASS or FAIL row to a verification report: the shared row
    of that label, verdict and computed content, with an interned label and
    a read-only computed mapping."""
    computed = computed or {}
    key = repr(computed)
    row = _SHARED_ROWS.get((label, ok, key))
    if row is None:
        shared = _SHARED_COMPUTED.setdefault(
            key, MappingProxyType(dict(computed)))
        row = _SHARED_ROWS[label, ok, key] = ReportRow(
            label=intern(label), status="PASS" if ok else "FAIL",
            computed=shared)
    rep.rows.append(row)


# A sub-battery gives the same rows on every call, and a long run keeps every
# report it returns, so each distinct one is made once: a frozen report with
# its (shared) rows in a tuple, keyed by space, kind and row identities.
_SHARED_REPORTS: dict = {}


def shared_report(rep: CatalogReport) -> CatalogReport:
    """The one report with the space, kind and rows of ``rep``, whose rows
    come from ``add_row``; its rows are a tuple, so no caller can change
    what another one reads."""
    key = (rep.space, rep.kind, *map(id, rep.rows))
    shared = _SHARED_REPORTS.get(key)
    if shared is None:
        shared = _SHARED_REPORTS[key] = CatalogReport(
            rep.space, rep.kind, tuple(rep.rows))
    return shared
