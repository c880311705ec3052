"""Verification reports: rows with expected and computed data, rendered as
JSON or markdown.

Every sweep (catalog, foundations, models) returns a ``CatalogReport``.  This
module imports only the standard library, so a command loads the report
types without the sweeps it does not run.  Both types have slots, and a row
that states no expected data shares one read-only empty mapping, since a
long run of sweeps keeps many rows.  A row is frozen, so a sweep may share
one row between reports, and its ``expected`` and ``computed`` may be
read-only mappings; ``as_json`` copies both into plain dicts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
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


@dataclass(slots=True)
class CatalogReport:
    space: str
    kind: str
    rows: list[ReportRow] = field(default_factory=list)

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
