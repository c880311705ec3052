"""Catalog of totally geodesic type families and their verification sweeps.

The classification tables of the three modeled spaces are versioned in-repo
data, checked exactly with no floating point.  They hold two kinds of row:

* an ``ExpectedRow`` is a type family with its invariants: dimension, rank,
  isotropy angle (rank 1), Hermitian complexity (EIII) and restricted
  sub-multiplicities by ambient label (rank 2).  ``verify_catalog`` rebuilds
  each prototype and compares its analysis with the row;
* a ``WitnessRow`` claims that the family ``label`` lies in ``big``, a larger
  family (``verify_containments``) or the host of a derived space
  (``verify_derived``).  Its witness must be an LTS in the span of big's
  prototype, and its mode says how it is built: ``direct`` (the label's
  prototype), ``quarter-turn`` (its image under an isotropy quarter turn),
  ``diagonal``, ``adapted`` or ``torus`` (a diagonal sphere, a slot-adapted
  prototype or a flat-torus rotation, whose invariants must first match the
  label's prototype), ``intersection`` (big's prototype met with that of the
  label's first part, compared with an ``ExpectedRow`` instead) or ``skip``.

``geodesic_length`` gives exact closed-geodesic lengths in the group case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from math import gcd
from typing import Callable, Iterable, Sequence

from .linalg import Vec, combine, coordinates, vec_add, vec_scale
from .lts import Subspace, analyze, intersect_spans, is_lts, isotropy_rotate
from .scalars import I, ONE, ParseError, Parser, Scalar, ZERO, rat, sqrt
from .spaces import SpaceModel, build_space


class UnknownLabel(KeyError):
    """Raised for a type label with no prototype constructor."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


class NotInLatticeSpan(ValueError):
    """Raised when a geodesic direction is not tangent to the maximal flat."""


# -- type labels -----------------------------------------------------------


def _render_part(p) -> str:
    if isinstance(p, tuple):
        return "(" + ", ".join(_render_part(q) for q in p) + ")"
    return str(p)


@dataclass(frozen=True)
class TypeLabel:
    """A classification type label, round-tripping through its text form."""

    space: str
    parts: tuple

    @classmethod
    def parse(cls, space: str, text: str) -> "TypeLabel":
        try:
            return cls(space, Parser(text).read(Parser.label))
        except ParseError as exc:
            raise UnknownLabel(str(exc)) from exc

    @property
    def text(self) -> str:
        return _render_part(self.parts)

    def __str__(self) -> str:
        return self.text


# -- expected rows ---------------------------------------------------------


@dataclass(frozen=True)
class ExpectedRow:
    """One classification-table entry with its checkable invariants."""

    label: TypeLabel
    dim: int | None = None
    rank: int | None = None
    complexity: str | None = None
    angle: str | None = None
    sub_mults: tuple[tuple[str, int], ...] | None = None
    maximal: bool = False
    opaque: bool = False
    note: str = ""


def _row(space, text, **kw) -> ExpectedRow:
    return ExpectedRow(TypeLabel.parse(space, text), **kw)


def _mults(**kw) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(kw.items()))


def _eiii_rows() -> list[ExpectedRow]:
    rows: list[ExpectedRow] = []
    for ang in ("0", "pi/6", "pi/4"):
        rows.append(_row("EIII", f"(Geo, phi={ang})", dim=1, rank=1, angle=ang,
                         complexity="totally_real"))
    rows.append(_row("EIII", "(P, phi=0, (C,5))", dim=10, rank=1, angle="0",
                     complexity="complex"))
    for k in range(5, 9):
        rows.append(_row("EIII", f"(P, phi=pi/4, (S,{k}))", dim=k, rank=1,
                         angle="pi/4", complexity="totally_real"))
    rows.append(_row("EIII", "(P, phi=pi/4, (O,2))", dim=16, rank=1,
                     angle="pi/4", complexity="totally_real", maximal=True))
    for ell in (4, 5):
        for k1 in ("R", "C"):
            for k2 in ("R", "C"):
                d1 = (ell - 1) * (2 if k1 == "C" else 1)
                dim = 2 + d1 + (1 if k1 == "C" else 0) + (1 if k2 == "C" else 0)
                cx = {("R", "R"): "totally_real", ("C", "C"): "complex"}.get(
                    (k1, k2), "neither")
                sm = {"l1": d1}
                if k1 == "C":
                    sm["2l1"] = 1
                if k2 == "C":
                    sm["2l2"] = 1
                rows.append(_row(
                    "EIII", f"(PxP1, ({k1},{ell}), {k2})", dim=dim, rank=2,
                    complexity=cx, sub_mults=_mults(**sm),
                    maximal=(ell == 5 and k1 == "C" and k2 == "C")))
    rows.append(_row("EIII", "(Q)", dim=16, rank=2, complexity="complex",
                     sub_mults=_mults(l3=6, l4=6, **{"2l1": 1, "2l2": 1}),
                     maximal=True))
    rows.append(_row("EIII", "(G2C6)", dim=16, rank=2, complexity="complex",
                     sub_mults=_mults(l1=4, l2=4, l3=2, l4=2,
                                      **{"2l1": 1, "2l2": 1}), maximal=True))
    rows.append(_row("EIII", "(G2H4)", dim=16, rank=2,
                     complexity="totally_real",
                     sub_mults=_mults(l1=4, l2=4, l3=3, l4=3), maximal=True))
    rows.append(_row("EIII", "(DIII)", dim=20, rank=2, complexity="complex",
                     sub_mults=_mults(l1=4, l2=4, l3=4, l4=4,
                                      **{"2l1": 1, "2l2": 1}), maximal=True))
    for host in ("Q", "G2C6", "G2H4"):
        rows.append(_row("EIII", f"({host}, tau)", opaque=True,
                         note="sub-families of the host space carried over "
                              "from external classifications"))
    return rows


def _eiv_rows() -> list[ExpectedRow]:
    rows: list[ExpectedRow] = []
    for ang in ("0", "pi/6", "pi/3"):
        rows.append(_row("EIV", f"(Geo, phi={ang})", dim=1, rank=1, angle=ang))
    for ell in range(2, 10):
        rows.append(_row("EIV", f"(S, phi=pi/6, {ell})", dim=ell, rank=1,
                         angle="pi/6"))
    for k, dim_k in (("R", 1), ("C", 2), ("H", 4)):
        for ell in (2, 3):
            rows.append(_row("EIV", f"(P, phi=pi/6, ({k},{ell}))",
                             dim=dim_k * ell, rank=1, angle="pi/6",
                             maximal=(k == "H" and ell == 3)))
    rows.append(_row("EIV", "(P, phi=pi/6, (O,2))", dim=16, rank=1,
                     angle="pi/6", maximal=True))
    rows.append(_row("EIV", "(AI)", dim=5, rank=2,
                     sub_mults=_mults(l1=1, l2=1, l3=1)))
    rows.append(_row("EIV", "(A2)", dim=8, rank=2,
                     sub_mults=_mults(l1=2, l2=2, l3=2)))
    rows.append(_row("EIV", "(AII)", dim=14, rank=2, maximal=True,
                     sub_mults=_mults(l1=4, l2=4, l3=4)))
    for ell in range(1, 10):
        sm = _mults(l1=ell - 1) if ell > 1 else None
        rows.append(_row("EIV", f"(SxS1, {ell})", dim=ell + 1, rank=2,
                         sub_mults=sm, maximal=(ell == 9)))
    return rows


_G2_SKEW = "arctan(1/(3*sqrt(3)))"


def _g2_rows() -> list[ExpectedRow]:
    rows: list[ExpectedRow] = []
    for ang in ("0", _G2_SKEW, "pi/6"):
        rows.append(_row("G2group", f"(Geo, phi={ang})", dim=1, rank=1,
                         angle=ang))
    for ang in ("0", _G2_SKEW, "pi/6"):
        for ell in (2, 3):
            rows.append(_row(
                "G2group", f"(S, phi={ang}, {ell})", dim=ell, rank=1,
                angle=ang, maximal=(ang == _G2_SKEW and ell == 3)))
    for ell in (2, 3):
        rows.append(_row("G2group", f"(P, phi=pi/6, (R,{ell}))", dim=ell,
                         rank=1, angle="pi/6"))
    rows.append(_row("G2group", "(P, phi=pi/6, (C,2))", dim=4, rank=1,
                     angle="pi/6"))
    for ell in (1, 2, 3):
        for ellp in (1, 2, 3):
            sm = {}
            if ell > 1:
                sm["l1"] = ell - 1
            if ellp > 1:
                sm["l6"] = ellp - 1
            rows.append(_row(
                "G2group", f"(SxS, {ell}, {ellp})", dim=ell + ellp, rank=2,
                sub_mults=_mults(**sm) if sm else None,
                maximal=(ell == 3 and ellp == 3)))
    rows.append(_row("G2group", "(AI)", dim=5, rank=2,
                     sub_mults=_mults(l2=1, l5=1, l6=1)))
    rows.append(_row("G2group", "(A2)", dim=8, rank=2, maximal=True,
                     sub_mults=_mults(l2=2, l5=2, l6=2)))
    rows.append(_row("G2group", "(G)", dim=8, rank=2, maximal=True,
                     sub_mults=_mults(l1=1, l2=1, l3=1, l4=1, l5=1, l6=1)))
    return rows


_EXPECTED: dict[str, Callable[[], list[ExpectedRow]]] = {
    "EIII": _eiii_rows,
    "EIV": _eiv_rows,
    "G2group": _g2_rows,
}


def expected_rows(space_name: str) -> list[ExpectedRow]:
    """The embedded classification table for one space."""
    try:
        return _EXPECTED[space_name]()
    except KeyError:
        raise UnknownLabel(space_name) from None


# -- prototype constructors ------------------------------------------------


def _add(*vecs: Sequence[Scalar]) -> Vec:
    out = list(vecs[0])
    for v in vecs[1:]:
        out = vec_add(out, v)
    return out


def _slot_vectors(sp: SpaceModel, label: str, idxs: Iterable[int],
                  kind: str = "C") -> list[Vec]:
    """Chart vectors of the given slots: full complex, real or imaginary."""
    out: list[Vec] = []
    for i in idxs:
        u, v = sp.charts[label].pairs[i]
        if kind == "C":
            out.append(list(u))
            if v is not None:
                out.append(list(v))
        elif kind == "R":
            out.append(list(u))
        elif kind == "iR":
            out.append(list(v))
        else:
            raise ValueError(kind)
    return out


def _geo_direction(sp: SpaceModel, ang: str) -> Vec:
    """Unnormalized geodesic direction at the given isotropy angle."""
    sh = sp.sharp
    table = {
        "EIII": {  # cos(t) l2# + sin(t) l1#
            "0": ((rat(1), "l2"),),
            "pi/6": ((sqrt(3), "l2"), (ONE, "l1")),
            "pi/4": ((ONE, "l2"), (ONE, "l1")),
        },
        "EIV": {  # cos(t) (l1# + l3#)/sqrt(3) + sin(t) l2#
            "0": ((ONE, "l1"), (ONE, "l3")),
            "pi/6": ((ONE, "l1"), (ONE, "l3"), (ONE, "l2")),
            "pi/3": ((ONE, "l1"), (ONE, "l3"), (rat(3), "l2")),
        },
        "G2group": {  # cos(t) l4# + sin(t) l2#/sqrt(3)
            "0": ((ONE, "l4"),),
            _G2_SKEW: ((rat(9), "l4"), (ONE, "l2")),
            "pi/6": ((rat(3), "l4"), (ONE, "l2")),
        },
    }
    try:
        terms = table[sp.name][ang]
    except KeyError:
        raise UnknownLabel(f"(Geo, phi={ang}) in {sp.name}") from None
    return _add(*(vec_scale(c, sh[lab]) for c, lab in terms))


def _eiii_prototype(sp: SpaceModel, parts: tuple) -> list[Vec]:
    ch, sh = sp.charts, sp.sharp
    a = [list(v) for v in sp.a_basis]
    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "P" and parts[1] == "phi=0":
        k, ell = parts[2]
        kind = {"R": "R", "C": "C"}[k]
        vecs = [list(sh["l2"])]
        vecs += _slot_vectors(sp, "l2", range(ell - 1), kind)
        if k == "C":
            vecs += _slot_vectors(sp, "2l2", [0], "R")
        return vecs
    if fam == "P" and parts[1] == "phi=pi/4":
        tau, num = parts[2]
        h = _add(sh["l1"], sh["l2"])
        ht = _add(ch["2l1"].map(1), ch["2l2"].map(1))
        if tau == "S":
            m4 = ch["l4"].basis_vectors()
            return [h, *m4[: num - 2], ht]
        # projective planes over R, C, H, O: diagonal l1/l2 pairs
        def diag(c1, c2, c3, c4):
            return _add(ch["l1"].map(c1, c2, c3, c4),
                        ch["l2"].map(c2, c1, -c4, -c3))
        if tau == "R":
            return [h, diag(ONE, ZERO + 0, ZERO + 0, ZERO + 0)]
        if tau == "C":
            return [h, diag(ONE, ZERO + 0, ZERO + 0, ZERO + 0),
                    diag(I, ZERO + 0, ZERO + 0, ZERO + 0), ht]
        if tau == "H":
            args = [(ONE, ZERO), (I, ZERO), (ZERO, ONE), (ZERO, I)]
            return [h, *(diag(c1, c2, ZERO + 0, ZERO + 0) for c1, c2 in args),
                    *_slot_vectors(sp, "l4", [2], "C"), ht]
        if tau == "O":
            args = []
            for i in range(4):
                for c in (ONE, I):
                    cs = [ZERO + 0] * 4
                    cs[i] = c
                    args.append(tuple(cs))
            return [h, *ch["l4"].basis_vectors(),
                    *(diag(*cs) for cs in args), ht]
        raise UnknownLabel(_render_part(parts))
    if fam == "PxP1":
        (k1, ell), k2 = parts[1], parts[2]
        vecs = list(a)
        vecs += _slot_vectors(sp, "l1", range(ell - 1),
                              "C" if k1 == "C" else "R")
        if k1 == "C":
            vecs += _slot_vectors(sp, "2l1", [0], "R")
        if k2 == "C":
            vecs += _slot_vectors(sp, "2l2", [0], "R")
        return vecs
    if fam == "Q":
        return [*a, *ch["l3"].basis_vectors(), *ch["l4"].basis_vectors(),
                ch["2l1"].map(1), ch["2l2"].map(1)]
    if fam == "G2C6":
        return [*a, *_slot_vectors(sp, "l1", [0, 1]),
                *_slot_vectors(sp, "l2", [0, 1]),
                *_slot_vectors(sp, "l3", [2]), *_slot_vectors(sp, "l4", [2]),
                *_slot_vectors(sp, "2l1", [0], "R"),
                *_slot_vectors(sp, "2l2", [0], "R")]
    if fam == "G2H4":
        return [*a, *_slot_vectors(sp, "l1", range(4), "R"),
                *_slot_vectors(sp, "l2", range(4), "iR"),
                *_slot_vectors(sp, "l3", range(3), "R"),
                *_slot_vectors(sp, "l4", range(3), "R")]
    if fam == "DIII":
        return [*a, *_slot_vectors(sp, "l1", [0, 2]),
                *_slot_vectors(sp, "l2", [0, 2]),
                *_slot_vectors(sp, "l3", [1, 2]),
                *_slot_vectors(sp, "l4", [1, 2]),
                *_slot_vectors(sp, "2l1", [0], "R"),
                *_slot_vectors(sp, "2l2", [0], "R")]
    raise UnknownLabel(_render_part(parts))


def _eiv_pair12(sp: SpaceModel, args1, args2) -> Vec:
    return _add(sp.charts["l1"].map(*args1), sp.charts["l2"].map(*args2))


def _eiv_projective_span(sp: SpaceModel, k: str, ell: int) -> list[Vec]:
    z = ZERO + 0
    p = _eiv_pair12
    v0 = p(sp, (1, 0, 0, 0), (1, 0, 0, 0))
    v1 = p(sp, (I, z, z, z), (-I, z, z, z))
    v0c = p(sp, (z, z, z, I), (z, z, z, -I))
    v1c = p(sp, (0, 0, 0, 1), (0, 0, 0, 1))
    v0h = p(sp, (z, z, I, z), (z, z, -I, z))
    v1h = p(sp, (0, 0, 1, 0), (0, 0, 1, 0))
    v0ch = p(sp, (0, 1, 0, 0), (0, 1, 0, 0))
    v1ch = p(sp, (z, -I, z, z), (z, I, z, z))
    v0o = p(sp, (I, z, z, z), (I, z, z, z))
    v0co = p(sp, (0, 0, 0, 1), (0, 0, 0, -1))
    v0ho = p(sp, (0, 0, 1, 0), (0, 0, -1, 0))
    v0cho = p(sp, (z, -I, z, z), (z, -I, z, z))
    w = [sp.charts["l3"].map(*args) for args in
         [(1, 0, 0, 0), (0, 1, 0, 0), (z, z, I, z), (0, 0, 0, 1),
          (-I, z, z, z), (z, I, z, z), (0, 0, 1, 0)]]
    h = list(sp.sharp["l3"])
    spans = {
        ("R", 2): [h, v0],
        ("R", 3): [h, v0, v1],
        ("C", 2): [h, v0, v0c, w[0]],
        ("C", 3): [h, v0, v0c, w[0], v1, v1c],
        ("H", 2): [h, v0, v0c, v0h, v0ch, w[0], w[1], w[2]],
        ("H", 3): [h, v0, v0c, v0h, v0ch, w[0], w[1], w[2],
                   v1, v1c, v1h, v1ch],
        ("O", 2): [h, v0, v0c, v0h, v0ch, v0o, v0co, v0ho, v0cho, *w],
    }
    try:
        return spans[(k, ell)]
    except KeyError:
        raise UnknownLabel(f"(P, phi=pi/6, ({k},{ell}))") from None


def _eiv_prototype(sp: SpaceModel, parts: tuple) -> list[Vec]:
    ch, sh = sp.charts, sp.sharp
    a = [list(v) for v in sp.a_basis]
    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "S":
        ell = parts[2]
        return [list(sh["l1"]), *ch["l1"].basis_vectors()[: ell - 1]]
    if fam == "P":
        k, ell = parts[2]
        return _eiv_projective_span(sp, k, ell)
    if fam == "AI":
        return [*a, *_slot_vectors(sp, "l1", [0], "R"),
                *_slot_vectors(sp, "l2", [0], "R"),
                *_slot_vectors(sp, "l3", [3], "iR")]
    if fam == "A2":
        return [*a, *_slot_vectors(sp, "l1", [0]),
                *_slot_vectors(sp, "l2", [0]), *_slot_vectors(sp, "l3", [3])]
    if fam == "AII":
        return [*a, *_slot_vectors(sp, "l1", [0, 1]),
                *_slot_vectors(sp, "l2", [0, 1]),
                *_slot_vectors(sp, "l3", [2, 3])]
    if fam == "SxS1":
        ell = parts[1]
        return [*a, *ch["l1"].basis_vectors()[: ell - 1]]
    raise UnknownLabel(_render_part(parts))


def _g2_prototype(sp: SpaceModel, parts: tuple) -> list[Vec]:
    ch, sh = sp.charts, sp.sharp
    a = [list(v) for v in sp.a_basis]
    s3 = sqrt(3)

    def V(k: int, c) -> Vec:
        return ch[f"l{k}"].map(c)

    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "S":
        ang, ell = parts[1].removeprefix("phi="), parts[2]
        if ang == "0":
            return [list(sh["l1"]), *ch["l1"].basis_vectors()[: ell - 1]]
        if ang == "pi/6":
            return [list(sh["l6"]), *ch["l6"].basis_vectors()[: ell - 1]]
        if ang == _G2_SKEW:
            c = rat(1, 3) * sqrt(5)
            gens = [_add(vec_scale(rat(9), sh["l1"]),
                         vec_scale(rat(5), sh["l2"])),
                    _add(V(1, 1), V(2, c)), _add(V(1, I), V(2, c * I))]
            return gens[:ell]
        raise UnknownLabel(_render_part(parts))
    if fam == "P":
        k, ell = parts[2]
        if k == "R":
            gens = [list(sh["l6"]), _add(V(2, 1), V(4, s3)),
                    _add(V(2, I), V(4, -s3 * I))]
            return gens[:ell]
        if k == "C" and ell == 2:
            return [list(sh["l6"]), _add(V(2, 1), V(4, s3)),
                    _add(V(3, s3 * I), V(5, I)), V(6, 1)]
        raise UnknownLabel(_render_part(parts))
    if fam == "SxS":
        ell, ellp = parts[1], parts[2]
        return [*a, *ch["l1"].basis_vectors()[: ell - 1],
                *ch["l6"].basis_vectors()[: ellp - 1]]
    if fam == "AI":
        return [*a, V(2, 1), V(5, 1), V(6, I)]
    if fam == "A2":
        return [*a, *_slot_vectors(sp, "l2", [0]),
                *_slot_vectors(sp, "l5", [0]), *_slot_vectors(sp, "l6", [0])]
    if fam == "G":
        return [*a, V(1, 1), V(2, 1), V(3, I), V(4, 1), V(5, I), V(6, 1)]
    raise UnknownLabel(_render_part(parts))


_PROTO: dict[str, Callable[[SpaceModel, tuple], list[Vec]]] = {
    "EIII": _eiii_prototype,
    "EIV": _eiv_prototype,
    "G2group": _g2_prototype,
}


def make_prototype(sp: SpaceModel, label: TypeLabel | str) -> Subspace:
    """The embedded prototype subspace of a classification type."""
    if isinstance(label, str):
        label = TypeLabel.parse(sp.name, label)
    if label.space != sp.name:
        raise UnknownLabel(f"{label.text} belongs to {label.space}")
    vecs = _PROTO[sp.name](sp, label.parts)
    return Subspace(sp, vecs)


# -- report plumbing -------------------------------------------------------


@dataclass
class ReportRow:
    label: str
    status: str  # PASS | FAIL | SKIPPED
    expected: dict = field(default_factory=dict)
    computed: dict = field(default_factory=dict)
    certificate: str = ""

    def as_json(self) -> dict:
        return {"label": self.label, "expected": self.expected,
                "computed": self.computed, "status": self.status,
                "certificate": self.certificate}


@dataclass
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


def _computed_mults(report) -> tuple[tuple[str, int], ...]:
    out = {}
    for sr in report.restricted or []:
        out["+".join(sr.labels)] = sr.mult
    return tuple(sorted(out.items()))


# -- expected invariants ---------------------------------------------------


def _check_expected(sp: SpaceModel, row: ExpectedRow, S: Subspace,
                    label: str, seed: int) -> ReportRow:
    """Analyze S and compare it with the row; a FAIL names the closure
    defect or else the first invariant that did not match."""
    r = analyze(S, seed=seed)
    expected = {"dim": row.dim, "rank": row.rank}
    computed = {"dim": S.dim, "rank": r.rank, "is_lts": r.is_lts}
    if row.angle is not None:
        expected["angle"] = row.angle
        computed["angle"] = r.isotropy_angle.name if r.isotropy_angle else None
    if row.complexity is not None:
        expected["complexity"] = row.complexity
        computed["complexity"] = r.complexity
    if row.sub_mults is not None:
        expected["sub_mults"] = dict(row.sub_mults)
        computed["sub_mults"] = dict(_computed_mults(r))
    if row.maximal:
        computed["maximal"] = "consistent-with-catalog"
    if not r.is_lts:
        failure = f"closure fails at triple {r.certificate}"
    else:
        failure = next((f"{key}: expected {want}, computed {computed[key]}"
                        for key, want in expected.items()
                        if computed[key] != want), "")
    return ReportRow(label, "FAIL" if failure else "PASS", expected,
                     computed, failure)


def verify_catalog(sp: SpaceModel, seed: int = 0) -> CatalogReport:
    """Rebuild every prototype of the space and check all its invariants."""
    rep = CatalogReport(sp.name, "classification")
    for row in expected_rows(sp.name):
        if row.opaque:
            rep.rows.append(ReportRow(row.label.text, "SKIPPED",
                                      certificate=row.note))
        else:
            rep.rows.append(_check_expected(
                sp, row, make_prototype(sp, row.label), row.label.text, seed))
    return rep


def _invariants_match(sp: SpaceModel, A: Subspace, B: Subspace,
                      seed: int = 0) -> bool:
    """Both are LTS with the same dim, rank, angle, complexity (EIII) and
    restricted data: the normalized squared root values with multiplicities
    in rank 1, the multiplicities by ambient label in rank 2."""
    def invariants(S: Subspace) -> tuple | None:
        r = analyze(S, seed=seed)
        if not r.is_lts:
            return None
        if r.rank == 1:
            h = r.flat.basis[0]
            n2 = sp.inner(h, h)
            roots = sorted((sorted(str(v * v / n2) for v in sr.values),
                            sr.mult) for sr in r.restricted or [])
        else:
            roots = _computed_mults(r)
        angle = r.isotropy_angle.name if r.isotropy_angle else None
        return (S.dim, r.rank, angle, r.complexity, roots)

    inv = invariants(A)
    return inv is not None and inv == invariants(B)


# -- isometry witnesses ----------------------------------------------------


_PHASES = {
    0: (ONE, ZERO), 1: (sqrt(3) * rat(1, 2), rat(1, 2)),
    2: (rat(1, 2), sqrt(3) * rat(1, 2)), 3: (ZERO, ONE),
    4: (-rat(1, 2), sqrt(3) * rat(1, 2)), 5: (-sqrt(3) * rat(1, 2), rat(1, 2)),
    6: (-ONE, ZERO), 7: (-sqrt(3) * rat(1, 2), -rat(1, 2)),
    8: (-rat(1, 2), -sqrt(3) * rat(1, 2)), 9: (ZERO, -ONE),
    10: (rat(1, 2), -sqrt(3) * rat(1, 2)),
    11: (sqrt(3) * rat(1, 2), -rat(1, 2)),
}


def torus_rotate(sp: SpaceModel, vec: Sequence[Scalar], n1: int,
                 n2: int = 0) -> Vec:
    """Rotate by the flat-torus isometry whose angles on the two basic
    restricted roots are n1*pi/6 and n2*pi/6."""
    basis: list[Vec] = [list(av) for av in sp.a_basis]
    images: list[Vec] = [list(av) for av in sp.a_basis]
    for root in sp.restricted.positives:
        m = int(root.coords[0] * n1 + root.coords[1] * n2)
        if (root.coords[0] * n1 + root.coords[1] * n2) != m:
            raise ValueError("non-integral rotation step")
        c, s = _PHASES[m % 12]
        p = c + I * s
        chart = sp.charts[root.label]
        for u, v in chart.pairs:
            basis.append(list(u))
            images.append(chart.map(p))
            if v is not None:
                basis.append(list(v))
                images.append(chart.map(I * p))
    x = coordinates(basis, vec)
    if x is None:
        raise ValueError("vector outside the tangent space")
    return combine(x, images)


def _g2_diagonal_sphere(sp: SpaceModel, ell: int) -> Subspace:
    """Projective-line diagonal inside the product-of-spheres prototype."""
    c = sqrt(3).inv()
    ch = sp.charts
    gens = [
        _add(vec_scale(rat(3), sp.sharp["l1"]), sp.sharp["l6"]),
        _add(ch["l1"].map(1), ch["l6"].map(c)),
        _add(ch["l1"].map(I), ch["l6"].map(I * c)),
    ]
    return Subspace(sp, gens[:ell])


# -- witness rows: containment tables and derived-space catalogs -----------


@dataclass(frozen=True)
class WitnessRow:
    """A claim that the family ``label`` lies in ``big`` (a larger family,
    or a derived space's host); the module docstring lists the modes."""

    label: str
    big: str
    mode: str = "direct"
    note: str = ""
    steps: tuple[int, int] = (0, 0)  # flat-torus steps of a torus row
    expected: ExpectedRow | None = None  # invariants of an intersection row


def containment_rows(space_name: str) -> list[WitnessRow]:
    if space_name == "EIII":
        rows = [
            WitnessRow("(Geo, phi=0)", "(P, phi=0, (C,5))"),
            WitnessRow("(Geo, phi=pi/4)", "(P, phi=pi/4, (S,5))"),
            WitnessRow("(P, phi=0, (R,5))", "(P, phi=0, (C,5))"),
            WitnessRow("(P, phi=0, (C,4))", "(P, phi=0, (C,5))"),
            WitnessRow("(P, phi=pi/4, (S,5))", "(P, phi=pi/4, (S,6))"),
            WitnessRow("(P, phi=pi/4, (S,6))", "(P, phi=pi/4, (S,7))"),
            WitnessRow("(P, phi=pi/4, (S,7))", "(P, phi=pi/4, (S,8))"),
            WitnessRow("(P, phi=pi/4, (S,8))", "(P, phi=pi/4, (O,2))"),
            WitnessRow("(P, phi=pi/4, (R,2))", "(P, phi=pi/4, (O,2))"),
            WitnessRow("(P, phi=pi/4, (C,2))", "(P, phi=pi/4, (O,2))"),
            WitnessRow("(P, phi=pi/4, (H,2))", "(P, phi=pi/4, (O,2))"),
        ]
        for k1 in ("R", "C"):
            for k2 in ("R", "C"):
                rows.append(WitnessRow(f"(PxP1, ({k1},4), {k2})",
                                        "(PxP1, (C,5), C)"))
                if (k1, k2) != ("C", "C"):
                    rows.append(WitnessRow(f"(PxP1, ({k1},5), {k2})",
                                            "(PxP1, (C,5), C)"))
        rows.append(WitnessRow(
            "(P, phi=0, (C,4))", "(Q)", mode="quarter-turn",
            note="image under the quarter-turn isotropy rotation"))
        for host in ("Q", "G2C6", "G2H4"):
            rows.append(WitnessRow(f"({host}, tau)", f"({host})", mode="skip",
                                   note="external sub-family prototypes"))
        return rows
    if space_name == "EIV":
        rows = [WitnessRow(f"(Geo, phi={a})", "(SxS1, 1)")
                for a in ("0", "pi/6", "pi/3")]
        for ell in range(2, 10):
            rows.append(WitnessRow(f"(S, phi=pi/6, {ell})", f"(SxS1, {ell})"))
        for k in ("R", "C", "H"):
            rows.append(WitnessRow(f"(P, phi=pi/6, ({k},2))",
                                   "(P, phi=pi/6, (O,2))"))
        for k in ("R", "C"):
            rows.append(WitnessRow(f"(P, phi=pi/6, ({k},3))",
                                   "(P, phi=pi/6, (H,3))"))
        rows.append(WitnessRow("(AI)", "(A2)"))
        rows.append(WitnessRow("(A2)", "(AII)"))
        for ell in range(1, 9):
            rows.append(WitnessRow(f"(SxS1, {ell})", "(SxS1, 9)"))
        return rows
    if space_name == "G2group":
        rows = [WitnessRow(f"(Geo, phi={a})", "(SxS, 1, 1)")
                for a in ("0", _G2_SKEW, "pi/6")]
        for ell in (2, 3):
            rows.append(WitnessRow(f"(S, phi=0, {ell})", f"(SxS, {ell}, 1)"))
        rows.append(WitnessRow(f"(S, phi={_G2_SKEW}, 2)", "(G)"))
        for ell in (2, 3):
            rows.append(WitnessRow(f"(S, phi=pi/6, {ell})",
                                   f"(SxS, 1, {ell})"))
        for ell in (2, 3):
            rows.append(WitnessRow(
                f"(P, phi=pi/6, (R,{ell}))", f"(SxS, {ell}, {ell})",
                mode="diagonal",
                note="diagonal representative with matching invariants"))
        rows.append(WitnessRow("(P, phi=pi/6, (C,2))", "(G)"))
        for ell in (1, 2, 3):
            for ellp in (1, 2, 3):
                if (ell, ellp) != (3, 3):
                    rows.append(WitnessRow(f"(SxS, {ell}, {ellp})",
                                           "(SxS, 3, 3)"))
        rows.append(WitnessRow("(AI)", "(A2)"))
        return rows
    raise UnknownLabel(space_name)


_DIII_SKIP = "requires an isometry outside the quoted witnesses"
_EXTERNAL = "host family classified in an external ambient model"


def _meet(text: str, **kw) -> WitnessRow:
    """An intersection row of the (DIII) table."""
    return WitnessRow(text, "(DIII)", "intersection",
                      expected=_row("EIII", text, rank=2, **kw))


def derived_hosts() -> dict[str, tuple[str | None, list[WitnessRow]]]:
    """host label -> (parent space or None, derived classification rows)."""
    w = partial(WitnessRow, big="(DIII)")
    diii = [
        *(w(f"(Geo, phi={a})") for a in ("0", "pi/6", "pi/4")),
        w("(P, phi=0, (R,4))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=0, (C,4))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=pi/4, (S,5))", mode="adapted"),
        w("(P, phi=pi/4, (S,6))", mode="adapted"),
        *(w(f"(PxP1, ({k1},3), {k2})", mode="adapted")
          for k1 in ("R", "C") for k2 in ("R", "C")),
        _meet("(Q, (G1,6))", dim=12,
              sub_mults=_mults(l3=4, l4=4, **{"2l1": 1, "2l2": 1})),
        w("(Q, tau)", mode="skip", note="other external sub-families"),
        _meet("(G2C6, (G2,(C,3)))", dim=12,
              sub_mults=_mults(l1=2, l2=2, l3=2, l4=2,
                               **{"2l1": 1, "2l2": 1})),
        w("(G2C6, tau)", mode="skip", note="other external sub-families"),
        _meet("(G2H4, (Sp2))", dim=10,
              sub_mults=_mults(l1=2, l2=2, l3=2, l4=2)),
        w("(G2H4, tau)", mode="skip", note="other external sub-families"),
    ]
    w = partial(WitnessRow, big="(AII)")
    aii = [
        *(w(f"(Geo, phi={a})") for a in ("0", "pi/6", "pi/3")),
        *(w(f"(S, phi=pi/6, {e})") for e in range(2, 6)),
        w("(P, phi=pi/6, (R,2))"),
        w("(P, phi=pi/6, (R,3))"),
        w("(P, phi=pi/6, (C,2))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=pi/6, (C,3))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=pi/6, (H,2))", mode="skip", note=_DIII_SKIP),
        w("(AI)"),
        w("(A2)"),
        *(w(f"(SxS1, {e})") for e in range(1, 6)),
    ]
    w = partial(WitnessRow, big="(A2)")
    a2 = [
        *(w(f"(Geo, phi={a})") for a in ("0", "pi/6", "pi/3")),
        *(w(f"(S, phi=pi/6, {e})") for e in (2, 3)),
        w("(P, phi=pi/6, (R,2))"),
        w("(P, phi=pi/6, (R,3))"),
        w("(P, phi=pi/6, (C,2))", mode="skip", note=_DIII_SKIP),
        w("(AI)"),
        *(w(f"(SxS1, {e})") for e in (1, 2, 3)),
    ]
    w = partial(WitnessRow, big="(G)")
    g = [
        *(w(f"(Geo, phi={a})") for a in ("0", _G2_SKEW, "pi/6")),
        w("(S, phi=0, 2)"),
        w(f"(S, phi={_G2_SKEW}, 2)"),
        w("(S, phi=pi/6, 2)"),
        w("(P, phi=pi/6, (R,2))"),
        w("(P, phi=pi/6, (C,2))"),
        w("(AI)", mode="torus", steps=(3, 0),
          note="image under an exact flat-torus rotation"),
        *(w(f"(SxS, {e}, {ep})") for e in (1, 2) for ep in (1, 2)),
    ]
    sp2 = [
        WitnessRow(t, "(Sp2)", "skip", _EXTERNAL) for t in
        ["(Geo, phi=t)", "(S, arctan(1/3), 2)", "(S, arctan(1/3), 3)",
         "(P, phi=pi/4, (R,1))", "(P, phi=pi/4, (C,1))",
         "(P, phi=pi/4, (S3))", "(P, phi=pi/4, (H,1))",
         "(PxP, tau1, tau2)", "(S1xS5, 2)", "(S1xS5, 3)", "(Q3)"]
    ]
    return {
        "(DIII)": ("EIII", diii),
        "(AII)": ("EIV", aii),
        "(A2)": ("EIV", a2),
        "(G)": ("G2group", g),
        "(Sp2)": (None, sp2),
    }


def _adapted_prototype(sp: SpaceModel, label: TypeLabel) -> Subspace:
    """Slot-adapted EIII representative inside the (DIII) host's slots."""
    parts = label.parts
    ch, sh = sp.charts, sp.sharp
    if parts[0] == "P" and parts[1] == "phi=pi/4":
        k = parts[2][1]
        h = _add(sh["l1"], sh["l2"])
        ht = _add(ch["2l1"].map(1), ch["2l2"].map(1))
        m4 = _slot_vectors(sp, "l4", [1, 2])
        return Subspace(sp, [h, *m4[: k - 2], ht])
    if parts[0] == "PxP1":
        (k1, ell), k2 = parts[1], parts[2]
        vecs = [list(v) for v in sp.a_basis]
        vecs += _slot_vectors(sp, "l1", [0, 2], "C" if k1 == "C" else "R")
        if k1 == "C":
            vecs += _slot_vectors(sp, "2l1", [0], "R")
        if k2 == "C":
            vecs += _slot_vectors(sp, "2l2", [0], "R")
        return Subspace(sp, vecs)
    raise UnknownLabel(f"{label} in (DIII)")


def _witness(sp: SpaceModel, row: WitnessRow,
             seed: int) -> tuple[Subspace, str]:
    """The row's witness subspace, and the certificate of a failed
    representative gate ("" when the witness goes on to be checked)."""
    label = TypeLabel.parse(sp.name, row.label)
    quoted = make_prototype(sp, label)
    if row.mode == "direct":
        return quoted, ""
    if row.mode == "quarter-turn":
        z = sp.k_charts["l1"].pairs[2][0]
        return Subspace(sp, [isotropy_rotate(sp, z, v)
                             for v in quoted.basis]), ""
    if row.mode == "diagonal":
        small = _g2_diagonal_sphere(sp, label.parts[2][1])
        failure = "representative invariants do not match"
    elif row.mode == "adapted":
        small = _adapted_prototype(sp, label)
        failure = "adapted representative mismatch"
    elif row.mode == "torus":
        small = Subspace(sp, [torus_rotate(sp, v, *row.steps)
                              for v in quoted.basis])
        failure = "rotated representative mismatch"
    else:
        raise ValueError(row.mode)
    return small, "" if _invariants_match(sp, quoted, small, seed) else failure


def _verify_witnesses(sp: SpaceModel | None, rep: CatalogReport,
                      rows: list[WitnessRow], seed: int,
                      show_big: bool) -> CatalogReport:
    """Check each row's witness: an LTS inside the span of its big family,
    whose prototype is built once per sweep."""
    big_span = cache(lambda text: make_prototype(sp, text).span())
    for row in rows:
        label = f"{row.label} in {row.big}" if show_big else row.label
        if row.mode == "skip":
            rep.rows.append(ReportRow(label, "SKIPPED", certificate=row.note))
            continue
        big = big_span(row.big)
        if row.mode == "intersection":
            family = TypeLabel(sp.name, row.expected.label.parts[:1])
            meet = intersect_spans(big.basis(),
                                   make_prototype(sp, family).basis)
            rep.rows.append(_check_expected(sp, row.expected,
                                            Subspace(sp, meet), label, seed))
            continue
        small, failure = _witness(sp, row, seed)
        if failure:
            rep.rows.append(ReportRow(label, "FAIL", certificate=failure))
            continue
        ok = is_lts(small) and all(big.contains(v) for v in small.basis)
        rep.rows.append(ReportRow(
            label, "PASS" if ok else "FAIL",
            computed={"small_dim": small.dim, "contained": ok},
            certificate=row.note))
    return rep


def verify_containments(sp: SpaceModel, seed: int = 0) -> CatalogReport:
    """Check every inclusion row of the space's containment table."""
    return _verify_witnesses(sp, CatalogReport(sp.name, "containments"),
                             containment_rows(sp.name), seed, show_big=True)


def verify_derived(host_text: str, seed: int = 0) -> CatalogReport:
    """Verify the classification of a derived space inside its host."""
    hosts = derived_hosts()
    if host_text not in hosts:
        raise UnknownLabel(host_text)
    parent, rows = hosts[host_text]
    rep = CatalogReport(parent or "external", f"derived {host_text}")
    sp = build_space(parent) if parent else None
    return _verify_witnesses(sp, rep, rows, seed, show_big=False)


# -- closed geodesic lengths (group case) ----------------------------------


@dataclass(frozen=True)
class ClosedGeodesic:
    """Length of the closed unit-speed geodesic: coeff * pi * sqrt(rad)."""

    coeff: Fraction
    radicand: int

    @property
    def text(self) -> str:
        c = (str(self.coeff) if self.coeff.denominator != 1
             else str(self.coeff.numerator))
        out = f"{c}*pi"
        if self.radicand != 1:
            out += f"*sqrt({self.radicand})"
        return out

    def __str__(self) -> str:
        return self.text


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    num = gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator
           // gcd(a.denominator, b.denominator))
    return Fraction(num, den)


_LATTICE_BASIS = ("l2", "l5")


def geodesic_length(sp: SpaceModel, H: Sequence[Scalar]) -> ClosedGeodesic | None:
    """Exact length of the geodesic with initial unit vector H tangent to
    the maximal flat, or None when the geodesic does not close."""
    if sp.name != "G2group":
        raise UnknownLabel("geodesic lengths are modeled for G2group only")
    if not sp.a_span.contains(H):
        raise NotInLatticeSpan("direction not tangent to the maximal flat")
    x = coordinates([sp.sharp[l] for l in _LATTICE_BASIS], H)
    if x is None:
        raise NotInLatticeSpan("direction outside the lattice span")
    terms: list[tuple[int, Fraction]] = []
    for coord in x:
        per = [(d, re) for d, re, im in coord.terms()
               if not (re == 0 and im == 0)]
        if any(im != 0 for _, _, im in coord.terms()):
            raise NotInLatticeSpan("direction must be real")
        if len(per) > 1:
            return None  # mixed radicands: irrational coordinate ratio
        if per:
            terms.append(per[0])
    if not terms:
        raise ValueError("zero direction")
    radicands = {d for d, _ in terms}
    if len(radicands) > 1:
        return None
    d = radicands.pop()
    g = Fraction(0)
    for _, r in terms:
        g = _frac_gcd(g, abs(r) * d) if g else abs(r) * d
    u = 1 / g
    return ClosedGeodesic(coeff=Fraction(4, 3) * u, radicand=d)


def lattice_is_integral(sp: SpaceModel) -> bool:
    """Every basic period vector is an integer combination of the two
    generating period vectors."""
    lattice = [sp.sharp[l] for l in _LATTICE_BASIS]
    for root in sp.restricted.positives:
        v = sp.sharp[root.label]
        n2 = sp.inner(v, v)
        w = vec_scale(rat(3) * n2.inv(), v)
        c = coordinates(lattice, w)
        if c is None:
            return False
        for t in c:
            if not t.is_rational() or t.rational_value().denominator != 1:
                return False
    return True


# -- flat-vector expressions (CLI support) ---------------------------------


def parse_flat_vector(sp: SpaceModel, text: str) -> Vec:
    """Flat vector of a linear expression in l1, l2, ..., e.g. 'l1/2'."""
    coeffs = Parser(text, sp.sharp).read(Parser.expr)
    if isinstance(coeffs, Scalar):
        raise ParseError(f"no flat direction in {text!r}")
    return combine([coeffs.get(label, ZERO) for label in sp.sharp],
                   list(sp.sharp.values()))
