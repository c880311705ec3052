"""Type labels, the expected classification rows of the three modeled
spaces, and the prototype constructors: ``make_prototype`` builds the
standard totally geodesic subspace of a type family from the chart vectors
of its space.  The rows are versioned in-repo data, checked exactly with no
floating point by the sweeps of ``ltskit.catalog``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .linalg import Vec, vec_add, vec_scale
from .lts import Subspace
from .scalars import I, ONE, ParseError, Parser, Scalar, ZERO, rat, sqrt
from .spaces import SpaceModel


class UnknownLabel(KeyError):
    """Raised for a type label with no prototype constructor."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


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
        sm = _mults(l1=ell - 1) if ell > 1 else _mults()  # the flat torus
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
                sub_mults=_mults(**sm),
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
