"""Type labels, the expected classification rows of the three modeled
spaces, and the prototype constructors ``_PROTO``, which write the standard
totally geodesic subspace of a type family from the chart vectors of its
space; ``ltskit.catalog.make_prototype`` calls them for the labels that the
tables name.  The rows are versioned in-repo data, checked exactly.

A prototype is one representative of its congruence class.  Each is written
inside every family that a containment or derived row of ``ltskit.catalog``
puts it in, so those rows check the prototype itself; only the quarter-turn
row checks an isometric image of it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .linalg import Vec, combine
from .scalars import I, ParseError, Parser, rat, sqrt
from .spaces import ANGLE_NAMES, SpaceModel


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


_G2_SKEW = "arctan(1/(3*sqrt(3)))"

# the isotropy angles of each space's (Geo, phi) rows, in table order
GEO_ANGLES = {
    "EIII": ("0", "pi/6", "pi/4"),
    "EIV": ("0", "pi/6", "pi/3"),
    "G2group": ("0", _G2_SKEW, "pi/6"),
}


def _eiii_rows() -> list[ExpectedRow]:
    rows: list[ExpectedRow] = []
    for ang in GEO_ANGLES["EIII"]:
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
    for ang in GEO_ANGLES["EIV"]:
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


def _g2_rows() -> list[ExpectedRow]:
    rows: list[ExpectedRow] = []
    for ang in GEO_ANGLES["G2group"]:
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


def _slot_vectors(sp: SpaceModel, label: str, idxs: Iterable[int],
                  kind: str = "C") -> list[Vec]:
    """Chart vectors of the given slots: full complex, real or imaginary.
    They are the model's own vectors, not copies."""
    if kind not in ("C", "R", "iR"):
        raise ValueError(kind)
    out: list[Vec] = []
    for i in idxs:
        u, v = sp.charts[label].pairs[i]
        if kind != "iR":
            out.append(u)
        if kind != "R" and v is not None:
            out.append(v)
    return out


def _geo_direction(sp: SpaceModel, ang: str) -> Vec:
    """Unnormalized geodesic direction r0 + tan(phi) e at one of the
    space's (Geo, phi) angles, in the frame (r0, e) that isotropy_angle
    reads the angle back in."""
    if ang not in GEO_ANGLES[sp.name]:
        raise UnknownLabel(f"(Geo, phi={ang}) in {sp.name}")
    tan_sq = next(t for t, name in ANGLE_NAMES.items() if name == ang)
    return combine([1, rat(tan_sq).sqrt_if_expressible()], sp.angle_frame())


def _eiii_prototype(sp: SpaceModel, parts: tuple) -> list[Vec]:
    ch, sh = sp.charts, sp.sharp
    a = sp.a_basis
    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "P" and parts[1] == "phi=0":
        k, ell = parts[2]
        kind = {"R": "R", "C": "C"}[k]
        vecs = [sh["l2"]]
        vecs += _slot_vectors(sp, "l2", range(ell - 1), kind)
        if k == "C":
            vecs += _slot_vectors(sp, "2l2", [0], "R")
        return vecs
    if fam == "P" and parts[1] == "phi=pi/4":
        tau, num = parts[2]
        h = combine([1, 1], [sh["l1"], sh["l2"]])
        ht = combine([1, 1], [ch["2l1"].map(1), ch["2l2"].map(1)])
        if tau == "S":  # slots 1 and 2 first: inside the (DIII) prototype
            m4 = _slot_vectors(sp, "l4", [1, 2, 0])
            return [h, *m4[: num - 2], ht]
        # projective planes over R, C, H, O: diagonal l1/l2 pairs
        def diag(c1, c2, c3, c4):
            return combine([1, 1], [ch["l1"].map(c1, c2, c3, c4),
                                    ch["l2"].map(c2, c1, -c4, -c3)])
        if tau == "R":
            return [h, diag(1, 0, 0, 0)]
        if tau == "C":
            return [h, diag(1, 0, 0, 0), diag(I, 0, 0, 0), ht]
        if tau == "H":
            args = [(1, 0), (I, 0), (0, 1), (0, I)]
            return [h, *(diag(c1, c2, 0, 0) for c1, c2 in args),
                    *_slot_vectors(sp, "l4", [2], "C"), ht]
        if tau == "O":
            args = [[c if j == i else 0 for j in range(4)]
                    for i in range(4) for c in (1, I)]
            return [h, *ch["l4"].basis_vectors(),
                    *(diag(*cs) for cs in args), ht]
        raise UnknownLabel(_render_part(parts))
    if fam == "PxP1":
        # a, the l1 slots (complex when k1 is C; slots 0 and 2 first: inside
        # the (DIII) prototype), and the doubled-root line of each C factor
        (k1, ell), k2 = parts[1], parts[2]
        vecs = [*a, *_slot_vectors(sp, "l1", (0, 2, 1, 3)[: ell - 1],
                                   "C" if k1 == "C" else "R")]
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


def _eiv_projective_span(sp: SpaceModel, k: str, ell: int) -> list[Vec]:
    def p(args1, args2) -> Vec:
        return combine([1, 1], [sp.charts["l1"].map(*args1),
                                sp.charts["l2"].map(*args2)])

    v0 = p((1, 0, 0, 0), (1, 0, 0, 0))
    v1 = p((I, 0, 0, 0), (-I, 0, 0, 0))
    v0c = p((0, 0, 0, I), (0, 0, 0, -I))
    v1c = p((0, 0, 0, 1), (0, 0, 0, 1))
    v0h = p((0, 0, I, 0), (0, 0, -I, 0))
    v1h = p((0, 0, 1, 0), (0, 0, 1, 0))
    v0ch = p((0, 1, 0, 0), (0, 1, 0, 0))
    v1ch = p((0, -I, 0, 0), (0, I, 0, 0))
    v0o = p((I, 0, 0, 0), (I, 0, 0, 0))
    v0co = p((0, 0, 0, 1), (0, 0, 0, -1))
    v0ho = p((0, 0, 1, 0), (0, 0, -1, 0))
    v0cho = p((0, -I, 0, 0), (0, -I, 0, 0))
    w = [sp.charts["l3"].map(*args) for args in
         [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, I, 0), (0, 0, 0, 1),
          (-I, 0, 0, 0), (0, I, 0, 0), (0, 0, 1, 0)]]
    h = sp.sharp["l3"]
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
    a = sp.a_basis
    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "S":
        ell = parts[2]
        return [sh["l1"], *ch["l1"].basis_vectors()[: ell - 1]]
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
    a = sp.a_basis
    s3 = sqrt(3)

    def V(*terms) -> Vec:  # the sum of M_lk(c) over the (k, c) given
        return combine([1] * len(terms),
                       [ch[f"l{k}"].map(c) for k, c in terms])

    fam = parts[0]
    if fam == "Geo":
        return [_geo_direction(sp, parts[1].removeprefix("phi="))]
    if fam == "S":
        ang, ell = parts[1].removeprefix("phi="), parts[2]
        if ang == "0":
            return [sh["l1"], *ch["l1"].basis_vectors()[: ell - 1]]
        if ang == "pi/6":
            return [sh["l6"], *ch["l6"].basis_vectors()[: ell - 1]]
        if ang == _G2_SKEW:
            c = rat(1, 3) * sqrt(5)
            gens = [combine([9, 5], [sh["l1"], sh["l2"]]),
                    V((1, 1), (2, c)), V((1, I), (2, c * I))]
            return gens[:ell]
        raise UnknownLabel(_render_part(parts))
    if fam == "P":
        k, ell = parts[2]
        if k == "R":  # the diagonal sphere inside (SxS, ell, ell)
            c = s3.inv()
            gens = [combine([3, 1], [sh["l1"], sh["l6"]]),
                    V((1, 1), (6, c)), V((1, I), (6, I * c))]
            return gens[:ell]
        if k == "C" and ell == 2:
            return [sh["l6"], V((2, 1), (4, s3)), V((3, s3 * I), (5, I)),
                    V((6, 1))]
        raise UnknownLabel(_render_part(parts))
    if fam == "SxS":
        ell, ellp = parts[1], parts[2]
        return [*a, *ch["l1"].basis_vectors()[: ell - 1],
                *ch["l6"].basis_vectors()[: ellp - 1]]
    if fam == "AI":
        return [*a, V((2, 1)), V((5, I)), V((6, 1))]
    if fam == "A2":
        return [*a, *_slot_vectors(sp, "l2", [0]),
                *_slot_vectors(sp, "l5", [0]), *_slot_vectors(sp, "l6", [0])]
    if fam == "G":
        return [*a, V((1, 1)), V((2, 1)), V((3, I)), V((4, 1)), V((5, I)),
                V((6, 1))]
    raise UnknownLabel(_render_part(parts))


_PROTO: dict[str, Callable[[SpaceModel, tuple], list[Vec]]] = {
    "EIII": _eiii_prototype,
    "EIV": _eiv_prototype,
    "G2group": _g2_prototype,
}

