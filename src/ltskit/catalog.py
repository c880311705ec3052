"""Catalog of totally geodesic type families and their verification sweeps.

The classification tables of the three modeled spaces are versioned in-repo
data, checked exactly with no floating point; the type labels, expected rows
and prototype constructors are in ``ltskit.prototypes``, the witness tables,
``make_prototype`` (for the labels the tables name) and the sweeps here.
The tables hold two kinds of row:

* an ``ExpectedRow`` is a type family with its invariants: dimension, rank,
  isotropy angle (rank 1), Hermitian complexity (EIII) and restricted
  sub-multiplicities by ambient label (rank 2).  ``verify_catalog`` rebuilds
  each prototype and compares its analysis with the row;
* a ``WitnessRow`` claims that the family ``label`` lies in ``big``, a larger
  family (``verify_containments``) or the host of a derived space
  (``verify_derived``).  Its witness must be an LTS in the span of big's
  prototype, and its mode says how it is built: ``direct`` (the label's
  prototype), ``quarter-turn`` (its image under an isotropy quarter turn),
  ``intersection`` (big's prototype met with that of the label's first
  part, compared with an ``ExpectedRow`` instead) or ``skip``.

``geodesic_length`` gives exact closed-geodesic lengths in every space, from
the space's unit lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence

from .linalg import Vec, combine, coordinates
from .lts import Subspace, analyze, intersect_spans, is_lts, isotropy_rotate
from .prototypes import (
    _EXPECTED, _PROTO, GEO_ANGLES, _G2_SKEW, ExpectedRow, TypeLabel,
    UnknownLabel, _mults, _row, expected_rows,
)
from .report import CatalogReport, ReportRow
from .scalars import I, ONE, ParseError, Parser, Scalar, ZERO, rat, sqrt
from .spaces import SpaceModel, build_space


class NotInLatticeSpan(ValueError):
    """Raised when a geodesic direction is not tangent to the maximal flat."""


# -- expected invariants ---------------------------------------------------


def _invariants(S: Subspace, seed: int) -> dict:
    """Analyze S once and read its invariants into one record: dim, rank,
    is_lts and the closure certificate, angle, complexity (EIII) and the
    multiplicities by ambient label."""
    r = analyze(S, seed=seed)
    mults = {"+".join(sr.labels): sr.mult for sr in r.restricted or []}
    return {"dim": S.dim, "rank": r.rank, "is_lts": r.is_lts,
            "certificate": r.certificate,
            "angle": r.isotropy_angle.name if r.isotropy_angle else None,
            "complexity": r.complexity,
            "sub_mults": dict(sorted(mults.items()))}


def _check_expected(row: ExpectedRow, S: Subspace, label: str,
                    seed: int) -> ReportRow:
    """Analyze S and compare it with the row; a FAIL names the closure
    defect or else the first invariant that did not match."""
    inv = _invariants(S, seed)
    expected = {"dim": row.dim, "rank": row.rank}
    computed = {key: inv[key] for key in ("dim", "rank", "is_lts")}
    for key in ("angle", "complexity", "sub_mults"):
        want = getattr(row, key)
        if want is not None:
            expected[key] = dict(want) if key == "sub_mults" else want
            computed[key] = inv[key]
    if not inv["is_lts"]:
        failure = f"closure fails at triple {inv['certificate']}"
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
                row, make_prototype(sp, row.label), row.label.text, seed))
    return rep


# -- flat-torus isometries -------------------------------------------------


_OMEGA = (sqrt(3) + I) * rat(1, 2)  # exp(i*pi/6)


def torus_rotate(sp: SpaceModel, vec: Sequence[Scalar], n1: int,
                 n2: int = 0) -> Vec:
    """Rotate by the flat-torus isometry whose angles on the two basic
    restricted roots are n1*pi/6 and n2*pi/6: it fixes a and multiplies the
    chart coordinate of each restricted root with step m on the two basic
    ones by omega^m.  The m basis is orthonormal, so the coordinates are
    inner products.  Modeled where every chart has one slot (G2group).
    No sweep applies it: it moves prototypes for the isometry-invariance
    tests and the benchmark's inputs."""
    if any(chart.arity != 1 for chart in sp.charts.values()):
        raise ValueError(f"{sp.name} has charts of several slots, on which "
                         "no torus rotation is modeled")
    if not sp.in_m(vec):
        raise ValueError("vector outside the tangent space")
    coeffs = [sp.inner(vec, z) for z in sp.a_basis]
    vectors = list(sp.a_basis)
    for root in sp.restricted.positives:
        m = root.coords[0] * n1 + root.coords[1] * n2
        if m != int(m):
            raise ValueError("non-integral rotation step")
        turn = ONE
        for _ in range(int(m) % 12):
            turn = turn * _OMEGA
        (c,) = sp.chart_coords(vec, root.label)
        coeffs.append(ONE)
        vectors.append(sp.charts[root.label].map(turn * c))
    return combine(coeffs, vectors)


# -- witness rows: containment tables and derived-space catalogs -----------


@dataclass(frozen=True)
class WitnessRow:
    """A claim that the family ``label`` lies in ``big`` (a larger family,
    or a derived space's host); the module docstring lists the modes."""

    label: str
    big: str
    mode: str = "direct"
    note: str = ""
    expected: ExpectedRow | None = None  # invariants of an intersection row


def _eiii_containments() -> list[WitnessRow]:
    return [
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
        *(WitnessRow(f"(PxP1, ({k1},{ell}), {k2})", "(PxP1, (C,5), C)")
          for k1 in ("R", "C") for k2 in ("R", "C") for ell in (4, 5)
          if (k1, k2, ell) != ("C", "C", 5)),
        WitnessRow("(P, phi=0, (C,4))", "(Q)", mode="quarter-turn",
                   note="image under the quarter-turn isotropy rotation"),
        *(WitnessRow(f"({host}, tau)", f"({host})", mode="skip",
                     note="external sub-family prototypes")
          for host in ("Q", "G2C6", "G2H4")),
    ]


def _eiv_containments() -> list[WitnessRow]:
    return [
        *(WitnessRow(f"(Geo, phi={a})", "(SxS1, 1)")
          for a in GEO_ANGLES["EIV"]),
        *(WitnessRow(f"(S, phi=pi/6, {ell})", f"(SxS1, {ell})")
          for ell in range(2, 10)),
        *(WitnessRow(f"(P, phi=pi/6, ({k},2))", "(P, phi=pi/6, (O,2))")
          for k in ("R", "C", "H")),
        *(WitnessRow(f"(P, phi=pi/6, ({k},3))", "(P, phi=pi/6, (H,3))")
          for k in ("R", "C")),
        WitnessRow("(AI)", "(A2)"),
        WitnessRow("(A2)", "(AII)"),
        *(WitnessRow(f"(SxS1, {ell})", "(SxS1, 9)") for ell in range(1, 9)),
    ]


def _g2_containments() -> list[WitnessRow]:
    return [
        *(WitnessRow(f"(Geo, phi={a})", "(SxS, 1, 1)")
          for a in GEO_ANGLES["G2group"]),
        *(WitnessRow(f"(S, phi=0, {ell})", f"(SxS, {ell}, 1)")
          for ell in (2, 3)),
        WitnessRow(f"(S, phi={_G2_SKEW}, 2)", "(G)"),
        *(WitnessRow(f"(S, phi=pi/6, {ell})", f"(SxS, 1, {ell})")
          for ell in (2, 3)),
        *(WitnessRow(f"(P, phi=pi/6, (R,{ell}))", f"(SxS, {ell}, {ell})")
          for ell in (2, 3)),
        WitnessRow("(P, phi=pi/6, (C,2))", "(G)"),
        *(WitnessRow(f"(SxS, {ell}, {ellp})", "(SxS, 3, 3)")
          for ell in (1, 2, 3) for ellp in (1, 2, 3)
          if (ell, ellp) != (3, 3)),
        WitnessRow("(AI)", "(A2)"),
    ]


_CONTAINMENTS: dict[str, Callable[[], list[WitnessRow]]] = {
    "EIII": _eiii_containments,
    "EIV": _eiv_containments,
    "G2group": _g2_containments,
}


def containment_rows(space_name: str) -> list[WitnessRow]:
    """The inclusion table of one space."""
    try:
        return _CONTAINMENTS[space_name]()
    except KeyError:
        raise UnknownLabel(space_name) from None


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
        *(w(f"(Geo, phi={a})") for a in GEO_ANGLES["EIII"]),
        w("(P, phi=0, (R,4))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=0, (C,4))", mode="skip", note=_DIII_SKIP),
        w("(P, phi=pi/4, (S,5))"),
        w("(P, phi=pi/4, (S,6))"),
        *(w(f"(PxP1, ({k1},3), {k2})")
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
        *(w(f"(Geo, phi={a})") for a in GEO_ANGLES["EIV"]),
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
        *(w(f"(Geo, phi={a})") for a in GEO_ANGLES["EIV"]),
        *(w(f"(S, phi=pi/6, {e})") for e in (2, 3)),
        w("(P, phi=pi/6, (R,2))"),
        w("(P, phi=pi/6, (R,3))"),
        w("(P, phi=pi/6, (C,2))", mode="skip", note=_DIII_SKIP),
        w("(AI)"),
        *(w(f"(SxS1, {e})") for e in (1, 2, 3)),
    ]
    w = partial(WitnessRow, big="(G)")
    g = [
        *(w(f"(Geo, phi={a})") for a in GEO_ANGLES["G2group"]),
        w("(S, phi=0, 2)"),
        w(f"(S, phi={_G2_SKEW}, 2)"),
        w("(S, phi=pi/6, 2)"),
        w("(P, phi=pi/6, (R,2))"),
        w("(P, phi=pi/6, (C,2))"),
        w("(AI)"),
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


def make_prototype(sp: SpaceModel, label: TypeLabel | str) -> Subspace:
    """The embedded prototype subspace of a type that the space's tables
    name; any other label, or one of another space, raises UnknownLabel."""
    space = sp.name
    if isinstance(label, str):
        label = TypeLabel.parse(space, label)
    if label.space != space:
        raise UnknownLabel(f"{label.text} belongs to {label.space}")
    if label.parts not in _table_labels(space, _EXPECTED[space]):
        raise UnknownLabel(f"no prototype of {label.text} in {space}")
    return Subspace(sp, _PROTO[space](sp, label.parts))


@cache
def _table_labels(space: str, table) -> frozenset[tuple]:
    """The parts of every label with a prototype: the space's classification
    rows, table() (cached per table, so a replaced one is read afresh), but
    opaque ones, and its witness rows' labels and hosts, but intersections."""
    rows = table()
    witnesses = containment_rows(space) + [
        w for parent, hosted in derived_hosts().values() if parent == space
        for w in hosted]
    texts = [w.big for w in witnesses] + [
        w.label for w in witnesses if w.mode != "intersection"]
    named = {TypeLabel.parse(space, t).parts for t in texts}
    return frozenset(named.union(r.label.parts for r in rows)
                     - {r.label.parts for r in rows if r.opaque})


def _witness(sp: SpaceModel, row: WitnessRow) -> Subspace:
    """The witness subspace of a direct or quarter-turn row."""
    quoted = make_prototype(sp, row.label)
    if row.mode == "quarter-turn":
        z = sp.k_charts["l1"].pairs[2][0]
        return Subspace(sp, [isotropy_rotate(sp, z, v) for v in quoted.basis])
    return quoted


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
                                   make_prototype(sp, family).span())
            rep.rows.append(_check_expected(row.expected, Subspace(sp, meet),
                                            label, seed))
            continue
        small = _witness(sp, row)
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


# -- closed geodesic lengths -----------------------------------------------


@dataclass(frozen=True)
class ClosedGeodesic:
    """Length of the closed unit-speed geodesic: coeff * pi * sqrt(rad)."""

    coeff: Fraction
    radicand: int

    @property
    def text(self) -> str:
        coeff = f"{self.coeff}*" if self.coeff != 1 else ""
        rad = f"*sqrt({self.radicand})" if self.radicand != 1 else ""
        return f"{coeff}pi{rad}"


def geodesic_length(sp: SpaceModel, H: Sequence[Scalar]) -> ClosedGeodesic | None:
    """Exact period of t -> Exp(t*H) for a real H in the maximal flat (for
    |H| = 1, the closed geodesic's length), or None if it does not close.
    It closes when H's nonzero coordinates x over sp.unit_lattice() have a
    rational ratio p/q in lowest terms; the period is then q*pi/|x_1|.  The
    Gram matrix is rational, so a period not c*pi*sqrt(d) needs a non-unit
    H, e.g. (1+sqrt(2))*l1: ValueError asks for a unit one (CLI exit 2)."""
    if not all(h.is_real() for h in H):
        raise NotInLatticeSpan("direction must be real")
    base = [sp.sharp["l1"], sp.sharp["l2"]]
    x = coordinates([combine(b, base) for b in sp.unit_lattice()], H)
    if x is None:
        raise NotInLatticeSpan("direction not tangent to the maximal flat")
    x = [c for c in x if c]
    if not x:
        raise ValueError("zero direction")
    ratio = x[-1] / x[0]
    if not ratio.is_rational():
        return None
    period = list((rat(ratio.rational_value().denominator) / x[0]).terms())
    if len(period) != 1:
        raise ValueError("not a unit direction: no period c*pi*sqrt(d)")
    (d, coeff, _), = period
    return ClosedGeodesic(coeff=abs(coeff), radicand=d)


# -- flat-vector expressions (CLI support) ---------------------------------


def parse_flat_vector(sp: SpaceModel, text: str) -> Vec:
    """Flat vector of a linear expression in l1, l2, ..., e.g. 'l1/2'."""
    coeffs = Parser(text, sp.sharp).read(Parser.expr)
    if isinstance(coeffs, Scalar):
        raise ParseError(f"no flat direction in {text!r}")
    return combine([coeffs.get(label, ZERO) for label in sp.sharp],
                   list(sp.sharp.values()))
