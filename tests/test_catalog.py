"""Tests for the classification catalog: prototypes, sweeps, containments,
derived-space checks and closed-geodesic lengths."""

import hashlib
import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from ltskit import catalog as cat
from ltskit import prototypes as proto
from ltskit.catalog import (
    ClosedGeodesic,
    NotInLatticeSpan,
    TypeLabel,
    UnknownLabel,
    containment_rows,
    derived_hosts,
    expected_rows,
    geodesic_length,
    make_prototype,
    parse_flat_vector,
    torus_rotate,
    verify_catalog,
    verify_containments,
    verify_derived,
)
from ltskit.lts import Subspace, analyze, rank_and_flat
from ltskit.scalars import I, rat, sqrt
from ltskit.spaces import Chart, SpaceModel, build_space

from generic_route import G2SO4, solved_torus_rotate, vec_add, vec_scale

SPACES = ("EIII", "EIV", "G2group")

# as_json() and as_markdown() of every sweep report, pinned by the command
# that prints it
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden" /
                     "catalog_sweeps.json").read_text(encoding="utf-8"))


def assert_golden(command, rep):
    """The report serializes, key order included, as pinned."""
    got = {"json": rep.as_json(), "markdown": rep.as_markdown()}
    assert json.dumps(got, indent=1) == json.dumps(GOLDEN[command], indent=1)


@pytest.fixture(scope="module")
def spaces():
    # the spaces with a classification table, Sp2group, whose table is the
    # (Sp2) host, and G2/SO(4) from its test-side record for the lattice
    # checks
    return {**{name: build_space(name) for name in SPACES + ("Sp2group",)},
            "G2SO4": SpaceModel(G2SO4)}


@pytest.fixture(scope="module")
def catalog_reports(spaces):
    return {name: verify_catalog(spaces[name]) for name in SPACES}


@pytest.fixture(scope="module")
def containment_reports(spaces):
    return {name: verify_containments(spaces[name]) for name in SPACES}


# -- labels ----------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "(Geo, phi=pi/4)",
    "(P, phi=pi/4, (O,2))",
    "(PxP1, (C,5), C)",
    "(Q)",
    "(S, phi=arctan(1/(3*sqrt(3))), 3)",
    "(G2C6, (G2,(C,3)))",
    "(SxS, 2, 3)",
])
def test_label_round_trip(text):
    lab = TypeLabel.parse("EIII", text)
    again = TypeLabel.parse("EIII", lab.text)
    assert lab == again
    assert TypeLabel.parse("EIII", again.text).text == lab.text


def test_label_requires_parentheses():
    for text in ("Q", "(1,2))", "((1,2)"):
        with pytest.raises(UnknownLabel):
            TypeLabel.parse("EIII", text)


def test_table_labels_round_trip():
    texts = [(name, row.label.text)
             for name in SPACES for row in expected_rows(name)]
    for host, (parent, rows) in derived_hosts().items():
        for text in (host, *(r.label for r in rows)):
            texts.append((parent, text))
    for space, text in texts:
        lab = TypeLabel.parse(space, text)
        again = TypeLabel.parse(space, lab.text)
        assert (again.text, again.parts) == (lab.text, lab.parts), text


def test_unknown_prototype_raises(spaces):
    with pytest.raises(UnknownLabel):
        make_prototype(spaces["EIII"], "(NoSuchFamily)")
    with pytest.raises(UnknownLabel):
        make_prototype(spaces["EIV"], TypeLabel.parse("EIII", "(Q)"))


@pytest.mark.parametrize("text", [
    "(PxP1, (H,4), R)", "(P, phi=pi/4, (S,12))", "(P, phi=0, (H,3))",
    "(PxP1, (C,9), C)", "(PxP1, (R,2), R)", "(P, phi=pi/4, (S,9))",
    "(Q, tau)", "(DIII, 3)"])
def test_labels_outside_the_tables_raise(spaces, text):
    # each once built a span (H read as R, a slice cut short, tau or the
    # extra part ignored) or raised a bare KeyError or IndexError
    with pytest.raises(UnknownLabel, match="no prototype"):
        make_prototype(spaces["EIII"], text)


def test_witness_labels_outside_the_classification_build(spaces):
    # labels that only the witness tables name
    sp = spaces["EIII"]
    for text, dim in [("(PxP1, (R,3), R)", 4), ("(PxP1, (C,3), C)", 8),
                      ("(P, phi=0, (R,5))", 5), ("(P, phi=0, (C,4))", 8),
                      ("(P, phi=0, (R,4))", 4)]:
        assert make_prototype(sp, text).dim == dim, text


# -- embedded tables -------------------------------------------------------


def test_expected_tables_cover_all_families():
    fams = {name: {r.label.parts[0] for r in expected_rows(name)}
            for name in SPACES}
    assert fams["EIII"] == {"Geo", "P", "PxP1", "Q", "G2C6", "G2H4", "DIII"}
    assert fams["EIV"] == {"Geo", "S", "P", "AI", "A2", "AII", "SxS1"}
    assert fams["G2group"] == {"Geo", "S", "P", "SxS", "AI", "A2", "G"}


def test_expected_row_counts():
    assert len(expected_rows("EIII")) == 24
    assert len(expected_rows("EIV")) == 30
    assert len(expected_rows("G2group")) == 24


def test_expected_rows_unknown_space():
    with pytest.raises(UnknownLabel):
        expected_rows("EV")


def test_maximal_rows_match_tables():
    maximal = {name: {r.label.text for r in expected_rows(name) if r.maximal}
               for name in SPACES}
    assert maximal["EIII"] == {
        "(P, phi=pi/4, (O, 2))", "(PxP1, (C, 5), C)", "(Q)", "(G2C6)",
        "(G2H4)", "(DIII)"}
    assert maximal["EIV"] == {
        "(P, phi=pi/6, (H, 3))", "(P, phi=pi/6, (O, 2))", "(AII)",
        "(SxS1, 9)"}
    assert maximal["G2group"] == {
        "(S, phi=arctan(1/(3*sqrt(3))), 3)", "(SxS, 3, 3)", "(A2)", "(G)"}


# -- classification sweeps -------------------------------------------------


@pytest.mark.parametrize("name", SPACES)
def test_catalog_sweep_passes(catalog_reports, name):
    rep = catalog_reports[name]
    assert rep.ok
    counts = rep.counts()
    assert counts["FAIL"] == 0
    assert counts["SKIPPED"] == (3 if name == "EIII" else 0)
    assert counts["PASS"] == len(expected_rows(name)) - counts["SKIPPED"]
    assert_golden(f"catalog verify {name}", rep)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", SPACES)
def test_catalog_sweep_seed_independent(spaces, name, seed):
    # the seed only picks the flat search's samples: the reports are the
    # pinned seed-0 reports, byte for byte
    assert_golden(f"catalog verify {name}", verify_catalog(spaces[name], seed))


def test_quoted_diagram_multiplicities(catalog_reports):
    rows = {r.label: r for r in catalog_reports["EIII"].rows}
    assert rows["(Q)"].computed["sub_mults"] == {
        "l3": 6, "l4": 6, "2l1": 1, "2l2": 1}
    assert rows["(DIII)"].computed["sub_mults"] == {
        "l1": 4, "l2": 4, "l3": 4, "l4": 4, "2l1": 1, "2l2": 1}


def test_failed_row_names_first_mismatch(spaces, monkeypatch):
    wrong = [proto._row("G2group", "(SxS, 1, 1)", dim=3, rank=2),
             proto._row("G2group", "(SxS, 2, 1)", dim=3, rank=2,
                        sub_mults=proto._mults(l6=1))]
    monkeypatch.setitem(proto._EXPECTED, "G2group", lambda: wrong)
    rep = verify_catalog(spaces["G2group"])
    assert [(r.status, r.certificate) for r in rep.rows] == [
        ("FAIL", "dim: expected 3, computed 2"),
        ("FAIL", "sub_mults: expected {'l6': 1}, computed {'l1': 1}")]


def test_rank_one_rows_report_angles(catalog_reports):
    for name in SPACES:
        for row in catalog_reports[name].rows:
            if row.status == "PASS" and row.expected.get("rank") == 1:
                assert row.computed["angle"] == row.expected["angle"]


def test_report_serialization(catalog_reports):
    rep = catalog_reports["EIV"]
    js = rep.as_json()
    assert js["space"] == "EIV"
    assert {r["status"] for r in js["rows"]} == {"PASS"}
    assert all(set(r) == {"label", "expected", "computed", "status",
                          "certificate"} for r in js["rows"])
    md = rep.as_markdown()
    assert "| label | status |" in md
    assert "(AII)" in md


# -- containments ----------------------------------------------------------


@pytest.mark.parametrize("name", SPACES)
def test_containment_sweep_passes(containment_reports, name):
    rep = containment_reports[name]
    assert rep.ok
    counts = rep.counts()
    assert counts["FAIL"] == 0
    assert counts["SKIPPED"] == (3 if name == "EIII" else 0)
    assert counts["PASS"] == len(containment_rows(name)) - counts["SKIPPED"]
    assert_golden(f"catalog containments {name}", rep)


def test_quarter_turn_row_present(containment_reports):
    labels = [r.label for r in containment_reports["EIII"].rows]
    assert "(P, phi=0, (C,4)) in (Q)" in labels


# -- derived spaces --------------------------------------------------------


DERIVED_SKIPS = {"(DIII)": 5, "(AII)": 3, "(A2)": 1, "(G)": 0, "(Sp2)": 9}


@pytest.fixture(scope="module")
def derived_reports():
    """verify_derived, run at most once per host in this module."""
    return cache(verify_derived)


@pytest.mark.parametrize("host", sorted(DERIVED_SKIPS))
def test_derived_host_sweeps(host, derived_reports):
    rep = derived_reports(host)
    counts = rep.counts()
    assert counts["FAIL"] == 0
    assert counts["SKIPPED"] == DERIVED_SKIPS[host]
    _, rows = derived_hosts()[host]
    assert counts["PASS"] == len(rows) - counts["SKIPPED"]
    assert_golden(f"catalog derived {host}", rep)


def test_derived_unknown_host():
    with pytest.raises(UnknownLabel):
        verify_derived("(XYZ)")


def test_derived_intersection_certificates(derived_reports):
    rep = derived_reports("(DIII)")
    rows = {r.label: r for r in rep.rows}
    assert rows["(Q, (G1,6))"].computed["sub_mults"] == {
        "l3": 4, "l4": 4, "2l1": 1, "2l2": 1}
    assert rows["(G2H4, (Sp2))"].computed["sub_mults"] == {
        "l1": 2, "l2": 2, "l3": 2, "l4": 2}
    assert rows["(G2H4, (Sp2))"].computed["dim"] == 10


# -- geodesic prototypes ---------------------------------------------------


@pytest.mark.parametrize("name", SPACES)
def test_geodesic_directions_read_back_their_angle(spaces, name):
    sp = spaces[name]
    geo = [r.label.parts[1] for r in expected_rows(name)
           if r.label.parts[0] == "Geo"]
    assert geo == [f"phi={ang}" for ang in proto.GEO_ANGLES[name]]
    for ang in proto.GEO_ANGLES[name]:
        assert sp.isotropy_angle(proto._geo_direction(sp, ang)).name == ang
        (v,) = make_prototype(sp, f"(Geo, phi={ang})").basis
        assert sp.isotropy_angle(v).name == ang


@pytest.mark.parametrize("name, ang", [
    ("EIII", "pi/3"), ("EIII", "arctan(1/2)"), ("EIV", "pi/4"),
    ("G2group", "pi/4"), ("G2group", "t")])
def test_geodesic_angle_outside_the_table_is_unknown(spaces, name, ang):
    with pytest.raises(UnknownLabel):
        make_prototype(spaces[name], f"(Geo, phi={ang})")


# -- prototype spans -------------------------------------------------------


SPANS = json.loads((Path(__file__).parent / "data" / "golden" /
                    "prototype_spans.json").read_text(encoding="utf-8"))


def basis_digest(S) -> str:
    """sha256 of the str entries of the reduced basis, row by row."""
    text = json.dumps([[str(x) for x in row] for row in S.basis])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prototype_spans(spaces) -> dict[str, str]:
    """The basis digest of every non-opaque row's prototype, of the witness
    of every quarter-turn row, and of every direct row's prototype in the
    (Sp2) host, the table of Sp2group."""
    out = {}
    for name in SPACES:
        sp = spaces[name]
        for row in expected_rows(name):
            if not row.opaque:
                out[f"{name} {row.label.text}"] = basis_digest(
                    make_prototype(sp, row.label))
        witnesses = containment_rows(name) + [
            row for parent, rows in derived_hosts().values()
            if parent == name for row in rows]
        for row in witnesses:
            if row.mode == "quarter-turn":
                small = cat._witness(sp, row)
                out[f"{name} {row.label} in {row.big} ({row.mode})"] = (
                    basis_digest(small))
    parent, rows = derived_hosts()["(Sp2)"]
    for row in rows:
        if row.mode == "direct":
            out[f"{parent} {row.label}"] = basis_digest(
                make_prototype(spaces[parent], row.label))
    return out


def test_prototype_spans_are_pinned(spaces):
    # verdict goldens do not pin the spans themselves; this does, for
    # every way a witness's spanning vectors are written.  A prototype is
    # one representative of its congruence class: a new representative
    # changes its digest here and no verdict
    got = prototype_spans(spaces)
    assert sum(" in " not in key for key in got) == 77
    assert got == SPANS


# -- principal subalgebras -------------------------------------------------


# the isotropy angle of principal_lts on every label and pair of labels of a
# group model that it accepts: those with no difference a root
PRINCIPAL_ANGLES = {
    "G2group": {
        ("l1",): "0", ("l2",): "pi/6", ("l3",): "0", ("l4",): "0",
        ("l5",): "pi/6", ("l6",): "pi/6",
        ("l1", "l2"): proto._G2_SKEW, ("l1", "l6"): "pi/6",
        ("l2", "l4"): "pi/6", ("l2", "l5"): "pi/6", ("l3", "l5"): "pi/6"},
    "Sp2group": {
        ("l1",): "pi/4", ("l2",): "0", ("l3",): "pi/4", ("l4",): "0",
        ("l1", "l2"): "arctan(1/3)", ("l2", "l4"): "pi/4"},
}


@pytest.mark.parametrize("name, n_rejected", [("G2group", 10),
                                              ("Sp2group", 4)])
def test_principal_lts_on_every_label_set(spaces, name, n_rejected):
    sp = spaces[name]
    roots = {r.coords for r in sp.restricted.positives}
    accepted, rejected = {}, 0
    for k in (1, 2):
        for labels in combinations(sp.charts, k):
            a, b = (sp.restricted.by_label(lbl).coords
                    for lbl in (labels[0], labels[-1]))
            diff = tuple(x - y for x, y in zip(a, b))
            if diff in roots or tuple(-x for x in diff) in roots:
                with pytest.raises(ValueError, match="is a root"):
                    proto.principal_lts(sp, labels)
                rejected += 1
                continue
            S = Subspace(sp, proto.principal_lts(sp, labels))
            r = analyze(S)
            assert (S.dim, r.is_lts, r.rank) == (3, True, 1), labels
            accepted[labels] = r.isotropy_angle.name
    assert accepted == PRINCIPAL_ANGLES[name]
    assert rejected == n_rejected


def test_principal_lts_raises_where_it_builds_no_su2(spaces):
    for name in ("EIV", "G2SO4"):
        with pytest.raises(ValueError, match="not a group model"):
            proto.principal_lts(spaces[name], ("l1", "l2"))
    # a chart pair whose bracket is a negative multiple of the dual asks for
    # an imaginary s_i: u negated flips the sign of kappa
    sp = SpaceModel(spaces["Sp2group"].data)
    (u, v), = sp.charts["l1"].pairs
    sp.charts["l1"] = Chart("l1", [(vec_scale(rat(-1), u), v)])
    with pytest.raises(ValueError, match="leaves the field"):
        proto.principal_lts(sp, ("l1", "l2"))


# -- torus rotation --------------------------------------------------------


def test_torus_rotation_is_isometric_on_samples(spaces):
    sp = spaces["G2group"]
    vs = [list(sp.sharp["l1"]), sp.charts["l2"].map(1),
          vec_add(sp.charts["l1"].map(I), sp.charts["l6"].map(1))]
    imgs = [torus_rotate(sp, v, 3) for v in vs]
    for i in range(len(vs)):
        for j in range(len(vs)):
            assert sp.inner(vs[i], vs[j]) == sp.inner(imgs[i], imgs[j])


def test_torus_rotation_fixes_flat(spaces):
    sp = spaces["G2group"]
    for v in sp.a_basis:
        assert torus_rotate(sp, list(v), 5, 7) == list(v)


@pytest.mark.parametrize("steps", [(1, 0), (0, 1), (3, 0), (1, 2), (-5, 7)])
def test_torus_rotation_matches_solved_reference(spaces, steps):
    # chart coordinates turned by omega^m against one solve in the basis of
    # a and the chart vectors, on every prototype basis vector
    sp = spaces["G2group"]
    for row in expected_rows("G2group"):
        for v in make_prototype(sp, row.label).basis:
            assert torus_rotate(sp, v, *steps) == solved_torus_rotate(
                sp, v, *steps)


def _isometry_invariants(S):
    """The invariants of S that an isometric image must share with it."""
    inv = cat._invariants(S, 0)
    return {key: inv[key] for key in (
        "is_lts", "dim", "rank", "angle", "complexity", "sub_mults")}


@pytest.mark.parametrize("steps", [(1, 2), (5, 7)])
def test_torus_rotation_keeps_prototype_invariants(spaces, steps):
    sp = spaces["G2group"]
    for row in expected_rows("G2group"):
        if row.opaque:
            continue
        S = make_prototype(sp, row.label)
        image = Subspace(sp, [torus_rotate(sp, v, *steps) for v in S.basis])
        assert _isometry_invariants(image) == _isometry_invariants(S), (
            row.label.text)


def test_quarter_turn_witness_keeps_prototype_invariants(spaces):
    sp = spaces["EIII"]
    (row,) = [r for r in containment_rows("EIII") if r.mode == "quarter-turn"]
    assert _isometry_invariants(cat._witness(sp, row)) == (
        _isometry_invariants(make_prototype(sp, row.label)))


def test_torus_rotation_rejects(spaces):
    g2 = spaces["G2group"]
    with pytest.raises(ValueError, match="outside the tangent space"):
        torus_rotate(g2, [rat(1)] * 3, 1)  # a solve would drop 11 equations
    with pytest.raises(ValueError, match="non-integral"):
        torus_rotate(g2, g2.sharp["l1"], Fraction(1, 2))
    for name in ("EIII", "EIV"):
        sp = spaces[name]
        with pytest.raises(ValueError, match="several slots"):
            torus_rotate(sp, sp.sharp["l1"], 1)


# -- geodesic lengths ------------------------------------------------------


# c in c*beta#/|beta#|^2, the generators of {H : Exp(pi*H) = o}
LATTICE_C = {"EIII": 2, "EIV": 2, "G2group": 4, "G2SO4": 2, "Sp2group": 4}


def _lattice_coords(basis, v):
    """Rational coordinates of a 2-vector v over a basis of two 2-vectors."""
    (a, b), (c, d) = basis
    det = a * d - b * c
    return ((v[0] * d - v[1] * c) / det, (a * v[1] - b * v[0]) / det)


def _lattice_inner(sp):
    """The inner product on (l1#, l2#) coordinates."""
    sharps = [sp.sharp["l1"], sp.sharp["l2"]]
    gram = [[sp.inner(x, y).rational_value() for y in sharps] for x in sharps]
    return lambda u, v: sum(u[i] * gram[i][j] * v[j]
                            for i in (0, 1) for j in (0, 1))


@pytest.mark.parametrize("name", LATTICE_C)
def test_unit_lattice_is_spanned_by_the_root_generators(spaces, name):
    """Every generator c*beta#/|beta#|^2, doubled roots included, is an
    integer combination of unit_lattice(); the 2x2 minors of these integer
    coordinates have gcd 1, so each basis vector is in turn an integer
    combination of the generators."""
    sp = spaces[name]
    basis = sp.unit_lattice()
    coords = []
    for root in sp.restricted.positives:
        n2 = sp.norm_sq(sp.sharp[root.label]).rational_value()
        c = _lattice_coords(basis, [LATTICE_C[name] * x / n2
                                    for x in root.coords])
        assert all(t.denominator == 1 for t in c), root.label
        coords.append(c)
    assert gcd(*(int(u[0] * v[1] - u[1] * v[0])
                 for u, v in combinations(coords, 2))) == 1


def test_g2_unit_lattice_is_spanned_by_two_long_roots(spaces):
    sp = spaces["G2group"]
    long = [_lattice_coords(sp.unit_lattice(),
                            [Fraction(4, 3) * x
                             for x in sp.restricted.by_label(label).coords])
            for label in ("l2", "l5")]
    assert all(t.denominator == 1 for v in long for t in v)
    assert abs(long[0][0] * long[1][1] - long[0][1] * long[1][0]) == 1


@pytest.mark.parametrize("name, radius_sq", [
    ("G2group", Fraction(16, 9)), ("EIV", Fraction(4, 3)),
    ("EIII", Fraction(1, 2)), ("G2SO4", Fraction(4, 9)),
    ("Sp2group", Fraction(4))])
def test_unit_lattice_covering_radius(spaces, name, radius_sq):
    """The ambient diameter, as diam^2/pi^2: the squared circumradius of the
    Delaunay triangle (0, b1, b2) of the Gauss-reduced basis with
    <b1, b2> >= 0.  These are the alcove values."""
    ip = _lattice_inner(spaces[name])
    b1, b2 = spaces[name].unit_lattice()
    while True:
        if ip(b2, b2) < ip(b1, b1):
            b1, b2 = b2, b1
        q = round(ip(b1, b2) / ip(b1, b1))
        if not q:
            break
        b2 = tuple(y - q * x for x, y in zip(b1, b2))
    if ip(b1, b2) < 0:
        b2 = tuple(-y for y in b2)
    d = tuple(x - y for x, y in zip(b1, b2))
    a, b, c = ip(b1, b1), ip(b2, b2), ip(d, d)
    # no obtuse angle, so the triangle is a Delaunay triangle
    assert a + b >= c and b + c >= a and c + a >= b
    assert a * b * c / (4 * (a * b - ip(b1, b2) ** 2)) == radius_sq


def test_geodesic_length_skew_direction(spaces):
    sp = spaces["G2group"]
    H = parse_flat_vector(sp, "(9*l1 + 5*l2)/sqrt(21)")
    assert sp.inner(H, H) == rat(1)
    g = geodesic_length(sp, H)
    assert g == ClosedGeodesic(Fraction(4, 3), 21)
    assert g.text == "4/3*pi*sqrt(21)"


def test_geodesic_length_of_one_pi_is_written_pi(spaces):
    sp = spaces["EIII"]
    (v,) = make_prototype(sp, "(Geo, phi=0)").basis
    assert sp.inner(v, v) == rat(1)
    assert geodesic_length(sp, v) == ClosedGeodesic(Fraction(1), 1)
    assert geodesic_length(sp, v).text == "pi"
    assert ClosedGeodesic(Fraction(1), 3).text == "pi*sqrt(3)"
    assert ClosedGeodesic(Fraction(2), 1).text == "2*pi"


def test_geodesic_length_scaling(spaces):
    sp = spaces["G2group"]
    H = parse_flat_vector(sp, "(9*l1 + 5*l2)/sqrt(21)")
    g2 = geodesic_length(sp, vec_scale(rat(2), H))
    assert g2 == ClosedGeodesic(Fraction(2, 3), 21)


def test_geodesic_length_generator_direction(spaces):
    sp = spaces["G2group"]
    H = parse_flat_vector(sp, "l2/sqrt(3)")
    assert geodesic_length(sp, H).text == "4/3*pi*sqrt(3)"


def test_geodesic_non_closed_direction(spaces):
    sp = spaces["G2group"]
    H = vec_add(list(sp.sharp["l2"]), vec_scale(sqrt(2), sp.sharp["l5"]))
    assert geodesic_length(sp, H) is None


def test_geodesic_direction_outside_flat(spaces):
    sp = spaces["G2group"]
    with pytest.raises(NotInLatticeSpan):
        geodesic_length(sp, sp.charts["l1"].map(1))


def test_geodesic_mixed_radical_direction_asks_for_a_unit_vector(spaces):
    # the l1 direction closes, but with period 4*(sqrt(2)-1)*pi, which is
    # not coeff*pi*sqrt(d): only a non-unit H has such a period
    sp = spaces["G2group"]
    with pytest.raises(ValueError, match="unit direction"):
        geodesic_length(sp, parse_flat_vector(sp, "(1+sqrt(2))*l1"))


@cache
def _rank1_periods(name):
    """(L/pi)^2 of each non-opaque rank-1 row's unit flat vector (None if
    its geodesic does not close), with the row and its analysis."""
    sp = build_space(name)
    out = []
    for row in expected_rows(name):
        if row.opaque or row.rank != 1:
            continue
        S = make_prototype(sp, row.label)
        r = analyze(S)
        h = rank_and_flat(S)[1].basis[0]
        n2 = sp.inner(h, h)
        L_sq = None
        if geodesic_length(sp, h) is not None:
            g = geodesic_length(sp, vec_scale(n2.sqrt_if_expressible().inv(),
                                              h))
            L_sq = g.coeff ** 2 * g.radicand
        out.append((row, r, n2, L_sq))
    return out


# diam^2/pi^2 = (L/pi)^2/4 of the rank-1 rows, by isotropy angle; None: the
# geodesic does not close
RANK1_DIAMETERS = {
    "G2group": {"0": 4, proto._G2_SKEW: Fraction(28, 3),
                "pi/6": Fraction(4, 3)},
    "EIV": {"0": 3, "pi/6": 1, "pi/3": 3},
    "EIII": {"0": Fraction(1, 4), "pi/6": None, "pi/4": Fraction(1, 2)},
}


@pytest.mark.parametrize("name", SPACES)
def test_rank1_row_periods(name):
    rows = _rank1_periods(name)
    assert len(rows) == {"EIII": 9, "EIV": 18, "G2group": 12}[name]
    for row, _, _, L_sq in rows:
        want = RANK1_DIAMETERS[name][row.angle]
        assert (None if L_sq is None else L_sq / 4) == want, row.label.text


@pytest.mark.parametrize("name", SPACES)
def test_rank1_row_root_periods(name):
    """(L*alpha/pi)^2 for each sub-root alpha: 4 on a sphere, 1 for alpha
    and 4 for 2*alpha on a projective space, four times that in G2group.
    The skew G2group sphere rows read the projective value: kept as data,
    the rows are not relabelled."""
    k = 4 if name == "G2group" else 1
    for row, r, n2, L_sq in _rank1_periods(name):
        got = sorted(L_sq * (v * v / n2).rational_value()
                     for sr in r.restricted or [] for v in sr.values)
        parts = row.label.parts
        if parts[0] == "Geo":
            want = []
        elif parts[0] == "S" or parts[2][0] == "S":
            want = [k if parts[1] == f"phi={proto._G2_SKEW}" else 4 * k]
        else:
            want = [k] if parts[2][0] == "R" else [k, 4 * k]
        assert got == want, row.label.text


def test_skew_sphere_cross_consistency(spaces):
    sp = spaces["G2group"]
    S = make_prototype(sp, "(S, phi=arctan(1/(3*sqrt(3))), 3)")
    r = analyze(S)
    h = rank_and_flat(S)[1].basis[0]
    n2 = sp.inner(h, h)
    (root,) = r.restricted
    (val,) = root.values
    alpha_sq = (val * val) / n2
    assert alpha_sq == rat(3, 28)
    g = geodesic_length(sp, parse_flat_vector(sp, "(9*l1 + 5*l2)/sqrt(21)"))
    # (t / 2pi)^2 == r^2 == 1 / |alpha#|^2
    t_over_2pi_sq = Fraction(g.coeff ** 2 * g.radicand, 4)
    assert t_over_2pi_sq == Fraction(28, 3)
    assert rat(1) / alpha_sq == rat(28, 3)


def _skew_periods(sp, text):
    """The closed geodesic of a rank-1 prototype's unit flat vector, and its
    (L/pi)^2 and (L*alpha/pi)^2 for its one sub-root alpha."""
    S = make_prototype(sp, text)
    (root,) = analyze(S).restricted
    (val,) = root.values
    h = rank_and_flat(S)[1].basis[0]
    n2 = sp.inner(h, h)
    g = geodesic_length(sp, vec_scale(n2.sqrt_if_expressible().inv(), h))
    L_sq = g.coeff ** 2 * g.radicand
    return g, L_sq, L_sq * (val * val / n2).rational_value()


def test_sp2_principal_sphere_is_skew(spaces):
    """The abstract's Sp(2) claim as numbers, kept as data: the principal S^3
    of Sp2group has diam^2/pi^2 = 20, larger than the ambient 4 of
    test_unit_lattice_covering_radius, so it lies in skew position; its
    (L*alpha/pi)^2 = 16 reads sphere, where G2group's skew row reads 4,
    projective (test_rank1_row_root_periods)."""
    g, L_sq, root = _skew_periods(spaces["Sp2group"], "(S, arctan(1/3), 3)")
    assert g == ClosedGeodesic(Fraction(4), 5)
    assert g.text == "4*pi*sqrt(5)"
    assert L_sq / 4 == 20 > Fraction(4)
    assert root == 16
    _, _, g2_root = _skew_periods(spaces["G2group"],
                                  f"(S, phi={proto._G2_SKEW}, 3)")
    assert g2_root == 4


# -- flat-vector expressions -----------------------------------------------


def test_parse_flat_vector_forms(spaces):
    sp = spaces["G2group"]
    v = parse_flat_vector(sp, "l1")
    assert v == list(sp.sharp["l1"])
    w = parse_flat_vector(sp, "2*l1 - l2")
    expect = vec_add(vec_scale(rat(2), sp.sharp["l1"]),
                     vec_scale(rat(-1), sp.sharp["l2"]))
    assert w == expect
    # "/" binds to its own term and associates to the left
    assert parse_flat_vector(sp, "l1/2/3") == parse_flat_vector(sp, "l1/6")
    assert parse_flat_vector(sp, "l1 + l2/2") == vec_add(
        sp.sharp["l1"], vec_scale(rat(1, 2), sp.sharp["l2"]))


def test_parse_flat_vector_rejects_garbage(spaces):
    for text in ("3*l9", "l1/2+1", "1 + l1", "l1*l2", "2/l1", "2", ""):
        with pytest.raises(ValueError):
            parse_flat_vector(spaces["G2group"], text)
