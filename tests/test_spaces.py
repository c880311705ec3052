import random
from fractions import Fraction

import pytest

from ltskit import catalog, linalg, lts, spaces
from ltskit.chevalley import ChevalleyAlgebra
from ltskit.linalg import Span
from ltskit.roots import RootSystem
from ltskit.scalars import I, ZERO, Scalar, rat, sqrt
from ltskit.spaces import (
    SPACES, LiftFailure, NotHermitian, NotInM, RootInvolution, SpaceModel,
    build_space, lift_involution, scalar_sign,
)

from complex_route import involution_matrix
from generic_route import (
    G2SO4, SIGMA_FIXED, SIGMA_ORBITS, GenericRouteModel, dense_chart_map,
    vec_add, vec_is_zero, vec_scale, vec_sub,
)


def e(n, k, a=1):
    v = [0] * n
    v[k] = a
    return v


# -- splitting and involution ---------------------------------------------

def test_e6_spaces_share_one_algebra():
    assert build_space("EIII").alg is build_space("EIV").alg


def test_dimensions():
    eiii = build_space("EIII")
    assert len(eiii.k_rows) == 46 and len(eiii.m_rows) == 32
    eiv = build_space("EIV")
    assert len(eiv.k_rows) == 52 and len(eiv.m_rows) == 26
    g2 = build_space("G2group")
    assert len(g2.m_rows) == 14


def reference_sigma(sp):
    """sigma as a dense rational matrix, by the complex route."""
    return involution_matrix(sp.alg, sp.sigma_roots,
                             {a: rat(e) for a, e in sp.signs.items()})


@pytest.mark.parametrize("name", ["EIII", "EIV"])
def test_sigma_matches_complex_route(name):
    sp = build_space(name)
    assert set(sp.signs.values()) == {1, -1}
    n = sp.alg.dim
    dense = [[Fraction(0)] * n for _ in range(n)]
    for k, col in enumerate(sp._sigma_cols):
        for i, w in col:
            dense[i][k] = w.rational_value()
    assert dense == reference_sigma(sp)


@pytest.mark.parametrize("flip, match", [
    ((0, 2, -1), "not an involution"),
    ((2, 0, -1), "not an automorphism"),
    ((0, 2, 2), "changes [|]N[|]"),
])
def test_lift_rejects_wrong_structure_constant(flip, match):
    # a fresh algebra, so the shared one keeps its true N
    alg = ChevalleyAlgebra(RootSystem.of_type("E6"))
    i, j, factor = flip
    a, b = alg.positives[i], alg.positives[j]
    true_n = alg.n_constant
    alg.n_constant = lambda x, y: (factor * true_n(x, y) if (x, y) == (a, b)
                                   else true_n(x, y))
    sig = RootInvolution(alg.rs, SPACES["EIV"].sigma)
    with pytest.raises(LiftFailure, match=match):
        lift_involution(alg, sig)


@pytest.mark.parametrize("name", ["EIII", "EIV"])
def test_model_matches_generic_route(name):
    # k, m, the flat, charts, duals and J are the same, entry for entry, when
    # kappa is traced over the table and k, m come from dense sigma -+ id
    sp, ref = build_space(name), GenericRouteModel(name)
    assert sp.k_rows == ref.k_rows
    assert sp.m_rows == ref.m_rows
    assert sp.a_basis == ref.a_basis
    for charts, ref_charts in ((sp.charts, ref.charts),
                               (sp.k_charts, ref.k_charts)):
        assert list(charts) == list(ref_charts)
        for label, chart in charts.items():
            assert chart.pairs == ref_charts[label].pairs, label
    assert sp.sharp == ref.sharp
    if name == "EIII":
        assert sp.complex_structure() == ref.complex_structure()
    else:
        for model in (sp, ref):
            with pytest.raises(NotHermitian):
                model.complex_structure()


def test_apply_sigma_matches_sigma_matrix():
    rng = random.Random(5)
    for name in ("EIII", "EIV"):
        sp = build_space(name)
        n = sp.alg.dim
        ref = reference_sigma(sp)
        for k in range(n):
            col = [rat(ref[i][k]) for i in range(n)]
            assert sp.apply_sigma([rat(x) for x in e(n, k)]) == col
        v = [rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
             for _ in range(n)]
        dense = [sum((x * c for x, c in zip(row, v)), rat(0))
                 for row in ref]
        assert sp.apply_sigma(v) == dense


def test_orbit_tables_match_involution():
    # the tables derived from sigma are the published ones: label order,
    # orbit order and the fixed roots
    for name in ("EIII", "EIV"):
        sp = build_space(name)
        assert sp.validate_orbit_tables()
        assert list(sp._orbit_tables.items()) == list(
            SIGMA_ORBITS[name].items())
        assert sp._fixed == SIGMA_FIXED[name]


def test_record_with_an_uncovered_root_fails_to_build():
    # l3 given l1's representative: l1's orbits go to l3 and l3's own roots
    # restrict to no label's root, a record that once built with
    # mult(l1) = 0
    bad = SPACES["EIII"]._replace(labels={**SPACES["EIII"].labels, "l3": 1})
    with pytest.raises(LiftFailure, match=r"root \(0, 1, 0, 0, 0, 0\)"):
        SpaceModel(bad)


def test_model_builds_from_a_record_alone():
    # G2/SO(4) has no record in the package: its SpaceData alone builds it
    sp = SpaceModel(G2SO4)
    assert sp.restricted.kind == "G2"
    assert [r.mult for r in sp.restricted.positives] == [1] * 6
    assert len(sp.m_basis()) == len(sp.m_rows) == 8
    assert len(sp.k_rows) == 6
    assert sp.validate_involution() and sp.validate_orbit_tables()


def test_k_m_bracket_relations():
    sp = build_space("EIII")
    alg = sp.alg
    kspan = Span(sp.k_rows)
    mspan = Span(sp.m_rows)
    for x in sp.k_rows[:4]:
        for y in sp.m_rows[:4]:
            assert mspan.contains(alg.bracket(x, y))
    for x in sp.m_rows[:4]:
        for y in sp.m_rows[:4]:
            assert kspan.contains(alg.bracket(x, y))


# -- restricted root data ---------------------------------------------------

def test_restricted_kinds_and_multiplicities():
    eiii = build_space("EIII").restricted
    assert eiii.kind == "BC2"
    assert {(r.label, r.mult) for r in eiii.positives} == {
        ("l1", 8), ("2l1", 1), ("l2", 8), ("2l2", 1), ("l3", 6), ("l4", 6)}
    eiv = build_space("EIV").restricted
    assert eiv.kind == "A2"
    assert all(r.mult == 8 for r in eiv.positives)
    g2 = build_space("G2group").restricted
    assert g2.kind == "G2"
    assert all(r.mult == 2 for r in g2.positives)


def test_restricted_coordinates():
    eiii = build_space("EIII").restricted
    by = {r.label: r.coords for r in eiii.positives}
    assert by["l3"] == (Fraction(-1), Fraction(1))
    assert by["l4"] == (Fraction(1), Fraction(1))
    assert by["2l1"] == (Fraction(2), Fraction(0))


def test_sharp_norms():
    sp = build_space("EIII")
    want = {"l1": 1, "2l1": 4, "l2": 1, "2l2": 4, "l3": 2, "l4": 2}
    for label, n in want.items():
        assert sp.norm_sq(sp.sharp[label]) == rat(n)
    spv = build_space("EIV")
    for label in ("l1", "l2", "l3"):
        assert spv.norm_sq(spv.sharp[label]) == rat(1)
    g2 = build_space("G2group")
    assert g2.norm_sq(g2.sharp["l1"]) == rat(1)
    assert g2.norm_sq(g2.sharp["l2"]) == rat(3)


def test_root_space_dimensions_match_multiplicity():
    for name in ("EIII", "EIV", "G2group"):
        sp = build_space(name)
        for r in sp.restricted.positives:
            assert len(sp.charts[r.label].basis_vectors()) == r.mult


def test_m_basis_orthonormal():
    for name in ("EIII", "EIV", "G2group"):
        sp = build_space(name)
        basis = sp.m_basis()
        assert len(basis) == len(sp.m_rows)
        for i, x in enumerate(basis):
            for j in range(i, len(basis)):
                want = rat(1) if i == j else rat(0)
                assert sp.inner(x, basis[j]) == want


# -- charts ----------------------------------------------------------------

CHART_COEFFS = [rat(0), rat(0), rat(0), rat(1), rat(-2), rat(3, 2), sqrt(3),
                sqrt(2) * rat(1, 3)]


@pytest.mark.parametrize("name", ["EIII", "EIV", "G2group"])
def test_chart_map_matches_dense_reference(name):
    # one combine over the nonzero coordinates against the slot-by-slot
    # dense sum, entry for entry, on every M and K chart
    sp = build_space(name)
    rng = random.Random(26)
    charts = [*sp.charts.values(), *(sp.k_charts or {}).values()]
    for chart in charts:
        for _ in range(6):
            coeffs = [rng.choice(CHART_COEFFS)
                      + (ZERO if v is None else I * rng.choice(CHART_COEFFS))
                      for _, v in chart.pairs]
            assert chart.map(*coeffs) == dense_chart_map(chart, *coeffs)
        zero = [0] * chart.arity
        assert chart.map(*zero) == dense_chart_map(chart, *zero)
        assert vec_is_zero(chart.map(*zero))


def test_chart_map_rejects_bad_coordinates():
    sp = build_space("EIII")
    with pytest.raises(ValueError, match="takes 4 coordinates"):
        sp.charts["l1"].map(1)
    with pytest.raises(ValueError, match="real coordinates"):
        sp.charts["2l1"].map(I)
    # a float is not an exact coordinate: no binary fraction is made of it
    g2 = build_space("G2group")
    with pytest.raises(TypeError):
        g2.charts["l1"].map(0.1)
    assert g2.charts["l1"].map(Fraction(1, 10)) == vec_scale(
        rat(1, 10), g2.charts["l1"].pairs[0][0])


def test_jacobi_operator_law():
    # ad(Z)^2 X = -lambda(Z)^2 X for Z in a, X in the root space
    for name in ("EIII", "EIV", "G2group"):
        sp = build_space(name)
        for r in sp.restricted.positives:
            h = sp.sharp[r.label]
            lam_of_h = sp.norm_sq(h)  # lambda(h) for h = lambda-sharp
            for x in sp.charts[r.label].basis_vectors():
                lhs = sp.alg.bracket(h, sp.alg.bracket(h, x))
                assert vec_is_zero(vec_add(lhs, vec_scale(lam_of_h * lam_of_h, x)))


# -- curvature ---------------------------------------------------------------

def test_curvature_symmetries():
    sp = build_space("EIV")
    b = sp.m_basis()
    quads = [(0, 3, 7, 11), (1, 4, 9, 2), (5, 6, 10, 0)]
    for i, j, k, l in quads:
        x, y, z, w = b[i], b[j], b[k], b[l]
        assert vec_is_zero(vec_add(sp.curvature(x, y, z), sp.curvature(y, x, z)))
        lhs = sp.inner(sp.curvature(x, y, z), w)
        rhs = sp.inner(sp.curvature(z, w, x), y)
        assert (lhs - rhs).is_zero()
        bianchi = vec_add(vec_add(sp.curvature(x, y, z), sp.curvature(y, z, x)),
                          sp.curvature(z, x, y))
        assert vec_is_zero(bianchi)


def test_curvature_rejects_vectors_outside_m():
    sp = build_space("EIII")
    k_vec = sp.k_rows[0]
    with pytest.raises(NotInM):
        sp.curvature(k_vec, sp.m_rows[0], sp.m_rows[1])


# -- complex structure (EIII) -----------------------------------------------

def test_complex_structure_properties():
    sp = build_space("EIII")
    j = sp.complex_structure()
    for x in sp.m_basis():
        assert vec_is_zero(vec_add(sp.apply_J(sp.apply_J(x)), x))
    b = sp.m_basis()
    for i in (0, 3, 9, 17, 25):
        for jdx in (1, 8, 20, 31):
            lhs = sp.inner(sp.apply_J(b[i]), sp.apply_J(b[jdx]))
            assert (lhs - sp.inner(b[i], b[jdx])).is_zero()


def test_complex_structure_action_table():
    sp = build_space("EIII")
    # m_l1, m_l2 are J-invariant
    for label in ("l1", "l2"):
        space = Span(sp.charts[label].basis_vectors())
        for x in sp.charts[label].basis_vectors():
            assert space.contains(sp.apply_J(x))
    # J(a) = m_2l1 + m_2l2
    doubled = Span(sp.charts["2l1"].basis_vectors()
                   + sp.charts["2l2"].basis_vectors())
    for z in sp.a_basis:
        assert doubled.contains(sp.apply_J(z))
    # J(m_l3) = m_l4
    l4 = Span(sp.charts["l4"].basis_vectors())
    for x in sp.charts["l3"].basis_vectors():
        assert l4.contains(sp.apply_J(x))


def test_complex_structure_slot_action():
    sp = build_space("EIII")
    signs = (1, -1, 1, -1)
    for label in ("l1", "l2"):
        ch = sp.charts[label]
        for k in range(4):
            got = sp.apply_J(ch.map(*e(4, k)))
            want = ch.map(*e(4, k, signs[k] * I))
            assert vec_is_zero(vec_sub(got, want))
    # J M_l3(c1,c2,c3) = M_l4(i c1, -i c2, -i conj(c3))
    c3, c4 = sp.charts["l3"], sp.charts["l4"]
    for c in [(1, 0, 0), (I, 0, 0), (0, 1, 0), (0, I, 0), (0, 0, 1), (0, 0, I)]:
        got = sp.apply_J(c3.map(*c))
        conj = lambda z: (z + (rat(0) + z).conj_i()) - z if False else None
        cc = [rat(Fraction(x)) if not isinstance(x, type(I)) else x for x in c]
        cs = [x if isinstance(x, type(I)) else rat(Fraction(x)) for x in c]
        want = c4.map(I * cs[0], -I * cs[1], -I * cs[2].conj_i())
        assert vec_is_zero(vec_sub(got, want))
    for c in [(1, 0, 0), (0, I, 0), (0, 0, I)]:
        cs = [x if isinstance(x, type(I)) else rat(Fraction(x)) for x in c]
        got = sp.apply_J(c4.map(*c))
        want = c3.map(I * cs[0], -I * cs[1], I * cs[2].conj_i())
        assert vec_is_zero(vec_sub(got, want))


def test_complex_structure_doubled_roots():
    sp = build_space("EIII")
    got = sp.apply_J(sp.charts["2l1"].map(1))
    assert scalar_sign(sp.inner(got, sp.sharp["l1"])) < 0
    assert Span(sp.a_basis).contains(got)
    got2 = sp.apply_J(sp.charts["2l2"].map(1))
    assert Span(sp.a_basis).contains(got2)


def test_centre_candidate_is_checked_against_every_k_row():
    # the centre solve stops early; a k row it never read must still be
    # checked, so an m vector planted at the end of k_rows is caught
    sp = SpaceModel(SPACES["EIII"])
    sp.k_rows = sp.k_rows + [sp.m_rows[0]]
    with pytest.raises(NotHermitian, match="center of k has dimension 0"):
        sp.complex_structure()


def test_build_cost_guard(monkeypatch):
    # deterministic counts, no timings: a fresh EIII model and J take fewer
    # brackets than the 276 + 64 + 3 of a full centre solve, by at least
    # 100, and no kernel sees a matrix wider than the rank (no 78-column
    # sigma -+ id)
    calls, widths = [0], []
    bracket, kernel = ChevalleyAlgebra.bracket, linalg.kernel

    def counting_bracket(self, x, y):
        calls[0] += 1
        return bracket(self, x, y)

    def recording_kernel(rows, n_cols):
        widths.append(n_cols)
        return kernel(rows, n_cols)

    monkeypatch.setattr(ChevalleyAlgebra, "bracket", counting_bracket)
    monkeypatch.setattr(linalg, "kernel", recording_kernel)
    monkeypatch.setattr(spaces, "kernel", recording_kernel)
    sp = SpaceModel(SPACES["EIII"])
    sp.complex_structure()
    assert calls[0] <= 343 - 100
    assert widths and max(widths) <= sp.alg.rank


def test_analyze_cost_guard(monkeypatch):
    # deterministic counts, no timings: the terms form zero-tests only the
    # entries a bracket or a reduction touched (a dense scan of every vector
    # made 161071 tests here), and kept reports share their root values
    sp = build_space("EIII")
    S = catalog.make_prototype(sp, "(DIII)")
    lts.analyze(S)  # the model's one-time work: J, the reference flat
    tests = [0]
    is_nonzero = Scalar.__bool__

    def counting(self):
        tests[0] += 1
        return is_nonzero(self)

    monkeypatch.setattr(Scalar, "__bool__", counting)
    lts.analyze(S, seed=0)
    monkeypatch.undo()
    assert tests[0] <= 80_000
    eiv = build_space("EIV")
    first, second = (lts.analyze(catalog.make_prototype(eiv, "(AII)"))
                     for _ in range(2))
    assert first.restricted and len(first.restricted) == len(second.restricted)
    for a, b in zip(first.restricted, second.restricted):
        assert a.values is b.values and a.labels is b.labels


def test_analyze_fraction_guard(monkeypatch):
    # deterministic counts, no timings: integral Scalar coefficients are
    # stored as int, so most products and sums of a warm analyze make no
    # Fraction (with Fraction coefficients throughout, these two runs made
    # 11301 and 5491)
    new = Fraction.__new__
    made = [0]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    counts = {}
    for name, label in (("EIII", "(DIII)"), ("EIV", "(AII)")):
        S = catalog.make_prototype(build_space(name), label)
        lts.analyze(S)  # the model's one-time work: J, the reference flat
        made[0] = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        lts.analyze(S)
        monkeypatch.undo()
        counts[label] = made[0]
    assert counts["(DIII)"] <= 8_000
    assert counts["(AII)"] <= 3_500


def test_no_complex_structure_elsewhere():
    for name in ("EIV", "G2group"):
        with pytest.raises(NotHermitian):
            build_space(name).complex_structure()


# -- calibrated curvature identities ----------------------------------------

def test_eiii_jacobi_doubled_identity():
    # R(sharp_ref, v, M_{2l}(1)) = -(1/8) Jv, exactly, for every basis v
    sp = build_space("EIII")
    for k, (lab, dlab) in enumerate((("l1", "2l1"), ("l2", "2l2"))):
        h = sp.reference_sharp(lab)
        m2 = sp.charts[dlab].map(1)
        sign = rat(Fraction(-1, 8)) if k == 0 else rat(Fraction(1, 8))
        for v in sp.charts[lab].basis_vectors():
            got = sp.curvature(h, v, m2)
            want = vec_scale(sign, sp.apply_J(v))
            assert vec_is_zero(vec_sub(got, want))
            # norm + subspace statement of the identity
            assert Span(sp.charts[lab].basis_vectors()).contains(got)
            assert sp.norm_sq(got) == rat(Fraction(1, 64)) * sp.norm_sq(v)


def test_eiii_a_component_law():
    sp = build_space("EIII")
    eighth = rat(Fraction(1, 8))
    for lab in ("l1", "l2"):
        h = sp.reference_sharp(lab)
        basis = sp.charts[lab].basis_vectors()
        for v in basis[:3]:
            for w in basis[:3]:
                out = sp.curvature(h, v, w)
                want = vec_scale(eighth * sp.inner(v, w), sp.reference_sharp(lab))
                # the orthogonal projection of out onto a
                got = linalg.combine([sp.inner(out, z) for z in sp.a_basis],
                                     sp.a_basis)
                # reference inner product differs by the metric ratio 8
                want = vec_scale(rat(8), want)
                assert vec_is_zero(vec_sub(got, want))


def test_eiii_cross_space_identities():
    sp = build_space("EIII")
    C = sp.charts
    s16 = sqrt(2) * rat(Fraction(1, 16))
    h1 = sp.reference_sharp("l1")
    h2 = sp.reference_sharp("l2")
    h3 = sp.reference_sharp("l3")
    signs = (I, I, -I, -I)
    for k in range(4):
        for a in (rat(1), I):
            got = sp.curvature(h1, C["l1"].map(*e(4, k, a)), C["l3"].map(0, 0, 1))
            want = vec_scale(s16, C["l2"].map(*e(4, k, signs[k] * a)))
            assert vec_is_zero(vec_sub(got, want))
            got = sp.curvature(h2, C["l2"].map(*e(4, k, a)), C["l3"].map(0, 0, 1))
            want = vec_scale(-s16, C["l1"].map(*e(4, k, signs[k] * a)))
            assert vec_is_zero(vec_sub(got, want))
    # R(M_l1(1,0,0,0), M_l2(c), l3_ref) = sqrt2/8 M_l3(-c4 i, -conj(c3) i, c1 i)
    s8 = sqrt(2) * rat(Fraction(1, 8))
    one1 = C["l1"].map(1, 0, 0, 0)
    for c in [(1, 0, 0, 0), (I, 0, 0, 0), (0, 0, 1, 0), (0, 0, I, 0),
              (0, 0, 0, 1), (0, 0, 0, I)]:
        cs = [x if isinstance(x, type(I)) else rat(Fraction(x)) for x in c]
        got = sp.curvature(one1, C["l2"].map(*c), h3)
        want = vec_scale(s8, C["l3"].map(-cs[3] * I, -cs[2].conj_i() * I, cs[0] * I))
        assert vec_is_zero(vec_sub(got, want))


def test_eiii_l3_l4_transfer_identity():
    # u := R(l2_ref, M_l3(d), M_l1(1,0,0,0)) = -sqrt2/16 M_l2(i d3, 0, i conj(d2), -i d1)
    # R(u, M_l1(1,0,0,0)) l1_ref = 1/128 (M_l3(d) + M_l4(-d1, d2, conj(d3)))
    sp = build_space("EIII")
    C = sp.charts
    h1, h2 = sp.reference_sharp("l1"), sp.reference_sharp("l2")
    one1 = C["l1"].map(1, 0, 0, 0)
    s16 = sqrt(2) * rat(Fraction(1, 16))
    for d in [(1, 0, 0), (I, 0, 0), (0, 1, 0), (0, I, 0), (0, 0, 1), (0, 0, I)]:
        ds = [x if isinstance(x, type(I)) else rat(Fraction(x)) for x in d]
        u = sp.curvature(h2, C["l3"].map(*d), one1)
        want_u = vec_scale(-s16, C["l2"].map(I * ds[2], 0, I * ds[1].conj_i(),
                                             -I * ds[0]))
        assert vec_is_zero(vec_sub(u, want_u))
        out = sp.curvature(u, one1, h1)
        want = vec_scale(rat(Fraction(1, 128)),
                         vec_add(C["l3"].map(*d),
                                 C["l4"].map(-ds[0], ds[1], ds[2].conj_i())))
        assert vec_is_zero(vec_sub(out, want))


def test_g2_curvature_identities():
    sp = build_space("G2group")
    C = sp.charts
    h1 = sp.reference_sharp("l1")
    c34 = sqrt(3) * rat(Fraction(3, 4))
    c4 = sqrt(3) * rat(Fraction(1, 4))
    half = rat(Fraction(1, 2))
    checks = [
        (sp.curvature(h1, C["l2"].map(1), C["l1"].map(1)),
         vec_scale(c34, C["l3"].map(I))),
        (sp.curvature(h1, C["l3"].map(I), C["l1"].map(1)),
         vec_sub(vec_scale(c4, C["l2"].map(1)), vec_scale(half, C["l4"].map(1)))),
        (sp.curvature(h1, C["l4"].map(1), C["l1"].map(1)),
         vec_sub(vec_scale(half, C["l3"].map(I)), vec_scale(c4, C["l5"].map(I)))),
        (sp.curvature(h1, C["l5"].map(I), C["l2"].map(1)),
         vec_scale(c34, C["l6"].map(1))),
        (sp.curvature(h1, C["l2"].map(1), C["l5"].map(1)),
         vec_scale(-c34, C["l6"].map(I))),
    ]
    for got, want in checks:
        assert vec_is_zero(vec_sub(got, want))


def test_g2_mixed_root_identity():
    # R(l1_ref, V_l1(c), V_l3(d)) = sqrt3/2 V_l2(conj(c) d i) + V_l4(c d i)
    sp = build_space("G2group")
    C = sp.charts
    h1 = sp.reference_sharp("l1")
    s32 = sqrt(3) * rat(Fraction(1, 2))
    for c in (rat(1), I):
        for d in (rat(1), I):
            got = sp.curvature(h1, C["l1"].map(c), C["l3"].map(d))
            want = vec_add(vec_scale(s32, C["l2"].map(c.conj_i() * d * I)),
                           C["l4"].map(c * d * I))
            assert vec_is_zero(vec_sub(got, want))


def test_eiv_curvature_identities():
    sp = build_space("EIV")
    C = sp.charts
    h1 = sp.reference_sharp("l1")
    s8 = sqrt(2) * rat(Fraction(1, 8))
    v1 = C["l1"].map(1, 0, 0, 0)
    v2 = C["l2"].map(1, 0, 0, 0)
    checks = [
        (sp.curvature(h1, v1, v2), vec_scale(s8, C["l3"].map(0, 0, 0, I))),
        (sp.curvature(h1, C["l1"].map(I, 0, 0, 0), v2),
         vec_scale(-s8, C["l3"].map(0, 0, 0, 1))),
        (sp.curvature(h1, v1, C["l3"].map(0, 0, 0, 1)),
         vec_scale(-s8, C["l2"].map(I, 0, 0, 0))),
    ]
    for got, want in checks:
        assert vec_is_zero(vec_sub(got, want))
    for c in (rat(1), I):
        got = sp.curvature(h1, C["l1"].map(0, c, 0, 0), v2)
        want = vec_scale(s8, C["l3"].map(0, 0, c.conj_i() * I, 0))
        assert vec_is_zero(vec_sub(got, want))
        got = sp.curvature(h1, v1, C["l3"].map(0, 0, c, 0))
        want = vec_scale(s8, C["l2"].map(0, c.conj_i() * I, 0, 0))
        assert vec_is_zero(vec_sub(got, want))


# -- isotropy angle ----------------------------------------------------------

def test_isotropy_angle_special_rays():
    sp = build_space("EIII")
    assert sp.isotropy_angle(sp.sharp["l2"]).name == "0"
    assert sp.isotropy_angle(sp.sharp["l4"]).name == "pi/4"
    assert sp.isotropy_angle(sp.sharp["l1"]).name == "0"  # Weyl-conjugate to l2
    spv = build_space("EIV")
    base = vec_add(spv.sharp["l1"], spv.sharp["l3"])
    assert spv.isotropy_angle(base).name == "0"
    # every restricted root dual is Weyl-conjugate to l3-sharp, at pi/6
    for lab in ("l1", "l2", "l3"):
        assert spv.isotropy_angle(spv.sharp[lab]).name == "pi/6"
    g2 = build_space("G2group")
    assert g2.isotropy_angle(g2.sharp["l4"]).name == "0"
    assert g2.isotropy_angle(g2.sharp["l6"]).name == "pi/6"
    assert g2.isotropy_angle(g2.sharp["l1"]).name == "0"  # short, conjugate to l4
    assert g2.isotropy_angle(g2.sharp["l2"]).name == "pi/6"  # long, conjugate to l6


def test_isotropy_angle_weyl_invariance():
    sp = build_space("EIII")
    v = vec_add(vec_scale(rat(2), sp.sharp["l2"]), sp.sharp["l1"])
    base = sp.isotropy_angle(v)
    for r in sp.restricted.positives:
        h = sp.sharp[r.label]
        refl = vec_sub(v, vec_scale(rat(2) * sp.inner(v, h) / sp.norm_sq(h), h))
        assert sp.isotropy_angle(refl).tan_sq == base.tan_sq
    assert base.tan_sq == rat(Fraction(1, 4))
    assert base.name == "arctan(1/2)"


@pytest.mark.parametrize("name", [
    "G2group", "EIII",
    pytest.param("EIV", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 14: weyl_reduce reduces a vector, "
        "not a line, and -1 is not in the Weyl group of A2")),
])
def test_isotropy_angle_is_sign_invariant(name):
    # a geodesic is a line, so v and -v have the same isotropy angle
    sp = build_space(name)
    rng = random.Random(14)
    for _ in range(30):
        cs = [rat(rng.randint(-5, 5)) for _ in sp.a_basis]
        if not any(cs):
            continue
        v = linalg.combine(cs, sp.a_basis)
        assert (sp.isotropy_angle(vec_scale(rat(-1), v)).tan_sq
                == sp.isotropy_angle(v).tan_sq), cs


def test_isotropy_angle_rejects():
    sp = build_space("EIII")
    with pytest.raises(ValueError):
        sp.isotropy_angle([rat(0)] * sp.alg.dim)
    with pytest.raises(NotInM):
        sp.isotropy_angle(sp.charts["l1"].map(1, 0, 0, 0))


def test_build_space_cached():
    assert build_space("EIII") is build_space("EIII")
    with pytest.raises(ValueError):
        build_space("EV")
