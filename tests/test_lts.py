import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ltskit import lts
from ltskit.catalog import expected_rows, make_prototype
from ltskit.linalg import (
    Span, combine, nonzeros, vec_add, vec_is_zero, vec_scale, vec_sub,
)
from ltskit.report import ReportRow
from ltskit.scalars import I, ParseError, Scalar, rat, sqrt
from ltskit.spaces import NotInM, build_space

from generic_route import dense_intersect_spans, dense_sub_restricted_roots


def subspace(sp, vectors):
    return lts.Subspace(sp, vectors)


# -- closure ---------------------------------------------------------------


def test_full_tangent_space_is_lts():
    for name in ("G2group", "EIV"):
        sp = build_space(name)
        S = subspace(sp, [list(r) for r in sp.m_rows])
        assert lts.is_lts(S)


def test_adhoc_plane_is_not_lts_with_certificate():
    sp = build_space("EIII")
    v1 = sp.sharp["l1"]
    v2 = vec_add(sp.charts["l1"].map(1, 1, 0, 0), sp.charts["l3"].map(1, 0, 0))
    S = subspace(sp, [v1, v2])
    assert not lts.is_lts(S)
    cert = lts.closure_defect(S)
    assert cert is not None
    i, j, k = cert
    alg = sp.alg
    bad = alg.bracket(alg.bracket(S.basis[i], S.basis[j]), S.basis[k])
    assert not S.contains(bad)
    assert cert == (0, 1, 1)


def reference_defect(S):
    """The first failing basis triple, by bracketing every triple."""
    alg = S.space.alg
    n = S.dim
    for i in range(n):
        for j in range(i + 1, n):
            pair = alg.bracket(S.basis[i], S.basis[j])
            for k in range(n):
                if not S.contains(alg.bracket(pair, S.basis[k])):
                    return (i, j, k)
    return None


def random_m_span(seed, count):
    sp = build_space("G2group")
    rng = random.Random(seed)
    vectors = [[rng.choice((-1, 0, 0, 1, 2)) for _ in sp.m_rows]
               for _ in range(count)]
    return subspace(sp, [combine(c, sp.m_rows) for c in vectors])


def prototype_union(label1, label2):
    sp = build_space("G2group")
    return subspace(sp, make_prototype(sp, label1).basis
                    + make_prototype(sp, label2).basis)


G2_LABELS = [row.label for row in expected_rows("G2group")]


# Most inputs fail at their first nonzero pair; these unions fail only after
# two independent pairs have passed, so a pair skipped wrongly shows.
@settings(max_examples=40, deadline=None)
@example(prototype_union("(A2)", "(P, phi=pi/6, (R, 2))"))
@example(prototype_union("(P, phi=pi/6, (R, 3))", "(A2)"))
@given(st.one_of(
    st.builds(random_m_span, st.integers(0, 2**32 - 1), st.integers(2, 5)),
    st.builds(prototype_union, st.sampled_from(G2_LABELS),
              st.sampled_from(G2_LABELS))))
def test_closure_through_brackets_matches_triple_loop(S):
    assert lts.closure_defect(S) == reference_defect(S)


@pytest.mark.parametrize("name, label, dim", [
    ("EIII", "(DIII)", 45),  # so(10)
    ("EIII", "(Q)", 45),     # so(10) again, with K = so(2) + so(8)
    ("EIV", "(AII)", 35),    # su(6)
])
def test_transvection_dimension(name, label, dim):
    # S + [S, S] is the transvection algebra of the LTS S
    S = make_prototype(build_space(name), label)
    alg = S.space.alg
    K = Span(alg.bracket(u, v) for n, u in enumerate(S.basis)
             for v in S.basis[n + 1:])
    assert S.dim + K.dim == dim


def test_subspace_requires_m_vectors():
    sp = build_space("EIII")
    with pytest.raises(NotInM):
        subspace(sp, [sp.k_rows[0]])


def test_subspace_reduces_dependent_generators():
    sp = build_space("EIV")
    v = sp.charts["l1"].map(1, 0, 0, 0)
    S = subspace(sp, [v, vec_scale(rat(3), v), sp.sharp["l1"]])
    assert S.dim == 2


def test_subspace_rejects_vectors_of_another_length():
    sp = build_space("EIV")
    for v in (sp.sharp["l1"][:-1], sp.sharp["l1"] + [rat(0)]):
        with pytest.raises(NotInM):
            subspace(sp, [v])


@pytest.mark.parametrize("name", ["G2group", "EIV", "EIII"])
def test_subspace_terms_are_the_nonzeros_of_its_basis(name):
    # terms is read off the span's rows, not taken from the dense basis
    sp = build_space(name)
    for row in expected_rows(name):
        if not row.opaque:
            S = make_prototype(sp, row.label)
            assert S.terms == [nonzeros(b) for b in S.basis], row.label


# -- closed subsystems -----------------------------------------------------


def test_closed_subsystem_l1_2l1():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l1", "2l1"})
    assert S.dim == 10
    assert lts.is_lts(S)


def test_closed_subsystem_quadric_type():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"})
    assert S.dim == 16
    assert lts.is_lts(S)


def test_closed_subsystem_rejects_open_sets():
    sp = build_space("EIII")
    with pytest.raises(lts.NotClosed):
        lts.lts_from_closed_subsystem(sp, {"l1"})  # misses 2l1
    with pytest.raises(lts.NotClosed):
        lts.lts_from_closed_subsystem(sp, {"nope"})


def test_closed_subsystem_single_long_root():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l4"})
    assert S.dim == 7
    assert lts.is_lts(S)


def test_closed_subsystem_empty():
    sp = build_space("EIV")
    S = lts.lts_from_closed_subsystem(sp, set())
    assert S.dim == 0


def test_closed_subsystem_negative_labels_symmetrized():
    sp = build_space("EIV")
    S1 = lts.lts_from_closed_subsystem(sp, {"l1", "-l1"})
    S2 = lts.lts_from_closed_subsystem(sp, {"l1"})
    assert S1 == S2
    assert S1.dim == 9


# -- rank and flats --------------------------------------------------------


def test_rank_of_line():
    sp = build_space("EIV")
    S = subspace(sp, [sp.charts["l1"].map(1, 0, 0, 0)])
    rank, flat = lts.rank_and_flat(S)
    assert rank == 1 and flat.dim == 1


def test_rank_of_full_space_is_two():
    for name in ("G2group", "EIV", "EIII"):
        sp = build_space(name)
        S = subspace(sp, [list(r) for r in sp.m_rows])
        rank, flat = lts.rank_and_flat(S)
        assert rank == 2
        alg = sp.alg
        assert vec_is_zero(alg.bracket(flat.basis[0], flat.basis[1]))


def test_rank_of_quadric_prototype():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"})
    rank, flat = lts.rank_and_flat(S)
    assert rank == 2


def test_flat_search_is_seed_deterministic():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l1", "2l1"})
    _, f1 = lts.rank_and_flat(S, seed=7)
    _, f2 = lts.rank_and_flat(S, seed=7)
    assert f1.basis == f2.basis


def test_empty_subspace_rank_zero():
    sp = build_space("EIV")
    rank, flat = lts.rank_and_flat(subspace(sp, []))
    assert rank == 0 and flat.dim == 0


# -- restricted roots of a pair --------------------------------------------


def roots_as_set(roots):
    return {(tuple(str(v) for v in r.values), r.mult) for r in roots}


def test_quadric_prototype_root_pattern():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"})
    rank, flat = lts.rank_and_flat(S)
    roots = lts.sub_restricted_roots(S, flat)
    mults = sorted(r.mult for r in roots)
    assert mults == [1, 1, 6, 6]
    labels = {r.labels for r in roots}
    assert labels == {("2l1",), ("2l2",), ("l3",), ("l4",)}


def test_group_model_root_multiplicities():
    sp = build_space("G2group")
    S = subspace(sp, [list(r) for r in sp.m_rows])
    rank, flat = lts.rank_and_flat(S)
    roots = lts.sub_restricted_roots(S, flat)
    assert len(roots) == 6
    assert all(r.mult == 2 for r in roots)


def test_flat_alone_has_no_roots():
    sp = build_space("EIII")
    S = subspace(sp, [list(z) for z in sp.a_basis])
    roots = lts.sub_restricted_roots(S, S)
    assert roots == []


def test_sub_roots_reject_bad_flat():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l1", "2l1"})
    not_flat = subspace(sp, [sp.charts["l1"].map(1, 0, 0, 0)])
    with pytest.raises(lts.NotAFlat):
        lts.sub_restricted_roots(S, not_flat)  # not inside... actually in S?
    outside = subspace(sp, [sp.sharp["l2"]])
    with pytest.raises(lts.NotAFlat):
        lts.sub_restricted_roots(S, outside)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["G2group", "EIV", "EIII"])
def test_sub_roots_match_dense_route(name, seed):
    # every non-opaque catalog row's flat lies in a, so each row is compared
    sp = build_space(name)
    for row in expected_rows(name):
        if row.opaque:
            continue
        S = make_prototype(sp, row.label.text)
        _, flat = lts.rank_and_flat(S, seed=seed)
        assert all(sp.a_span.contains(h) for h in flat.basis), row.label
        assert lts.sub_restricted_roots(S, flat) \
            == dense_sub_restricted_roots(S, flat), row.label


@pytest.mark.parametrize("name", ["G2group", "EIV", "EIII"])
def test_intersections_match_dense_route(name):
    # a intersect S by remainders modulo S, against the relations among the
    # rows of both, for every prototype whose flat lies in a
    sp = build_space(name)
    for row in expected_rows(name):
        if row.opaque:
            continue
        S = make_prototype(sp, row.label.text)
        assert lts.intersect_spans(sp.a_basis, S.span()) \
            == dense_intersect_spans(sp.a_basis, S.basis), row.label


small_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3)).map(rat)
short_vectors = st.lists(small_entries, min_size=5, max_size=5)


@settings(deadline=None)
@given(st.lists(short_vectors, max_size=4), st.lists(short_vectors, max_size=4))
def test_intersect_spans_matches_dense_route(rows, others):
    assert lts.intersect_spans(rows, Span(others)) \
        == dense_intersect_spans(rows, others)


def test_sub_roots_reject_image_outside_subspace():
    # S = a + span(u + w), u in m_l1 and w in m_l2: ad(h)^2 scales u and w
    # by different squares, so the image leaves S and S is no LTS
    sp = build_space("EIII")
    u = sp.charts["l1"].basis_vectors()[0]
    w = sp.charts["l2"].basis_vectors()[0]
    S = subspace(sp, list(sp.a_basis) + [vec_add(u, w)])
    assert not lts.is_lts(S)
    flat = subspace(sp, list(sp.a_basis))
    with pytest.raises(lts.NotAFlat, match=r"ad\(h\d\)ad\(h\d\)"):
        lts.sub_restricted_roots(S, flat)


def test_sub_roots_check_the_ambient_intersection(monkeypatch):
    # a root space that differs from S's intersection with the ambient root
    # spaces is reported, not counted: here the intersection loses a row
    S = make_prototype(build_space("EIII"), "(DIII)")
    rank, flat = lts.rank_and_flat(S)
    assert rank == 2
    real = lts._meet_relations
    monkeypatch.setattr(lts, "_meet_relations",
                        lambda rows, span: real(rows, span)[1:])
    with pytest.raises(lts.NotAFlat, match="root space does not match the "
                       "ambient intersection"):
        lts.sub_restricted_roots(S, flat)


def test_root_kernel_cost_guard(monkeypatch):
    # the root spaces are solved in S's coordinates: a system with one column
    # per basis vector of S has at most len(pairs) * dim S equations, one per
    # index its terms name, not len(pairs) * 78
    S = make_prototype(build_space("EIII"), "(DIII)")
    rank, flat = lts.rank_and_flat(S)
    assert rank == 2
    sizes = []
    real = lts.relations

    def recording(vectors):
        if len(vectors) == S.dim:  # an intersection has one per ambient row
            sizes.append(len({k for v in vectors for k, _ in v}))
        return real(vectors)

    monkeypatch.setattr(lts, "relations", recording)
    roots = lts.sub_restricted_roots(S, flat)
    assert roots and len(sizes) >= len(roots)
    assert max(sizes) <= 3 * S.dim


@pytest.mark.parametrize("name, label, before", [
    ("EIII", "(DIII)", 2925), ("EIV", "(AII)", 1851)])
def test_rational_sweep_fraction_guard(monkeypatch, name, label, before):
    # deterministic counts, no timings: the sweep's entries are real
    # rationals, which Scalar keeps as int pairs, so a second analyze
    # builds few Fractions (68 and 18; with every value a radicand dict of
    # int-or-Fraction coefficients it built `before`)
    S = make_prototype(build_space(name), label)
    lts.analyze(S, seed=0)
    new = Fraction.__new__
    made = [0]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert lts.analyze(S, seed=0).is_lts
    monkeypatch.undo()
    assert made[0] <= before // 4


@pytest.mark.parametrize("name, label, before, after", [
    ("EIII", "(DIII)", 40572, 17491), ("EIV", "(AII)", 14159, 5794)],
    ids=["EIII-(DIII)", "EIV-(AII)"])
def test_sweep_row_zero_test_guard(monkeypatch, name, label, before, after):
    # deterministic counts, no timings: the linear systems of the LTS stages
    # take terms and a Span keeps each reduced row once, as its moves, so a
    # second make_prototype + analyze of a sweep row makes `after` or fewer
    # Scalar zero tests (19353 and 6390 with a dense copy of each row beside
    # its moves; with the systems written as dense vectors it made `before`)
    sp = build_space(name)
    lts.analyze(make_prototype(sp, label), seed=0)
    real = Scalar.__bool__
    tests = [0]

    def counting(self):
        tests[0] += 1
        return real(self)

    monkeypatch.setattr(Scalar, "__bool__", counting)
    assert lts.analyze(make_prototype(sp, label), seed=0).is_lts
    monkeypatch.undo()
    assert tests[0] <= after < before // 2


def test_flats_equal_to_a_are_shared():
    # a kept report holds the model's one Subspace of a, not its own copy
    sp = build_space("EIII")
    first = lts.analyze(make_prototype(sp, "(DIII)"))
    second = lts.analyze(
        lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"}))
    assert first.flat is second.flat
    assert first.flat.basis == subspace(sp, list(sp.a_basis)).basis
    line = lts.analyze(subspace(sp, [sp.sharp["l1"]])).flat
    assert line.dim == 1 and line is not first.flat


def test_kept_reports_share_roots_and_checks():
    # roots and check verdicts are values: two reports hold one object of
    # each, read-only, while restricted stays a list of its own
    S = make_prototype(build_space("EIV"), "(AII)")
    first, second = lts.analyze(S), lts.analyze(S)
    assert type(first.restricted) is list
    assert first.restricted is not second.restricted
    assert first.restricted and all(
        a is b for a, b in zip(first.restricted, second.restricted))
    assert first.checks is second.checks and all(first.checks.values())
    with pytest.raises(TypeError):
        first.checks["exhaustive"] = False
    assert first.notes == () and first.as_json()["checks"] == dict(
        first.checks)


def test_report_types_have_no_instance_dict():
    sp = build_space("EIII")
    report = lts.analyze(lts.lts_from_closed_subsystem(sp, {"l1", "2l1"}))
    row, other = ReportRow("a", "PASS"), ReportRow("b", "PASS")
    for obj in (report, report.restricted[0], report.flat, row):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    # rows that state no expected data share one read-only empty mapping
    assert row.expected is other.expected
    assert row.as_json()["expected"] == {}
    with pytest.raises(TypeError):
        row.expected["dim"] = 1


def test_decomposition_checks_pass_on_prototypes():
    sp = build_space("EIII")
    for labels in ({"l1", "2l1"}, {"l3", "l4", "2l1", "2l2"}, {"l4"}):
        S = lts.lts_from_closed_subsystem(sp, labels)
        rank, flat = lts.rank_and_flat(S)
        roots = lts.sub_restricted_roots(S, flat)
        checks = lts.decomposition_checks(S, flat, roots)
        assert all(checks.values()), (labels, checks)
        assert S.dim == rank + sum(r.mult for r in roots)


# -- complex / totally real classification ---------------------------------


def test_complexity_of_quadric_prototype_is_complex():
    sp = build_space("EIII")
    S = lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"})
    assert lts.complexity_class(S) == "complex"


def test_flat_is_totally_real():
    sp = build_space("EIII")
    S = subspace(sp, [list(z) for z in sp.a_basis])
    assert lts.complexity_class(S) == "totally_real"


def test_complexity_neither():
    sp = build_space("EIII")
    S = subspace(sp, [sp.sharp["l1"],
                      sp.charts["l1"].map(1, 0, 0, 0),
                      sp.charts["l1"].map(I, 0, 0, 0)])
    assert lts.complexity_class(S) == "neither"


def test_complexity_requires_hermitian_model():
    sp = build_space("EIV")
    S = subspace(sp, [sp.sharp["l1"]])
    with pytest.raises(lts.NoComplexStructure):
        lts.complexity_class(S)


# -- quarter-turn rotations ------------------------------------------------


def witness(sp):
    # unit isotropy vector attached to the third orbit representative of l1
    return sp.k_charts["l1"].pairs[2][0]


def test_rotate_by_zero_is_identity():
    sp = build_space("EIII")
    v = sp.charts["l2"].map(1, I, 0, 0)
    Z = [rat(0)] * sp.alg.dim
    assert lts.isotropy_rotate(sp, Z, v) == v


def test_witness_fixes_second_dual_and_doubled_chart():
    sp = build_space("EIII")
    Z = witness(sp)
    for v in (sp.sharp["l2"], sp.charts["2l2"].map(1)):
        assert lts.isotropy_rotate(sp, Z, v) == v


def test_witness_transfers_l2_into_l3_plus_l4():
    sp = build_space("EIII")
    Z = witness(sp)
    c = rat(1, 2) + I
    d = rat(2) - I
    e = rat(1) + rat(3) * I
    v = sp.charts["l2"].map(c, d, e, 0)
    img = sp.alg.bracket(Z, v)
    s = sqrt(2).inv()
    want = vec_add(
        sp.charts["l3"].map(s * d, s * c, -s * e.conj_i()),
        sp.charts["l4"].map(-s * d, -s * c, s * e))
    assert vec_is_zero(vec_sub(img, want))


def test_witness_congruence_into_quadric_prototype():
    sp = build_space("EIII")
    Z = witness(sp)
    target = lts.lts_from_closed_subsystem(sp, {"l3", "l4", "2l1", "2l2"})
    gens = [sp.sharp["l2"], sp.charts["2l2"].map(1)]
    for cs in ((1, 0, 0, 0), (I, 0, 0, 0), (0, 1, 0, 0), (0, I, 0, 0),
               (0, 0, 1, 0), (0, 0, I, 0)):
        gens.append(sp.charts["l2"].map(*cs))
    for v in gens:
        assert target.contains(lts.isotropy_rotate(sp, Z, v))


def test_rotation_is_isometric():
    sp = build_space("EIII")
    Z = witness(sp)
    vs = [sp.sharp["l2"], sp.charts["l2"].map(1, I, 0, 0),
          sp.charts["l2"].map(0, 0, rat(2), 0)]
    imgs = [lts.isotropy_rotate(sp, Z, v) for v in vs]
    for i in range(len(vs)):
        for j in range(len(vs)):
            assert sp.inner(imgs[i], imgs[j]) == sp.inner(vs[i], vs[j])


def test_rotation_rejects_wrong_speed():
    sp = build_space("EIII")
    Z = vec_scale(rat(2), witness(sp))
    with pytest.raises(lts.NotQuarterTurnCompatible):
        lts.isotropy_rotate(sp, Z, sp.charts["l2"].map(1, 0, 0, 0))


def test_rotation_rejects_non_isotropy_generator():
    sp = build_space("EIII")
    with pytest.raises(NotInM):
        lts.isotropy_rotate(sp, sp.sharp["l1"], sp.sharp["l2"])


split_coeff = st.sampled_from([rat(1), rat(-2), rat(1, 2), sqrt(3)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["EIII", "EIV"]), st.data())
def test_sigma_decides_m_and_k(name, data):
    # sum c_i m_i + sum d_j k_j lies in m exactly when every d_j is 0, and
    # it generates a quarter turn only when every c_i is 0
    sp = build_space(name)
    cs = data.draw(st.dictionaries(st.integers(0, len(sp.m_rows) - 1),
                                   split_coeff, max_size=3))
    ds = data.draw(st.dictionaries(st.integers(0, len(sp.k_rows) - 1),
                                   split_coeff, max_size=3))
    v = [rat(0)] * sp.alg.dim
    for rows, coeffs in ((sp.m_rows, cs), (sp.k_rows, ds)):
        for i, c in coeffs.items():
            v = vec_add(v, vec_scale(c, rows[i]))
    assert sp.in_m(v) == (not ds)
    zero = [rat(0)] * sp.alg.dim
    if cs:
        with pytest.raises(NotInM):
            lts.isotropy_rotate(sp, v, zero)
    else:
        assert lts.isotropy_rotate(sp, v, zero) == zero


def test_group_model_m_is_the_whole_algebra():
    sp = build_space("G2group")
    assert all(sp.in_m(sp.alg.basis_vec(k)) for k in range(sp.alg.dim))
    assert not sp.in_m(sp.alg.zero()[1:])


coeff = st.integers(min_value=-2, max_value=2)


@settings(max_examples=20, deadline=None)
@given(st.lists(coeff, min_size=8, max_size=8))
def test_rotation_preserves_norms_on_l2(cs):
    sp = build_space("EIII")
    Z = witness(sp)
    args = [rat(cs[2 * k]) + rat(cs[2 * k + 1]) * I for k in range(4)]
    v = sp.charts["l2"].map(*args)
    w = lts.isotropy_rotate(sp, Z, v)
    assert sp.norm_sq(w) == sp.norm_sq(v)


# -- reports ---------------------------------------------------------------


def test_analyze_non_lts_report():
    sp = build_space("EIII")
    v1 = sp.sharp["l1"]
    v2 = vec_add(sp.charts["l1"].map(1, 1, 0, 0), sp.charts["l3"].map(1, 0, 0))
    rep = lts.analyze(lts.Subspace(sp, [v1, v2]))
    data = rep.as_json()
    assert data["is_lts"] is False
    assert data["dim"] == 2
    assert data["failing_triple"] is not None


def test_analyze_rank_one_prototype():
    sp = build_space("EIII")
    rep = lts.analyze(lts.lts_from_closed_subsystem(sp, {"l1", "2l1"}))
    data = rep.as_json()
    assert data["is_lts"] and data["dim"] == 10 and data["rank"] == 1
    assert data["isotropy_angle"] == "0"
    assert data["complexity"] == "complex"
    mults = sorted(r["multiplicity"] for r in data["restricted"])
    assert mults == [1, 8]
    assert all(data["checks"].values())


def test_analyze_long_root_prototype_angle():
    sp = build_space("EIII")
    rep = lts.analyze(lts.lts_from_closed_subsystem(sp, {"l4"}))
    data = rep.as_json()
    assert data["rank"] == 1 and data["dim"] == 7
    assert data["isotropy_angle"] == "pi/4"


def test_markdown_report_renders():
    sp = build_space("EIII")
    rep = lts.analyze(lts.lts_from_closed_subsystem(sp, {"l4"}))
    text = rep.as_markdown()
    assert "rank: 1" in text
    assert "restricted roots:" in text
    json.dumps(rep.as_json())  # serializable


# -- subspace files --------------------------------------------------------


def test_parse_subspace_roundtrip():
    text = """
    # comment line
    space: EIII
    a(1, 0)
    M[l1](1, 0, 0, 0) + M[l2](i, 0, 0, 0)
    sharp[l2](1/2) - M[2l2](sqrt(2))
    """
    S = lts.parse_subspace(text)
    assert S.space.name == "EIII"
    assert S.dim == 3
    sp = S.space
    v = vec_sub(vec_scale(rat(1, 2), sp.sharp["l2"]),
                sp.charts["2l2"].map(sqrt(2)))
    assert S.contains(v)


def test_parse_subspace_bare_header():
    S = lts.parse_subspace("EIV\nM[l3](1, 0, 0, 0)\n")
    assert S.space.name == "EIV" and S.dim == 1


def test_parse_vector_signs_and_nesting():
    sp = build_space("EIII")
    v = lts.parse_vector(sp, "-M[l1](1+i, 0, 0, 0) + a(1/2, -1)")
    want = vec_add(vec_scale(rat(-1), sp.charts["l1"].map(rat(1) + I, 0, 0, 0)),
                   vec_sub(vec_scale(rat(1, 2), sp.a_basis[0]),
                           sp.a_basis[1]))
    assert vec_is_zero(vec_sub(v, want))
    assert lts.parse_vector(sp, "a(1, 0) - -a(0, 1)") == \
        lts.parse_vector(sp, "a(1, 1)")


def test_parse_subspace_errors():
    with pytest.raises(ParseError):
        lts.parse_subspace("")
    with pytest.raises(ParseError):
        lts.parse_subspace("EIII\nM[l9](1)\n")
    with pytest.raises(ParseError):
        lts.parse_subspace("EIII\nM[l1](1, 0, 0\n")
    with pytest.raises(ParseError):
        lts.parse_subspace("EIII\nfoo(1)\n")
    with pytest.raises(ValueError):
        lts.parse_subspace("E9\na(1, 0)\n")


def test_parsed_file_analysis_end_to_end():
    text = """space: EIII
    sharp[l4](1)
    M[l4](1, 0, 0)
    M[l4](i, 0, 0)
    M[l4](0, 1, 0)
    M[l4](0, i, 0)
    M[l4](0, 0, 1)
    M[l4](0, 0, i)
    """
    rep = lts.analyze(lts.parse_subspace(text))
    data = rep.as_json()
    assert data["is_lts"] and data["dim"] == 7 and data["rank"] == 1
    assert data["isotropy_angle"] == "pi/4"
