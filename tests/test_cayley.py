"""Tests for the exact quaternion/octonion models, the projective Jordan
variety, its involutions, the equivariant embeddings and the orthogonal
polar/meridian constructions."""

import random
from fractions import Fraction

import pytest

from ltskit import cayley as cy
from ltskit.cayley import (
    CNum,
    C_I,
    C_ONE,
    C_ZERO,
    Cx,
    JordanElement,
    NotOrthonormal,
    NotUnit,
    O_E,
    O_ONE,
    OC_EPS_E,
    OC_ZERO,
    OCT_BASIS,
    Octonion,
    P0,
    ProjPoint,
    PYTHAGOREAN_QUATERNIONS,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Q_ZERO,
    Quaternion,
    ZeroElement,
    ZeroVector,
    cartan_instance,
    cartan_map,
    cartan_map_check,
    cnum,
    complex6_to_quat3,
    eiii_member,
    embed_f1,
    embed_f2,
    embed_f_quaternionic,
    exp_quarter_turns,
    f_sp4_proj,
    f_su6_proj,
    involution_gamma,
    involution_lambda,
    involution_sigma,
    jordan_mul,
    parse_rational_matrix_file,
    partial_complex_structure,
    phi_g2,
    phi_g2_kernel,
    phi_so5,
    polar_generator,
    polar_stabilizer_criterion,
    proj_member,
    psi_map,
    psi_map_inv,
    quat,
    random_octonion,
    so10_constructions,
    trace_form,
    trace_pairing,
    unitary_member,
    verify_models,
)

F = Fraction


# -- quaternions and octonions ---------------------------------------------


def test_quaternion_multiplication_table():
    assert Q_I * Q_J == Q_K
    assert Q_J * Q_I == -Q_K
    assert Q_I * Q_I == -Q_ONE
    assert Q_J * Q_K == Q_I
    assert Q_K * Q_I == Q_J


def test_quaternion_norm_and_inverse():
    h = quat(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert h.is_unit()
    assert h * h.inverse() == Q_ONE
    g = quat(2, 1, 0, 3)
    assert g.norm2() == F(14)
    assert g * g.inverse() == Q_ONE


def test_octonion_unit_square_and_identity():
    y = Octonion(quat(1, 2, 3, 4), quat(5, 6, 7, 8))
    assert O_ONE * y == y
    assert O_E * O_E == -O_ONE


def test_octonion_alternative_but_not_associative():
    i_o = OCT_BASIS[1]
    j_e = Octonion(Q_ZERO, Q_J)
    assert (i_o * O_E) * j_e != i_o * (O_E * j_e)
    rng = random.Random(11)
    for _ in range(50):
        x, y = random_octonion(rng), random_octonion(rng)
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)


def test_octonion_norm_multiplicative():
    rng = random.Random(12)
    for _ in range(50):
        x, y = random_octonion(rng), random_octonion(rng)
        assert (x * y).norm2() == x.norm2() * y.norm2()
    for x in OCT_BASIS:
        for y in OCT_BASIS:
            assert (x * y).norm2() == x.norm2() * y.norm2()


# -- adjoining the central unit I -------------------------------------------


# Per base ring: two non-scalar elements, and 2 + 3*I as a scalar element.
CX_SAMPLES = {
    "cnum": (Cx(CNum(1, 2), CNum(F(-1, 3), 1)),
             Cx(CNum(0, 1), CNum(2, F(1, 2))),
             Cx(CNum(2), CNum(3))),
    "quaternion": (Cx(quat(1, 2, 0, -1), quat(0, 1, 3, F(1, 2))),
                   Cx(quat(F(2, 3), 0, 1, 1), quat(1, -1, 0, 2)),
                   cy.from_cnum(CNum(2, 3), Q_ONE)),
    "octonion": (Cx(Octonion(quat(1, 2, 0, -1), quat(0, 1, 0, 1)),
                    Octonion(quat(0, 1, 3, 2), quat(1, 0, 0, -1))),
                 Cx(Octonion(quat(2, 0, 1, 1), quat(F(1, 2), 0, -1, 0)),
                    Octonion(quat(1, -1, 0, 2), quat(0, 3, 1, 0))),
                 cy.from_cnum(CNum(2, 3), O_ONE)),
}


@pytest.mark.parametrize("base", sorted(CX_SAMPLES))
def test_cx_central_unit(base):
    x, y, scalar = CX_SAMPLES[base]
    assert (x * y).conj_I() == x.conj_I() * y.conj_I()
    assert x.times_I().times_I() == -x
    assert x.conj_I().conj_I() == x and x.conj().conj() == x
    assert scalar.scalar_value() == CNum(2, 3)
    for non_scalar in (x, y):
        with pytest.raises(ValueError):
            non_scalar.scalar_value()


def test_bicomplex_zero_divisor():
    a = Cx(C_ONE, C_I)
    b = Cx(C_ONE, -C_I)
    assert not a.is_zero() and not b.is_zero()
    assert (a * b).is_zero()
    assert a * b == cy.BC_ZERO
    assert cy.BC_EPS * cy.BC_EPS == cy.BC_EPS


# -- the automorphism pairs -------------------------------------------------


def test_phi_g2_is_automorphism_on_basis():
    g = phi_g2(quat(F(3, 5), F(4, 5)), Q_J)
    for x in OCT_BASIS:
        for y in OCT_BASIS:
            assert g(x * y) == g(x) * g(y)


def test_phi_g2_identity_and_kernel_element():
    ident = phi_g2(Q_ONE, Q_ONE)
    flip = phi_g2(-Q_ONE, -Q_ONE)
    for x in OCT_BASIS:
        assert ident(x) == x
        assert flip(x) == x


def test_phi_g2_kernel_computed():
    assert phi_g2_kernel() == [(Q_ONE, Q_ONE), (-Q_ONE, -Q_ONE)]


def test_phi_g2_rejects_non_units():
    with pytest.raises(NotUnit):
        phi_g2(quat(2), Q_ONE)


# -- the projective variety and its involutions ----------------------------


def test_base_point_on_variety():
    assert proj_member(P0)
    assert eiii_member(JordanElement.diag(C_ONE, C_ZERO, C_ZERO))


def test_diag_110_off_variety():
    assert not eiii_member(JordanElement.diag(C_ONE, C_ONE, C_ZERO))


def test_quoted_line_point_on_variety():
    X = JordanElement.make((C_ZERO, C_ZERO, C_ZERO),
                           (OC_EPS_E, OC_ZERO, OC_ZERO))
    assert eiii_member(X)


def test_zero_element_rejected():
    with pytest.raises(ZeroElement):
        eiii_member(JordanElement.zero())
    with pytest.raises(ZeroElement):
        ProjPoint.of(JordanElement.zero())


def test_projective_equality_is_scaling_invariant():
    X = JordanElement.diag(CNum(2, 1), C_ZERO, C_ZERO)
    assert ProjPoint.of(X) == P0


def test_jordan_product_commutative():
    rng = random.Random(5)

    def rand():
        return JordanElement.from_coords(
            [CNum(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
             for _ in range(27)])

    for _ in range(5):
        X, Y = rand(), rand()
        assert jordan_mul(X, Y) == jordan_mul(Y, X)
        assert trace_form(X, Y) == trace_form(Y, X)


def test_involutions_fix_base_point_and_commute():
    assert involution_sigma(P0) == P0
    assert involution_lambda(P0) == P0
    pts = [P0, embed_f2(Q_ONE, complex6_to_quat3(
        (C_ONE, C_I, cnum(2, 0), C_ZERO, C_ZERO, C_ZERO)))]
    for pt in pts:
        assert involution_gamma(involution_lambda(pt)) == \
            involution_lambda(involution_gamma(pt))
        for inv in (involution_sigma, involution_lambda, involution_gamma):
            assert inv(inv(pt)) == pt


# -- the plane embedding ----------------------------------------------------


E6 = [[C_ONE if i == j else C_ZERO for j in range(6)] for i in range(6)]


def test_plane_embedding_base_point():
    assert embed_f1(tuple(E6[0]), tuple(E6[1])) == P0


def test_plane_embedding_image_on_variety_and_gamma_fixed():
    u1 = (CNum(F(3, 5)), CNum(F(4, 5)), C_ZERO, C_ZERO, C_ZERO, C_ZERO)
    u2 = (C_ZERO, C_ZERO, CNum(0, F(3, 5)), C_ZERO, CNum(0, F(4, 5)), C_ZERO)
    pt = embed_f1(u1, u2)
    assert proj_member(pt)
    assert involution_gamma(pt) == pt


def test_plane_embedding_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        embed_f1(tuple(E6[0]), tuple(E6[0]))
    with pytest.raises(NotOrthonormal):
        embed_f1((CNum(2), C_ZERO, C_ZERO, C_ZERO, C_ZERO, C_ZERO),
                 tuple(E6[1]))


# -- the line embedding -----------------------------------------------------


def test_line_embedding_quoted_base_point():
    quoted = ProjPoint.of(JordanElement.make(
        (C_ZERO, C_ZERO, C_ZERO), (OC_EPS_E, OC_ZERO, OC_ZERO)))
    assert embed_f2(Q_ONE, complex6_to_quat3(
        (C_ONE, C_ZERO, C_ZERO, C_ZERO, C_ZERO, C_ZERO))) == quoted


def test_line_embedding_projective_well_definedness():
    v = (C_ONE, C_I, cnum(2, 0), C_ZERO, C_ZERO, CNum(0, F(-3)))
    base = embed_f2(Q_ONE, complex6_to_quat3(v))
    for z in (C_I, CNum(2), CNum(1, 1)):
        scaled = tuple(z * c for c in v)
        assert embed_f2(Q_ONE, complex6_to_quat3(scaled)) == base
    assert embed_f2(Q_I, complex6_to_quat3(v)) == base
    assert embed_f2(quat(F(3, 5), F(4, 5)), complex6_to_quat3(v)) == base


def test_line_embedding_errors():
    with pytest.raises(ZeroVector):
        embed_f2(Q_ONE, (Q_ZERO, Q_ZERO, Q_ZERO))
    with pytest.raises(NotUnit):
        embed_f2(quat(2), complex6_to_quat3(tuple(E6[0])))


# -- the quaternionic embedding ---------------------------------------------


E4 = [[Q_ONE if i == j else Q_ZERO for j in range(4)] for i in range(4)]


def test_quaternionic_embedding_base_point():
    assert embed_f_quaternionic(tuple(E4[0]), tuple(E4[1])) == P0


def test_quaternionic_embedding_complement_fiber():
    assert embed_f_quaternionic(tuple(E4[2]), tuple(E4[3])) == P0
    u1 = (quat(F(3, 5)), quat(F(4, 5)), Q_ZERO, Q_ZERO)
    u2 = (Q_ZERO, Q_ZERO, quat(0, F(5, 13)), quat(0, F(12, 13)))
    w1 = (quat(F(-4, 5)), quat(F(3, 5)), Q_ZERO, Q_ZERO)
    w2 = (Q_ZERO, Q_ZERO, quat(0, F(-12, 13)), quat(0, F(5, 13)))
    assert embed_f_quaternionic(u1, u2) == embed_f_quaternionic(w1, w2)


def test_quaternionic_embedding_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        embed_f_quaternionic((Q_ONE, Q_ONE, Q_ZERO, Q_ZERO), tuple(E4[2]))


def test_psi_round_trip():
    rng = random.Random(7)
    for _ in range(5):
        J = JordanElement.from_coords(
            [CNum(F(rng.randint(-3, 3), rng.randint(1, 3)),
                  F(rng.randint(-3, 3), rng.randint(1, 3)))
             for _ in range(27)])
        assert psi_map_inv(psi_map(J)) == J


# -- the group actions ------------------------------------------------------


def test_su6_action_equivariance_sample():
    A = cy._su6_sample_matrices()[3]
    Abc = cy.cnum_matrix_to_bc(A)
    u1, u2 = tuple(E6[2]), tuple(E6[4])
    lhs = f_su6_proj(Q_ONE, Abc, embed_f1(u1, u2))
    rhs = embed_f1(cy.mat_apply(A, u1), cy.mat_apply(A, u2))
    assert lhs == rhs


def test_sp4_action_equivariance_sample():
    B = cy._sp4_sample_matrices()[3]
    u1, u2 = tuple(E4[1]), tuple(E4[2])
    lhs = f_sp4_proj(B, embed_f_quaternionic(u1, u2))
    rhs = embed_f_quaternionic(cy.mat_apply(B, u1), cy.mat_apply(B, u2))
    assert lhs == rhs


def test_actions_preserve_pairing_sample():
    rng = random.Random(13)

    def rand():
        return JordanElement.from_coords(
            [CNum(F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
             for _ in range(27)])

    X, Y = rand(), rand()
    A = cy.cnum_matrix_to_bc(cy._su6_sample_matrices()[5])
    h = PYTHAGOREAN_QUATERNIONS[3]
    assert trace_pairing(cy.f_su6_action(h, A, X),
                         cy.f_su6_action(h, A, Y)) == trace_pairing(X, Y)
    B = cy._sp4_sample_matrices()[0]
    assert trace_pairing(cy.f_sp4_action(B, X),
                         cy.f_sp4_action(B, Y)) == trace_pairing(X, Y)
    assert trace_pairing(X, X).im == 0 and trace_pairing(X, X).re > 0


# -- the orthogonal model ---------------------------------------------------


def test_polar_generator_cubes_to_minus_itself():
    for k in (1, 2):
        X = polar_generator(k)
        cube = cy.mat_mul(X, cy.mat_mul(X, X))
        assert cy.mat_eq(cube, cy.mat_neg(X))


def test_polar_period_pi():
    for k in (1, 2):
        X = polar_generator(k)
        members = [unitary_member(exp_quarter_turns(X, n)) for n in range(5)]
        assert members == [True, False, True, False, True]


def test_stabilizer_criterion_both_ways():
    phase = cy.identity(5, C_ONE)
    phase[0][0] = C_I
    fixes, preserves = polar_stabilizer_criterion(1, phase)
    assert fixes and preserves
    crossing = cy.rot(5, 0, 2, F(5, 13), F(12, 13), C_ONE)
    fixes, preserves = polar_stabilizer_criterion(1, crossing)
    assert not fixes and not preserves
    fixes, preserves = polar_stabilizer_criterion(2, crossing)
    assert fixes and preserves


def test_phi_so5_membership_criterion():
    assert unitary_member(phi_so5(cy.identity(5, F(1))))
    rot = cy.rot(5, 0, 1, F(3, 5), F(4, 5), F(1))
    assert not unitary_member(phi_so5(rot))
    invol = cy.identity(5, F(1))
    invol[3][3] = F(-1)
    invol[4][4] = F(-1)
    assert unitary_member(phi_so5(invol))


def test_partial_complex_structure_shape():
    J = partial_complex_structure(1)
    assert cy.is_skew(J)
    with pytest.raises(ValueError):
        partial_complex_structure(3)


def test_so10_constructions_report():
    rep = so10_constructions()
    assert rep.ok
    assert rep.counts() == {"PASS": 15, "FAIL": 0, "SKIPPED": 0}


# -- Cartan maps ------------------------------------------------------------


@pytest.mark.parametrize("name", ["so10", "su3"])
def test_cartan_map_reports(name):
    rep = cartan_map_check(name)
    assert rep.ok
    assert rep.counts()["FAIL"] == 0


def test_cartan_map_identity_and_fixed_points():
    inst = cartan_instance("su3")
    ident = [list(r) for r in inst.identity]
    assert cy.mat_eq(cartan_map(inst, ident), ident)
    for k in inst.fixed_samples:
        assert cy.mat_eq(cartan_map(inst, k), ident)


def test_cartan_unknown_instance():
    with pytest.raises(ValueError):
        cartan_instance("sl2")


# -- sample files and the aggregate report ---------------------------------


def test_parse_rational_matrix_file():
    text = "3/5 -4/5\n4/5 3/5\n\n# comment\n1 0\n0 1\n"
    mats = parse_rational_matrix_file(text)
    assert len(mats) == 2
    assert mats[0][0] == [F(3, 5), F(-4, 5)]
    with pytest.raises(ValueError):
        parse_rational_matrix_file("1 2\n3\n")


def test_verify_models_report():
    rep = verify_models(seed=0)
    assert rep.ok
    counts = rep.counts()
    assert counts["FAIL"] == 0
    assert counts["PASS"] >= 50
    js = rep.as_json()
    assert js["space"] == "models"
    assert "| label | status |" in rep.as_markdown()
