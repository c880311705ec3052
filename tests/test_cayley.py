"""Tests for the exact quaternion/octonion models, the projective Jordan
variety, its involutions, the equivariant embeddings and the orthogonal
polar/meridian constructions."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import generic_route as ref
from ltskit import cayley as cy
from ltskit import matrices as mx
from ltskit import matrix_groups as mg
from ltskit.cayley import (
    CNum,
    C_I,
    C_ONE,
    C_ZERO,
    JordanElement,
    NotOrthonormal,
    NotUnit,
    OC_EPS_E,
    P0,
    ProjPoint,
    PYTHAGOREAN_QUATERNIONS,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    Q_ZERO,
    Quaternion,
    ZeroVector,
    cartan_map_check,
    complex6_to_quat3,
    embed_f1,
    embed_f2,
    embed_f_quaternionic,
    f_sp4_proj,
    f_su6_proj,
    involution_gamma,
    involution_lambda,
    involution_sigma,
    parse_rational_matrix_file,
    phi_g2,
    phi_g2_kernel,
    proj_member,
    psi_map,
    psi_map_inv,
    random_octonion,
    so10_constructions,
    trace_pairing,
    verify_models,
)
from ltskit.cayley_dickson import BC, H, HC, O, OC, CDNum
from ltskit.jordan import (
    ZeroElement,
    eiii_member,
    jordan_mul,
    trace_form,
)
from ltskit.matrix_groups import (
    cartan_instance,
    cartan_map,
    exp_quarter_turns,
    partial_complex_structure,
    phi_so5,
    polar_generator,
    polar_stabilizer_criterion,
    unitary_member,
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
    h = Quaternion(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    assert h.is_unit()
    assert h * h.inverse() == Q_ONE
    g = Quaternion(2, 1, 0, 3)
    assert g.norm2() == F(14)
    assert g * g.inverse() == Q_ONE


def test_quaternion_arithmetic_matches_public_constructor():
    # results skip the validating constructor but are the same objects
    g, h = Quaternion(2, 1, 0, 3), Quaternion(F(1, 2), -1, F(2, 3), 0)
    for q in (g + h, g - h, -g, g * h, g.conj(), g.scale(3), h.inverse()):
        assert all(type(c) is F for c in q.coords())
        same = Quaternion(*q.coords())
        assert q == same and hash(q) == hash(same) and str(q) == str(same)
    assert g * h == Quaternion(2, F(-7, 2), F(-5, 3), F(13, 6))
    with pytest.raises(TypeError):
        Quaternion(0.5)


O_E = O.basis[4]


def test_octonion_unit_square_and_identity():
    y = CDNum(O, 1, 2, 3, 4, 5, 6, 7, 8)
    assert O.one * y == y
    assert O_E * O_E == -O.one


def test_octonion_alternative_but_not_associative():
    i_o = O.basis[1]
    j_e = O.basis[6]
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
    for x in O.basis:
        for y in O.basis:
            assert (x * y).norm2() == x.norm2() * y.norm2()


# -- adjoining the central unit I -------------------------------------------


# Per base ring: two non-scalar elements, and 2 + 3*I as a scalar element;
# the coordinates are (re, im), each along the base ring's basis.
CX_SAMPLES = {
    "cnum": (CDNum(BC, 1, 2, F(-1, 3), 1),
             CDNum(BC, 0, 1, 2, F(1, 2)),
             CDNum(BC, 2, 0, 3, 0)),
    "quaternion": (CDNum(HC, 1, 2, 0, -1, 0, 1, 3, F(1, 2)),
                   CDNum(HC, F(2, 3), 0, 1, 1, 1, -1, 0, 2),
                   HC.one.scale(CNum(2, 3))),
    "octonion": (CDNum(OC, 1, 2, 0, -1, 0, 1, 0, 1, 0, 1, 3, 2, 1, 0, 0, -1),
                 CDNum(OC, 2, 0, 1, 1, F(1, 2), 0, -1, 0,
                       1, -1, 0, 2, 0, 3, 1, 0),
                 OC.one.scale(CNum(2, 3))),
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
    a = CDNum(BC, 1, 0, 0, 1)   # 1 + i*I
    b = CDNum(BC, 1, 0, 0, -1)  # 1 - i*I
    assert not a.is_zero() and not b.is_zero()
    assert (a * b).is_zero()
    assert a * b == BC.zero
    assert cy.BC_EPS * cy.BC_EPS == cy.BC_EPS


# -- the automorphism pairs -------------------------------------------------


def test_phi_g2_is_automorphism_on_basis():
    g = phi_g2(Quaternion(F(3, 5), F(4, 5)), Q_J)
    for x in O.basis:
        for y in O.basis:
            assert g(x * y) == g(x) * g(y)


def test_phi_g2_identity_and_kernel_element():
    ident = phi_g2(Q_ONE, Q_ONE)
    flip = phi_g2(-Q_ONE, -Q_ONE)
    for x in O.basis:
        assert ident(x) == x
        assert flip(x) == x


def test_phi_g2_kernel_computed():
    assert phi_g2_kernel() == [(Q_ONE, Q_ONE), (-Q_ONE, -Q_ONE)]


def test_phi_g2_rejects_non_units():
    with pytest.raises(NotUnit):
        phi_g2(Quaternion(2), Q_ONE)


# -- the projective variety and its involutions ----------------------------


def test_base_point_on_variety():
    assert proj_member(P0)
    assert eiii_member(JordanElement.diag(C_ONE, C_ZERO, C_ZERO))


def test_diag_110_off_variety():
    assert not eiii_member(JordanElement.diag(C_ONE, C_ONE, C_ZERO))


def test_quoted_line_point_on_variety():
    X = JordanElement.make((C_ZERO, C_ZERO, C_ZERO),
                           (OC_EPS_E, OC.zero, OC.zero))
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
        (C_ONE, C_I, CNum(2, 0), C_ZERO, C_ZERO, C_ZERO)))]
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
        (C_ZERO, C_ZERO, C_ZERO), (OC_EPS_E, OC.zero, OC.zero)))
    assert embed_f2(Q_ONE, complex6_to_quat3(
        (C_ONE, C_ZERO, C_ZERO, C_ZERO, C_ZERO, C_ZERO))) == quoted


def test_line_embedding_projective_well_definedness():
    v = (C_ONE, C_I, CNum(2, 0), C_ZERO, C_ZERO, CNum(0, F(-3)))
    base = embed_f2(Q_ONE, complex6_to_quat3(v))
    for z in (C_I, CNum(2), CNum(1, 1)):
        scaled = tuple(z * c for c in v)
        assert embed_f2(Q_ONE, complex6_to_quat3(scaled)) == base
    assert embed_f2(Q_I, complex6_to_quat3(v)) == base
    assert embed_f2(Quaternion(F(3, 5), F(4, 5)), complex6_to_quat3(v)) == base


def test_line_embedding_errors():
    with pytest.raises(ZeroVector):
        embed_f2(Q_ONE, (Q_ZERO, Q_ZERO, Q_ZERO))
    with pytest.raises(NotUnit):
        embed_f2(Quaternion(2), complex6_to_quat3(tuple(E6[0])))


# -- the quaternionic embedding ---------------------------------------------


E4 = [[Q_ONE if i == j else Q_ZERO for j in range(4)] for i in range(4)]


def test_quaternionic_embedding_base_point():
    assert embed_f_quaternionic(tuple(E4[0]), tuple(E4[1])) == P0


def test_quaternionic_embedding_complement_fiber():
    assert embed_f_quaternionic(tuple(E4[2]), tuple(E4[3])) == P0
    u1 = (Quaternion(F(3, 5)), Quaternion(F(4, 5)), Q_ZERO, Q_ZERO)
    u2 = (Q_ZERO, Q_ZERO, Quaternion(0, F(5, 13)), Quaternion(0, F(12, 13)))
    w1 = (Quaternion(F(-4, 5)), Quaternion(F(3, 5)), Q_ZERO, Q_ZERO)
    w2 = (Q_ZERO, Q_ZERO, Quaternion(0, F(-12, 13)), Quaternion(0, F(5, 13)))
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


# -- exact matrix products -------------------------------------------------


def dense_mul(A, B):
    """Reference product: the dense triple loop over every index."""
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = A[i][0] * B[0][j]
            for t in range(1, len(B)):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def ring_type(x):
    return type(x), getattr(x, "_r", None)


SMALL_Q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
CNUMS = st.builds(CNum, SMALL_Q, SMALL_Q)


def elements(ring, *coords):
    """Elements of ``ring`` with SMALL_Q coordinates, or the given ones."""
    return st.builds(partial(CDNum, ring),
                     *(coords or [SMALL_Q] * ring.dim))


RINGS = {
    "fraction": (SMALL_Q, F(0)),
    "cnum": (CNUMS, C_ZERO),
    "quaternion": (elements(H), Q_ZERO),
    "bicomplex": (elements(BC), BC.zero),
    "complex-quaternion": (elements(HC), HC.zero),
}
SHAPES = ((6, 6, 6), (2, 6, 6), (6, 6, 1), (1, 1, 1), (3, 5, 2))


@st.composite
def sparse_matrix(draw, entries, zero, n, m):
    """An n x m matrix with a random zero pattern, including whole zero rows
    and columns and, at density 0, the zero matrix."""
    density = draw(st.sampled_from((0, 1, 2, 3, 4)))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=m))
    return [[draw(entries)
             if i not in zero_rows and j not in zero_cols
             and draw(st.integers(0, 3)) < density else zero
             for j in range(m)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), ring=st.sampled_from(sorted(RINGS)),
       shape=st.sampled_from(SHAPES))
def test_mat_mul_matches_dense_product(data, ring, shape):
    entries, zero = RINGS[ring]
    n, k, m = shape
    A = data.draw(sparse_matrix(entries, zero, n, k))
    B = data.draw(sparse_matrix(entries, zero, k, m))
    got = cy.mat_mul(A, B)
    assert got == dense_mul(A, B)
    assert all(ring_type(x) == ring_type(zero) for row in got for x in row)


def dense_j6():
    one = BC.one
    J = [[BC.zero] * 6 for _ in range(6)]
    for k in range(3):
        J[2 * k][2 * k + 1] = -one
        J[2 * k + 1][2 * k] = one
    return J


def reference_phi_su6(A):
    """eps*A - conj(eps)*J6*conj(A)*J6 with J6 a dense matrix."""
    J6 = dense_j6()
    twisted = dense_mul(J6, dense_mul(cy.mat_map(CDNum.conj, A), J6))
    return [[cy.BC_EPS * a - cy.BC_EPS_BAR * t for a, t in zip(ra, rt)]
            for ra, rt in zip(A, twisted)]


def test_phi_su6_is_the_dense_twist_on_samples():
    samples = [cy.cnum_matrix_to_bc(A) for A in cy._su6_sample_matrices()]
    samples += [cy.conj_transpose(A) for A in samples]
    for A in samples:
        assert cy.Phi_su6(A) == reference_phi_su6(A)


NONZERO_Q = SMALL_Q.filter(lambda q: q != 0)


@settings(max_examples=25, deadline=None)
@given(A=sparse_matrix(elements(BC, SMALL_Q, SMALL_Q, NONZERO_Q, SMALL_Q),
                       BC.zero, 6, 6))
def test_phi_su6_is_the_dense_twist_on_bicomplex_matrices(A):
    got = cy.Phi_su6(A)
    assert got == reference_phi_su6(A)
    assert all(ring_type(x) == ring_type(BC.zero)
               for row in got for x in row)


def test_embed_f1_is_the_dense_construction():
    assert embed_f1(tuple(E6[0]), tuple(E6[1])) == P0
    for u1, u2 in cy._complex_plane_samples():
        wedge = [[u1[i] * u2[j] - u2[i] * u1[j] for j in range(6)]
                 for i in range(6)]
        S = dense_mul(cy.cnum_matrix_to_bc(wedge), dense_j6())
        X3 = cy.phi2_inv(reference_phi_su6(S))
        expected = ProjPoint.of(cy.phi1(X3, (HC.zero,) * 3))
        assert embed_f1(u1, u2) == expected


# -- complex arithmetic and projective classes -----------------------------


# ints, zero and mixed-sign rationals, as the public constructor takes them
RATIONALS = st.one_of(st.integers(-4, 4), st.just(0), st.just(F(0)),
                      st.fractions(min_value=-5, max_value=5,
                                   max_denominator=7))
ANY_CNUM = st.builds(CNum, RATIONALS, RATIONALS)


def same_cnum(got, want):
    """Equal as values, in hash and in print, with Fraction components."""
    return (got == want and hash(got) == hash(want) and str(got) == str(want)
            and type(got.re) is F and type(got.im) is F)


@settings(max_examples=200, deadline=None)
@given(a=ANY_CNUM, b=ANY_CNUM)
def test_cnum_arithmetic_matches_public_constructor(a, b):
    # reference results are built through CNum(...), which converts
    assert same_cnum(a + b, CNum(a.re + b.re, a.im + b.im))
    assert same_cnum(a - b, CNum(a.re - b.re, a.im - b.im))
    assert same_cnum(a * b, CNum(a.re * b.re - a.im * b.im,
                                 a.re * b.im + a.im * b.re))
    assert same_cnum(-a, CNum(-a.re, -a.im))
    assert same_cnum(a.conj(), CNum(a.re, -a.im))
    assert a.is_zero() == (a == C_ZERO)
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        n = b.re * b.re + b.im * b.im
        assert same_cnum(a / b, CNum((a.re * b.re + a.im * b.im) / n,
                                     (a.im * b.re - a.re * b.im) / n))


def test_cnum_public_constructor_converts_and_rejects():
    assert same_cnum(CNum(2, -3), CNum(F(2), F(-3)))
    assert same_cnum(CNum(), C_ZERO)
    with pytest.raises(TypeError):
        CNum(0.5)
    assert not hasattr(C_ONE, "__dict__")
    with pytest.raises(AttributeError):
        C_ONE.re = F(2)


# -- the integer stored form against the Fraction references ----------------


def stored_state(v) -> tuple:
    """The integer state of a CNum, (a, b, d), or of a CDNum, its
    coordinates and then d."""
    if isinstance(v, CNum):
        return v._a, v._b, v._d
    return (*v._c, v._d)


def assert_stored_form(got):
    """Ints, a positive denominator, gcd 1, and zero over 1."""
    state = stored_state(got)
    assert all(type(n) is int for n in state)
    assert state[-1] > 0 and gcd(*state) == 1
    if got.is_zero():
        assert state[-1] == 1


def assert_same_as_reference(got, want):
    """Equal Fraction coordinates, str, repr, hash and zero test, and the
    stored form."""
    assert_stored_form(got)
    assert got.is_zero() == want.is_zero()
    assert all(type(c) is F for c in got.coords())
    assert got.coords() == want.coords()
    if isinstance(got, CNum):
        assert got == CNum(*want.coords())
    else:
        assert got == CDNum(got._r, *want.coords())
    assert str(got) == str(want) and repr(got) == repr(want)
    assert hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(RATIONALS, RATIONALS), b=st.tuples(RATIONALS, RATIONALS))
def test_cnum_matches_fraction_reference(a, b):
    x, y, rx, ry = CNum(*a), CNum(*b), ref.CNum(*a), ref.CNum(*b)
    results = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x - x, rx - rx),
               (-x, -rx), (x * y, rx * ry), (x.conj(), rx.conj())]
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            rx / ry
    else:
        results.append((x / y, rx / ry))
    for got, want in results:
        assert_same_as_reference(got, want)
        assert (got.re, got.im) == (want.re, want.im)


UNIT_QUATERNIONS = st.sampled_from(
    [q.coords() for q in PYTHAGOREAN_QUATERNIONS]
    + [(F(3, 5), F(-4, 5), 0, 0), (0, 0, 0, -1)])
QUAT_COORDS = st.one_of(st.tuples(*[RATIONALS] * 4), UNIT_QUATERNIONS)


@settings(max_examples=200, deadline=None)
@given(a=QUAT_COORDS, b=QUAT_COORDS, r=RATIONALS)
def test_quaternion_matches_fraction_reference(a, b, r):
    x, y = Quaternion(*a), Quaternion(*b)
    rx, ry = ref.Quaternion(*a), ref.Quaternion(*b)
    results = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x - x, rx - rx),
               (-x, -rx), (x * y, rx * ry), (x.conj(), rx.conj()),
               (x.scale(r), rx.scale(r))]
    if rx.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        with pytest.raises(ZeroDivisionError):
            rx.inverse()
    else:
        results.append((x.inverse(), rx.inverse()))
    for got, want in results:
        assert_same_as_reference(got, want)
        assert got.is_unit() == want.is_unit()
        assert type(got.norm2()) is F and got.norm2() == want.norm2()


ALL_RINGS = (H, O, BC, HC, OC)


def ref_base(c):
    """The reference complex number (over its own unit), quaternion or
    octonion with the coordinates c."""
    if len(c) == 2:
        return ref.CNum(*c)
    if len(c) == 4:
        return ref.Quaternion(*c)
    return ref.Octonion(ref_base(c[:4]), ref_base(c[4:]))


def ref_element(ring, c):
    """The reference element with the CDNum coordinates c of ``ring``."""
    n = ring.n
    return ref.Cx(ref_base(c[:n]), ref_base(c[n:])) if n else ref_base(c)


def ref_layout(x) -> tuple:
    """The Fraction coordinates of a reference element in CDNum order."""
    if isinstance(x, ref.Cx):
        return ref_layout(x.re) + ref_layout(x.im)
    if isinstance(x, ref.Octonion):
        return ref_layout(x.a) + ref_layout(x.b)
    return x.coords()


def complex_values(values) -> list:
    """(re, im) of each CNum, ltskit's or the reference's."""
    return [(v.re, v.im) for v in values]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), ring=st.sampled_from(ALL_RINGS), r=RATIONALS,
       c=ANY_CNUM)
def test_cdnum_matches_pair_reference(data, ring, r, c):
    # sparse coordinates, as a model's operands mostly are
    coords = st.lists(st.one_of(st.just(0), RATIONALS), min_size=ring.dim,
                      max_size=ring.dim)
    a, b = data.draw(coords), data.draw(coords)
    x, y, rx, ry = (CDNum(ring, *a), CDNum(ring, *b), ref_element(ring, a),
                    ref_element(ring, b))
    results = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x - x, rx - rx),
               (-x, -rx), (x * y, rx * ry), (x.conj(), rx.conj()),
               (x.scale(r), rx.scale(r))]
    if ring.n:
        results += [(x.conj_I(), rx.conj_I()), (x.times_I(), rx.times_I()),
                    (x.scale(c), rx.scale(ref.CNum(c.re, c.im)))]
    assert (x == y) == (rx == ry)
    for got, want in results:
        assert_stored_form(got)
        layout = ref_layout(want)
        assert tuple(F(n, got._d) for n in got._c) == layout
        assert got.is_zero() == want.is_zero()
        same = CDNum(ring, *layout)
        assert got == same and hash(got) == hash(same)
        if not ring.n:
            assert all(type(v) is F for v in got.coords())
            assert got.coords() == want.coords()
            assert type(got.norm2()) is F and got.norm2() == want.norm2()
            continue
        assert complex_values(got.coords()) == complex_values(want.coords())
        assert complex_values([got.norm2()]) == complex_values([want.norm2()])
        try:
            value = want.scalar_value()
        except ValueError:
            with pytest.raises(ValueError):
                got.scalar_value()
        else:
            assert complex_values([got.scalar_value()]) == \
                complex_values([value])


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_product_tables(ring):
    e, n = ring.basis, ring.dim
    for i in range(n):
        assert len(ring.table[i]) == n
        for j in range(n):
            k, s = ring.table[i][j]
            assert 0 <= k < n and s in (1, -1)
            assert e[i] * e[j] == (e[k] if s > 0 else -e[k])
    assert ring.one is e[0]
    assert all(e[0] * x == x == x * e[0] for x in e)
    assert all((x * y).conj() == y.conj() * x.conj() for x in e for y in e)
    assoc = {(i, j, k): (e[i] * e[j]) * e[k] - e[i] * (e[j] * e[k])
             for i in range(n) for j in range(n) for k in range(n)}
    if ring in (H, BC, HC):
        assert all(a.is_zero() for a in assoc.values())
    if ring is BC:
        assert all(x * y == y * x for x in e for y in e)
    if ring in (O, OC):
        # alternative: the associator changes sign under each swap
        assert all(a == -assoc[j, i, k] == -assoc[i, k, j]
                   for (i, j, k), a in assoc.items())
        assert not all(a.is_zero() for a in assoc.values())


def test_constructors_reject_floats():
    float_ident = [[float(i == j) for j in range(10)] for i in range(10)]
    for make in (lambda: CNum(0.5), lambda: CNum(1, 0.25),
                 lambda: Quaternion(0.5), lambda: Quaternion(0, 0, 0, 1e-3),
                 lambda: Q_ONE.scale(0.5),
                 lambda: mg.is_orthogonal([[0.6, -0.8], [0.8, 0.6]]),
                 lambda: cartan_map_check("so10",
                                          extra_samples=[float_ident])):
        with pytest.raises(TypeError):
            make()
    with pytest.raises(AttributeError):
        Q_ONE.w = F(2)


def flat_coords(element):
    """The 27 complex coordinates: the diagonal, then each slot's."""
    return list(element.xi) + [c for slot in element.x for c in slot.coords()]


def divided_coords(element):
    """The projective class as every coordinate divided by the pivot."""
    raw = flat_coords(element)
    pivot = next(c for c in raw if not c.is_zero())
    return [c / pivot for c in raw]


@settings(max_examples=60, deadline=None)
@given(coords=st.lists(st.one_of(st.just(C_ZERO), ANY_CNUM),
                       min_size=27, max_size=27),
       pivot=st.sampled_from((None, C_ONE, CNum(1, 1), CNum(1, F(-2, 3)),
                              C_I, CNum(F(1, 2)))))
def test_proj_point_matches_division(coords, pivot):
    # the pivot is the first nonzero coordinate: 1, near 1, or as drawn
    nonzero = [k for k, c in enumerate(coords) if not c.is_zero()]
    if not nonzero:
        with pytest.raises(ZeroElement):
            ProjPoint.of(JordanElement.from_coords(coords))
        return
    if pivot is not None:
        coords[nonzero[0]] = pivot
    element = JordanElement.from_coords(coords)
    got = ProjPoint.of(element)
    want = divided_coords(element)
    point = ProjPoint(JordanElement.from_coords(want))
    assert got == point and hash(got) == hash(point)
    assert all(same_cnum(g, w)
               for g, w in zip(flat_coords(got.element), want))


def bicomplex_unitary_variants():
    """The lifted unitary samples, each with one entry doubled and with one
    entry's sign flipped (unitary or not: the bicomplex test decides)."""
    out = []
    for A in map(cy.cnum_matrix_to_bc, cy._su6_sample_matrices()):
        i, j = 1, next(j for j, a in enumerate(A[1]) if a != BC.zero)
        doubled = [list(r) for r in A]
        doubled[i][j] = A[i][j] + A[i][j]
        flipped = [list(r) for r in A]
        flipped[i][j] = -A[i][j]
        out += [A, doubled, flipped]
    return out


def test_is_unitary_rejects_an_isometry_that_is_not_square():
    isometry = [[C_ONE, C_ZERO], [C_ZERO, C_ONE], [C_ZERO, C_ZERO]]
    assert not cy.is_unitary(isometry, C_ONE)


def test_sp4_action_rejects_a_non_square_isometry():
    B = [[Q_ONE if i == j else Q_ZERO for j in range(3)] for i in range(4)]
    with pytest.raises(NotUnit):
        cy.f_sp4_action(B, P0.element)


def test_su6_check_rejects_a_non_square_isometry():
    A = [row[:5] for row in cy.cnum_matrix_to_bc(E6)]
    assert not cy.su6_check(A)


def test_su6_check_is_the_bicomplex_unitarity():
    verdicts = []
    for A in bicomplex_unitary_variants():
        assert cy.su6_check(A) == cy.is_unitary(A, BC.one)
        verdicts.append(cy.su6_check(A))
    assert any(verdicts) and not all(verdicts)
    for A in map(cy.cnum_matrix_to_bc, cy._su6_sample_matrices()):
        for im in BC.basis[2:]:  # I and i*I
            B = [list(r) for r in A]
            B[2][2] = B[2][2] + im
            assert not cy.su6_check(B)


# -- the orthogonal model ---------------------------------------------------


def test_polar_generator_cubes_to_minus_itself():
    for k in (1, 2):
        X = polar_generator(k)
        cube = cy.mat_mul(X, cy.mat_mul(X, X))
        assert cube == mx.mat_neg(X)


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
    crossing = cy.rot(5, 0, 2, CNum(F(5, 13)), CNum(F(12, 13)), C_ONE)
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
    assert mg.is_skew(J)
    with pytest.raises(ValueError):
        partial_complex_structure(3)


def test_so10_constructions_report():
    rep = so10_constructions()
    assert rep.ok
    assert rep.counts() == {"PASS": 15, "FAIL": 0, "SKIPPED": 0}


# -- the integer orthogonal model against the Fraction references ----------


PYTHAGOREAN_PAIRS = ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)),
                     (F(8, 17), F(-15, 17)), (0, 1))
U5_SAMPLES = mg._u5_sample_matrices()


@st.composite
def rotation_products(draw):
    """A product of one to three Pythagorean plane rotations of R^10."""
    g = cy.identity(10, F(1))
    for _ in range(draw(st.integers(1, 3))):
        p, q = draw(st.lists(st.integers(0, 9), min_size=2, max_size=2,
                             unique=True))
        c, s = draw(st.sampled_from(PYTHAGOREAN_PAIRS))
        g = cy.mat_mul(g, cy.rot(10, p, q, c, s, F(1)))
    return g


@st.composite
def unitary_products(draw):
    """A product of one or two U(5) samples, as a complex 5x5 matrix."""
    U = draw(st.sampled_from(U5_SAMPLES))
    if draw(st.booleans()):
        U = cy.mat_mul(U, draw(st.sampled_from(U5_SAMPLES)))
    return U


@st.composite
def tangent_vectors(draw):
    """[[A, B], [B, -A]] with A, B skew rational 5x5 matrices."""
    A, B = ([[F(0)] * 5 for _ in range(5)] for _ in range(2))
    for M in (A, B):
        for i, j in draw(st.lists(st.tuples(st.integers(0, 4),
                                            st.integers(0, 4)), max_size=4)):
            if i != j:
                M[i][j] = draw(SMALL_Q)
                M[j][i] = -M[i][j]
    return mg._from_half_blocks(A, B, B, mx.mat_neg(A))


def as_fraction_rows(G):
    """The Fraction rows of an IntMatrix, after checking its stored form:
    int rows, d > 0, gcd 1, and zero over 1."""
    assert type(G) is mg.IntMatrix
    with pytest.raises(TypeError):  # not a sequence: no old-style G[0][0]
        G[0]
    rows, d = G.rows, G.d
    entries = [x for row in rows for x in row]
    assert type(d) is int and d > 0
    assert all(type(x) is int for x in entries)
    assert gcd(d, *entries) == 1
    assert any(entries) or d == 1
    return [[F(x, d) for x in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), kind=st.sampled_from(("rotation", "lift", "tangent")),
       perturb=st.booleans())
def test_orthogonal_model_matches_fraction_reference(data, kind, perturb):
    if kind == "lift":
        U = data.draw(unitary_products())
        g = ref.complex_to_real10(U)
        assert as_fraction_rows(mg.complex_to_real10(U)) == g
    else:
        g = data.draw(rotation_products() if kind == "rotation"
                      else tangent_vectors())
    if perturb:
        i, j = data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))
        g = [list(row) for row in g]
        g[i][j] += data.draw(SMALL_Q.filter(bool))
    G = mg._int_form(g)
    assert as_fraction_rows(G) == g
    for x in (g, G):
        assert mg.is_orthogonal(x) == ref.is_orthogonal(g)
        assert mg.unitary_member(x) == ref.unitary_member(g)
        assert mg.tangent_member(x) == ref.tangent_member(g)
        assert as_fraction_rows(mg.orthogonal_sigma(x)) == \
            ref.orthogonal_sigma(g)
    inst = cartan_instance("so10")
    assert as_fraction_rows(cartan_map(inst, G)) == ref.cartan_map(g)
    h = data.draw(rotation_products())
    assert as_fraction_rows(G @ mg._int_form(h)) == cy.mat_mul(g, h)
    zero = G @ mg._int_form([[0] * 10 for _ in range(10)])
    assert as_fraction_rows(zero) == [[0] * 10 for _ in range(10)]


# -- Cartan maps ------------------------------------------------------------


@pytest.mark.parametrize("name", ["so10", "su3"])
def test_cartan_map_reports(name):
    rep = cartan_map_check(name)
    assert rep.ok
    assert rep.counts()["FAIL"] == 0


def test_cartan_map_identity_and_fixed_points():
    inst = cartan_instance("su3")
    ident = [list(r) for r in inst.identity]
    assert cartan_map(inst, ident) == ident
    for k in inst.fixed_samples:
        assert cartan_map(inst, k) == ident


def test_model_cost_guard(monkeypatch):
    # deterministic counts, no timings: the so(10) checks build one table of
    # quarter turns per generator (X**2 and X**3 = -X formed once each) and
    # the Cartan checks form each image sigma(g) g**-1 once, so each battery
    # takes fewer products than the 256, 79 and 64 of recomputing them
    calls = []
    mat_mul = mg.mat_mul

    def recording_mat_mul(A, B):
        calls.append(A)
        return mat_mul(A, B)

    monkeypatch.setattr(mg, "mat_mul", recording_mat_mul)
    counts = {}
    for name, run in (("so10", so10_constructions),
                      ("cartan-so10", lambda: cartan_map_check("so10")),
                      ("cartan-su3", lambda: cartan_map_check("su3"))):
        calls.clear()
        assert run().ok
        counts[name] = len(calls)
        if name == "so10":
            generator_products = [sum(A == polar_generator(k) for A in calls)
                                  for k in (1, 2)]
    assert counts["so10"] < 256
    assert counts["cartan-so10"] < 79
    assert counts["cartan-su3"] < 64
    # the generator is the left factor of exactly X*X and X*X**2
    assert generator_products == [2, 2]


def test_model_public_constructor_guard(monkeypatch):
    # deterministic counts: arithmetic and the index maps between the rings
    # build through _new_cnum/_new_cd/place, so only the sample matrices
    # (the rotations' cosines and sines and the literal CNums) reach the
    # public constructors; before integer coordinates the four runs made
    # 15, 6, 5 and 79
    A = cy.cnum_matrix_to_bc(cy._su6_sample_matrices()[6])
    b = PYTHAGOREAN_QUATERNIONS[3]
    X = JordanElement.from_coords(
        [CNum(F(k % 5 - 2, k % 3 + 1), F(k % 7 - 3, 2)) for k in range(27)])
    calls = Counter()
    for cls in (CNum, CDNum):
        def recording(self, *args, _init=cls.__init__, _name=cls.__name__,
                      **kwargs):
            calls[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", recording)
    counts = {}
    for name, run in (("so10", so10_constructions),
                      ("cartan-so10", lambda: cartan_map_check("so10")),
                      ("cartan-su3", lambda: cartan_map_check("su3")),
                      ("f_su6_action", lambda: cy.f_su6_action(b, A, X))):
        calls.clear()
        run()
        counts[name] = sum(calls.values())
    assert counts["so10"] <= 15
    assert counts["cartan-so10"] <= 6
    assert counts["cartan-su3"] <= 5
    assert counts["f_su6_action"] == 0


def test_so10_fraction_guard(monkeypatch):
    # deterministic counts, no timings: the orthogonal model runs on int
    # rows over one denominator, so only the sample literals and the CNum
    # rotations build Fractions (with Fraction matrices these two runs made
    # 11566 and 3851)
    new = Fraction.__new__
    made = [0]

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return new(cls, *args, **kwargs)

    counts = {}
    for name, run in (("so10", so10_constructions),
                      ("cartan-so10", lambda: cartan_map_check("so10"))):
        run()
        made[0] = 0
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        assert run().ok
        monkeypatch.undo()
        counts[name] = made[0]
    assert counts["so10"] <= 500
    assert counts["cartan-so10"] <= 200


def test_cayley_rows_share_read_only_computed():
    # each distinct row is made once: kept reports share rows, labels and
    # computed mappings, which are read-only; as_json hands out plain dicts
    first, second = cartan_map_check("su3"), cartan_map_check("su3")
    # so is each distinct sub-battery report, which no caller can change
    assert first is second and type(first.rows) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.space = "changed"
    with pytest.raises(AttributeError):
        first.rows.append(first.rows[0])
    extra = cartan_map_check("so10", extra_samples=[cy.identity(10, 1)])
    assert extra.rows[2].computed == {"pairs": 18}
    assert cartan_map_check("so10").rows[2].computed == {"pairs": 15}
    for r1, r2 in zip(first.rows, second.rows):
        assert r1 is r2 and r1.computed is r2.computed
        with pytest.raises(TypeError):
            r1.computed["samples"] = 0
    assert first.rows[0].computed == {}
    assert first.rows[1].computed == {"fixed_samples": 3}
    so10 = [so10_constructions().rows for _ in range(2)]
    assert all(r1 is r2 for r1, r2 in zip(*so10))
    # equal content is one mapping, whichever row reports it
    assert so10[0][0].computed is first.rows[0].computed
    with pytest.raises(TypeError):
        so10[0][0].computed["x"] = 1
    with pytest.raises(AttributeError):
        so10[0][0].label = "renamed"
    for rep in (first, so10_constructions()):
        for r in rep.as_json()["rows"]:
            assert type(r["computed"]) is dict and type(r["expected"]) is dict
    assert first.as_json() == second.as_json()
    # the battery prefixes its own copies and leaves the shared rows alone
    labels = [r.label for r in verify_models(seed=0).rows]
    assert "cartan-su3:antisymmetry" in labels
    assert [r.label for r in cartan_map_check("su3").rows] == [
        r.label for r in first.rows]


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
    with pytest.raises(ValueError):
        parse_rational_matrix_file("1/0 0\n0 1\n")


def test_verify_models_report():
    rep = verify_models(seed=0)
    assert rep.ok
    counts = rep.counts()
    assert len(rep.rows) == 54
    assert counts["PASS"] == 54
    assert counts["FAIL"] == 0
    js = rep.as_json()
    assert js["space"] == "models"
    assert "| label | status |" in rep.as_markdown()
