"""Exact Cayley/Jordan models of the exceptional spaces: the block
isomorphisms between the Jordan algebra and the 6x6 bicomplex matrix model,
the twisted unitary group and its action, the equivariant embeddings of the
classical Grassmannian/projective models into the projective variety, the
traceless quaternionic 4x4 model with its symplectic action, and the battery
``verify_models`` that checks them with the so(10) model and the Cartan maps.

Everything is computed over exact rational data, in the number systems of
``ltskit.cayley_dickson``: the complex numbers ``CNum`` over the central unit
``I``, and one element type, ``CDNum``, with integer coordinates over one
reduced denominator, for the quaternions ``H``, the bicomplex entries ``BC``
of the 6x6 matrix model, and the complexified quaternions ``HC`` and
octonions ``OC`` of the Jordan model (``ltskit.jordan``).  The boundaries
between them are index maps: a complexified quaternion a + b*j is the pair
of bicomplex numbers a, b of its 2x2 block, and a complexified octonion is
the pair h + q*e of complexified quaternions.  The matrix helpers
(``ltskit.matrices``) are ring-generic and serve every entry type, and the
real orthogonal model of SO(10)/U(5) and the Cartan maps are in
``ltskit.matrix_groups``.  All identities (base points, equivariance, variety
membership, polar periods) are checked with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Sequence

from .cayley_dickson import (
    BC, C_I, C_ONE, C_ZERO, H, HC, O, OC, Q_I, Q_J, Q_K, Q_ONE, Q_ZERO, CDNum,
    CNum, NotUnit, Quaternion, place, random_octonion,
)
from .jordan import (
    P0, JordanElement, ProjPoint, involution_gamma, involution_lambda,
    involution_sigma, phi_g2, phi_g2_kernel, proj_member, trace_pairing,
)
from .matrices import (
    conj_transpose, herm_inner, identity, is_unitary, mat_apply, mat_map,
    mat_mul, rot,
)
from .matrix_groups import cartan_map_check, so10_constructions
from .report import CatalogReport, add_row


class NotOrthonormal(ValueError):
    """Raised when a plane is given by a basis that is not orthonormal."""


class ZeroVector(ValueError):
    """Raised when a projective-space argument is the zero vector."""


# The positions in a complexified octonion h + q*e of the coordinates of h
# and of q, and in a complexified quaternion a + b*j those of the bicomplex
# numbers a and b (each in (re, im) layout).
_H_PART, _Q_PART = (0, 1, 2, 3, 8, 9, 10, 11), (4, 5, 6, 7, 12, 13, 14, 15)
_A_PART, _B_PART = (0, 1, 4, 5), (2, 3, 6, 7)

# The idempotent-generating scalar (1 + i*I)/2.
BC_EPS = CDNum(BC, Fraction(1, 2), 0, 0, Fraction(1, 2))
BC_EPS_BAR = BC_EPS.conj()
# The idempotent (1 + i*I)/2 used throughout the block isomorphisms.
HC_EPS = place(HC, (BC_EPS,), _A_PART)
# The octonion (1 + i*I)/2 * e appearing in quoted base points.
OC_EPS_E = place(OC, (HC_EPS,), _Q_PART)


# ---------------------------------------------------------------------------
# the block isomorphisms between the Jordan algebra and the 6x6 model
# ---------------------------------------------------------------------------


def phi1(X3: Sequence[Sequence[CDNum]], x: Sequence[CDNum]) \
        -> JordanElement:
    """Assemble a Jordan element from its quaternionic Hermitian part ``X3``
    and the quaternionic triple ``x`` (which fills the ``e``-component of the
    off-diagonal slots)."""
    for i in range(3):
        for j in range(3):
            if X3[j][i] != X3[i][j].conj():
                raise ValueError("quaternionic part is not Hermitian")
    xi = tuple(X3[k][k].scalar_value() for k in range(3))
    at = _H_PART + _Q_PART
    slots = (place(OC, (X3[1][2], x[0]), at),
             place(OC, (X3[2][0], x[1]), at),
             place(OC, (X3[0][1], x[2]), at))
    return JordanElement(xi, slots)


def phi1_inv(J: JordanElement) -> tuple:
    """Split a Jordan element into (quaternionic Hermitian 3x3, triple)."""
    h = [slot.take(HC, _H_PART) for slot in J.x]
    q = tuple(slot.take(HC, _Q_PART) for slot in J.x)
    d = [HC.one.scale(v) for v in J.xi]
    X3 = [[d[0], h[2], h[1].conj()],
          [h[2].conj(), d[1], h[0]],
          [h[1], h[0].conj(), d[2]]]
    return X3, q


def _hc_to_block(h: CDNum):
    """The 2x2 bicomplex block of a complexified quaternion ``a + b*j``."""
    a, b = h.take(BC, _A_PART), h.take(BC, _B_PART)
    return [[a, b], [-b.conj(), a.conj()]]


def _block_to_hc(block) -> CDNum:
    a, b = block[0][0], block[0][1]
    if block[1][0] != -b.conj() or block[1][1] != a.conj():
        raise ValueError("2x2 block is not of quaternionic type")
    return place(HC, (a, b), _A_PART + _B_PART)


def phi2p(x: Sequence[CDNum]) -> list:
    """The 2x6 bicomplex matrix of a complexified-quaternion row triple."""
    blocks = [_hc_to_block(h) for h in x]
    return [[a for block in blocks for a in block[r]] for r in range(2)]


def phi2p_inv(M) -> tuple:
    return tuple(_block_to_hc([M[0][2 * k:2 * k + 2], M[1][2 * k:2 * k + 2]])
                 for k in range(3))


def phi2(X3) -> list:
    """The 6x6 bicomplex matrix of a 3x3 complexified-quaternion matrix:
    the 2x6 rows of its three rows."""
    return [r for row in X3 for r in phi2p(row)]


def phi2_inv(M) -> list:
    return [list(phi2p_inv(M[2 * i:2 * i + 2])) for i in range(3)]


def phi_map(J: JordanElement) -> tuple:
    """The full isomorphism onto (6x6 Hermitian-type, 2x6) bicomplex data."""
    X3, x = phi1_inv(J)
    return phi2(X3), phi2p(x)


def phi_map_inv(M, R) -> JordanElement:
    return phi1(phi2_inv(M), phi2p_inv(R))


# ---------------------------------------------------------------------------
# the twisted unitary group and its action
# ---------------------------------------------------------------------------


def cnum_matrix_to_bc(A):
    """The bicomplex matrix with the entries of the complex matrix ``A``
    placed over the internal unit i."""
    return mat_map(lambda c: place(BC, (c,)), A)


def Phi_su6(A) -> list:
    """The group isomorphism A -> eps*A - conj(eps)*J*conj(A)*J from the
    unitary 6x6 matrices into the J-twisted model; ``A`` has bicomplex
    entries (unitary samples have I-free entries).

    J = diag(J', J', J') with J' = [[0, -1], [1, 0]] acts as a signed
    permutation: (J conj(A) J)[i][j] = s * conj(A[i^1][j^1]), where s = -1
    when i and j have the same parity and s = +1 otherwise.  Each entry is
    formed directly from these two terms, skipping a zero term."""
    out = []
    for i, row in enumerate(A):
        mirror = A[i ^ 1]
        out_row = []
        for j, a in enumerate(row):
            acc = BC_EPS * a if a != BC.zero else BC.zero
            c = mirror[j ^ 1]
            if c != BC.zero:
                term = BC_EPS_BAR * c.conj()
                acc = acc + term if (i ^ j) & 1 == 0 else acc - term
            out_row.append(acc)
        out.append(out_row)
    return out


def su6_check(A) -> bool:
    """Exact unitarity for a square matrix over the internal complex numbers
    (bicomplex entries with zero I-part, which conj_I fixes)."""
    return (all(a.conj_I() == a for row in A for a in row)
            and is_unitary(A, BC.one))


def f_su6_action(b: CDNum, A, J: JordanElement) -> JordanElement:
    """The action of a pair (unit quaternion, unitary 6x6 matrix) on the
    Jordan algebra through the block isomorphisms:
    ``X + x  ->  B X B* + beta(b) x B^{-1}`` with ``B`` the twisted image
    of ``A`` and ``beta(b)`` the 2x2 block of ``b``."""
    if not b.is_unit():
        raise NotUnit("the first factor must be a unit quaternion")
    if not su6_check(A):
        raise NotUnit("the second factor must be an exact unitary matrix "
                      "with I-free entries")
    M, R = phi_map(J)
    B = Phi_su6(A)
    B_star = conj_transpose(B)
    B_inv = Phi_su6(conj_transpose(A))
    beta = _hc_to_block(place(HC, (b,)))
    M2 = mat_mul(B, mat_mul(M, B_star))
    R2 = mat_mul(beta, mat_mul(R, B_inv))
    return phi_map_inv(M2, R2)


def f_su6_proj(b: CDNum, A, pt: ProjPoint) -> ProjPoint:
    return pt.map(lambda J: f_su6_action(b, A, J))


# ---------------------------------------------------------------------------
# the equivariant embeddings of the complex models
# ---------------------------------------------------------------------------


def embed_f1(u1: Sequence[CNum], u2: Sequence[CNum]) -> ProjPoint:
    """The embedding of a complex 2-plane (given by an exact orthonormal
    basis of complex 6-vectors) into the projective Jordan variety.

    The plane is encoded by the decomposable antisymmetric form
    ``S = (u1 u2^T - u2 u1^T) J`` and mapped to the twisted element
    ``eps*S - conj(eps)*J*conj(S)*J``.  ``S`` equals the orthogonal
    projection onto the plane whenever the plane is invariant under the
    quaternionic structure ``v -> J*conj(v)`` (in particular at the base
    plane spanned by e1, e2), and under a change of basis of the plane the
    twisted element only picks up a central complex factor, so the projective
    point depends on the plane alone.  Conjugating by the twisted image of a
    unitary matrix ``A`` carries the element for ``U`` exactly to the element
    for ``A(U)``, which gives the equivariance property.
    """
    u1, u2 = tuple(u1), tuple(u2)
    if len(u1) != 6 or len(u2) != 6:
        raise ValueError("expected complex 6-vectors")
    if (herm_inner(u1, u1) != C_ONE or herm_inner(u2, u2) != C_ONE
            or not herm_inner(u1, u2).is_zero()):
        raise NotOrthonormal("the basis must be exactly orthonormal")
    wedge = [[u1[i] * u2[j] - u2[i] * u1[j] for j in range(6)]
             for i in range(6)]
    # S = wedge J: column j of S is column j^1 of wedge, negated for odd j
    S = cnum_matrix_to_bc([[-row[j ^ 1] if j & 1 else row[j ^ 1]
                            for j in range(6)] for row in wedge])
    X3 = phi2_inv(Phi_su6(S))
    return ProjPoint.of(phi1(X3, (HC.zero,) * 3))


def embed_f2(ell: CDNum, v: Sequence[CDNum]) -> ProjPoint:
    """The embedding of (quaternion line, complex projective 5-space point)
    into the projective Jordan variety; ``v`` is a complex 6-vector encoded
    as a quaternion triple via (c1, c2) -> c1 - j*c2."""
    v = tuple(v)
    if len(v) != 3:
        raise ValueError("expected a quaternion triple")
    if all(q.is_zero() for q in v):
        raise ZeroVector("the projective argument must be nonzero")
    if not ell.is_unit():
        raise NotUnit("the line parameter must be a unit quaternion")
    head = place(HC, (ell,)) * HC_EPS
    x = tuple(head * place(HC, (q.conj(),)) for q in v)
    zero3 = [[HC.zero] * 3 for _ in range(3)]
    return ProjPoint.of(phi1(zero3, x))


def complex6_to_quat3(c: Sequence[CNum]) -> tuple:
    """Encode a complex 6-vector as a quaternion triple, pairing consecutive
    coordinates as ``c1 - j*c2``.

    With ``j`` multiplied from the left, complex scalars act by right
    multiplication on the quaternion triple and commute with the left action
    of the unit quaternions, which makes the line embedding projectively
    well-defined; the sign on the second coordinate matches the 2x2 block
    chart of the quaternionic entries so that the twisted unitary action on
    the matrix model restricts to the plain matrix action on the 6-vector.
    """
    c = tuple(c)
    if len(c) != 6:
        raise ValueError("expected 6 complex coordinates")
    return tuple(place(H, (c[2 * k], -c[2 * k + 1].conj())) for k in range(3))

# ---------------------------------------------------------------------------
# the traceless quaternionic 4x4 model and its symplectic action
# ---------------------------------------------------------------------------


def psi_map(J: JordanElement) -> list:
    """The linear isomorphism onto the traceless quaternionic Hermitian
    4x4 matrices: the block matrix

        [ tr(X)/2    I*x                  ]
        [ I*x*       X - tr(X)/2 * id     ]

    where ``(X, x)`` is the quaternionic split of the Jordan element."""
    X3, x = phi1_inv(J)
    half = CNum(Fraction(1, 2))
    trace = sum((X3[k][k].scalar_value() for k in range(3)), C_ZERO)
    half_tr = HC.one.scale(trace * half)
    Z = [[HC.zero] * 4 for _ in range(4)]
    Z[0][0] = half_tr
    for k in range(3):
        Z[0][k + 1] = x[k].times_I()
        Z[k + 1][0] = x[k].conj().times_I()
        for j in range(3):
            Z[k + 1][j + 1] = X3[k][j]
        Z[k + 1][k + 1] = Z[k + 1][k + 1] - half_tr
    return Z


def psi_map_inv(Z) -> JordanElement:
    """Inverse of :func:`psi_map`; validates that the argument is a traceless
    quaternionic Hermitian 4x4 matrix."""
    for i in range(4):
        for j in range(4):
            if Z[j][i] != Z[i][j].conj():
                raise ValueError("matrix is not quaternionic Hermitian")
    trace = sum((Z[k][k].scalar_value() for k in range(4)), C_ZERO)
    if trace != C_ZERO:
        raise ValueError("matrix is not traceless")
    s = Z[0][0]
    x = tuple(-(Z[0][k + 1].times_I()) for k in range(3))
    X3 = [[Z[i + 1][j + 1] for j in range(3)] for i in range(3)]
    for k in range(3):
        X3[k][k] = X3[k][k] + s
    return phi1(X3, x)


def f_sp4_action(B, J: JordanElement) -> JordanElement:
    """The action of a quaternionic unitary 4x4 matrix on the Jordan algebra
    through the traceless 4x4 model: ``Z -> B Z B*``."""
    if not is_unitary(B, Q_ONE):
        raise NotUnit("expected an exact quaternionic unitary 4x4 matrix")
    M = mat_map(lambda q: place(HC, (q,)), B)
    Z = psi_map(J)
    Z2 = mat_mul(M, mat_mul(Z, conj_transpose(M)))
    return psi_map_inv(Z2)


def f_sp4_proj(B, pt: ProjPoint) -> ProjPoint:
    return pt.map(lambda J: f_sp4_action(B, J))


def embed_f_quaternionic(u1, u2) -> ProjPoint:
    """The embedding of a quaternionic 2-plane (given by an exact orthonormal
    pair of quaternion 4-vectors spanning it as a right module) into the
    projective Jordan variety, via the shifted orthogonal projection
    ``P_U - id/2`` in the traceless 4x4 model."""
    u1, u2 = tuple(u1), tuple(u2)
    if len(u1) != 4 or len(u2) != 4:
        raise ValueError("expected quaternion 4-vectors")
    if (herm_inner(u1, u1) != Q_ONE or herm_inner(u2, u2) != Q_ONE
            or not herm_inner(u1, u2).is_zero()):
        raise NotOrthonormal("expected an exact orthonormal pair")
    half = Fraction(1, 2)
    Z = [[place(HC, (u1[i] * u1[j].conj() + u2[i] * u2[j].conj()
                     - (Q_ONE.scale(half) if i == j else Q_ZERO),))
          for j in range(4)] for i in range(4)]
    return ProjPoint.of(psi_map_inv(Z))

# ---------------------------------------------------------------------------
# sample group elements and the aggregated verification report
# ---------------------------------------------------------------------------


PYTHAGOREAN_QUATERNIONS = (
    Q_ONE, Q_I, Q_J,
    Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    Quaternion(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
)


def _su6_sample_matrices():
    c35, c45 = CNum(Fraction(3, 5)), CNum(Fraction(4, 5))
    c513, c1213 = CNum(Fraction(5, 13)), CNum(Fraction(12, 13))
    phase = identity(6, C_ONE)
    phase[0][0] = C_I
    phase[3][3] = -C_I
    return (
        identity(6, C_ONE),
        rot(6, 0, 1, c35, c45, C_ONE),
        rot(6, 0, 2, c35, c45, C_ONE),
        rot(6, 2, 4, c513, c1213, C_ONE),
        rot(6, 1, 5, c513, c1213, C_ONE),
        phase,
        mat_mul(rot(6, 0, 3, c35, c45, C_ONE), phase),
    )


def _sp4_sample_matrices():
    q35, q45 = Quaternion(Fraction(3, 5)), Quaternion(Fraction(4, 5))
    q513, q1213 = Quaternion(Fraction(5, 13)), Quaternion(Fraction(12, 13))
    h = PYTHAGOREAN_QUATERNIONS[3]

    def qdiag(*qs):
        M = identity(4, Q_ONE)
        for m, q in enumerate(qs):
            M[m][m] = q
        return M

    return (
        rot(4, 0, 1, q35, q45, Q_ONE),
        rot(4, 0, 2, q35, q45, Q_ONE),
        rot(4, 1, 3, q513, q1213, Q_ONE),
        qdiag(Q_I, Q_J, Q_K, Q_ONE),
        qdiag(h, h.conj(), Q_ONE, h),
        mat_mul(rot(4, 0, 3, q35, q45, Q_ONE), qdiag(Q_J, Q_ONE, Q_I, Q_ONE)),
    )


def _complex_plane_samples():
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    e = identity(6, C_ONE)
    return (
        (tuple(e[0]), tuple(e[1])),
        (tuple(e[2]), tuple(e[4])),
        ((CNum(f35), CNum(f45), C_ZERO, C_ZERO, C_ZERO, C_ZERO),
         (C_ZERO, C_ZERO, CNum(0, f35), C_ZERO, CNum(0, f45), C_ZERO)),
        ((CNum(f35), CNum(0, f45), C_ZERO, C_ZERO, C_ZERO, C_ZERO),
         (C_ZERO, C_ZERO, C_ZERO, C_ONE, C_ZERO, C_ZERO)),
    )


def _complex_vector_samples():
    return (
        (C_ONE, C_ZERO, C_ZERO, C_ZERO, C_ZERO, C_ZERO),
        (C_ONE, C_I, CNum(2), C_ZERO, C_ZERO, CNum(0, -3)),
    )


def _quaternionic_plane_samples():
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    h = PYTHAGOREAN_QUATERNIONS[3]
    e = identity(4, Q_ONE)
    return (
        (tuple(e[0]), tuple(e[1])),
        (tuple(e[1]), tuple(e[2])),
        ((Quaternion(f35), Quaternion(f45), Q_ZERO, Q_ZERO),
         (Q_ZERO, Q_ZERO, Quaternion(0, f513), Quaternion(0, f1213))),
        ((h, Q_ZERO, Q_ZERO, Q_ZERO),
         (Q_ZERO, PYTHAGOREAN_QUATERNIONS[4], Q_ZERO, Q_ZERO)),
    )


def parse_rational_matrix_file(text: str) -> list:
    """Parse a text file of rational matrices: one row per line, entries
    separated by whitespace, matrices separated by blank lines."""
    matrices, current = [], []
    for n, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                matrices.append(current)
                current = []
            continue
        try:
            current.append([Fraction(tok) for tok in line.split()])
        except ZeroDivisionError:
            raise ValueError(f"line {n}: zero denominator in {line!r}") \
                from None
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    if current:
        matrices.append(current)
    for M in matrices:
        if any(len(row) != len(M[0]) for row in M):
            raise ValueError("ragged matrix in sample file")
    return matrices


def verify_models(seed: int = 0, extra_orthogonal_samples: Sequence = ()) \
        -> CatalogReport:
    """Run the whole battery of exact model checks: octonion algebra laws,
    the automorphism kernel, the projective variety and its involutions, the
    three equivariant embeddings, invariance of the Hermitian pairing, the
    real orthogonal polar/meridian constructions and the Cartan maps."""
    rep = CatalogReport("models", "verification")
    row = partial(add_row, rep)

    rng = random.Random(seed)
    pairs = [(x, y) for x in O.basis for y in O.basis]
    pairs += [(random_octonion(rng), random_octonion(rng))
              for _ in range(100)]
    row("octonion-alternativity",
        all(x * (x * y) == (x * x) * y and (y * x) * x == y * (x * x)
            for x, y in pairs), {"pairs": len(pairs)})
    row("octonion-norm-multiplicativity",
        all((x * y).norm2() == x.norm2() * y.norm2() for x, y in pairs),
        {"pairs": len(pairs)})
    i_o, e_o, j_e = O.basis[1], O.basis[4], O.basis[6]
    row("octonion-non-associativity-witness",
        (i_o * e_o) * j_e != i_o * (e_o * j_e), {})
    row("octonion-unit-square", e_o * e_o == -O.one, {})

    kernel = phi_g2_kernel()
    row("automorphism-pair-kernel",
        kernel == [(Q_ONE, Q_ONE), (-Q_ONE, -Q_ONE)],
        {"kernel_size": len(kernel)})
    g_pairs = [(PYTHAGOREAN_QUATERNIONS[3], Q_ONE),
               (Quaternion(Fraction(3, 5), Fraction(4, 5)), Q_J),
               (PYTHAGOREAN_QUATERNIONS[4], PYTHAGOREAN_QUATERNIONS[3])]
    row("automorphism-samples",
        all(phi_g2(g1, g2)(x * y) == phi_g2(g1, g2)(x) * phi_g2(g1, g2)(y)
            for g1, g2 in g_pairs for x in O.basis for y in O.basis),
        {"group_elements": len(g_pairs), "basis_pairs": 64})

    raw6 = _su6_sample_matrices()
    su6 = [cnum_matrix_to_bc(A) for A in raw6]
    sp1 = PYTHAGOREAN_QUATERNIONS
    sp4 = _sp4_sample_matrices()
    planes = _complex_plane_samples()
    vectors = _complex_vector_samples()
    qplanes = _quaternionic_plane_samples()

    # each sample is embedded once; unit_lines holds the b = 1 points
    plane_pts = [embed_f1(u1, u2) for u1, u2 in planes]
    unit_lines = [(v, embed_f2(Q_ONE, complex6_to_quat3(v))) for v in vectors]
    line_pts = [pt for _, pt in unit_lines] + [
        embed_f2(sp1[1], complex6_to_quat3(v)) for v in vectors]
    quat_pts = [embed_f_quaternionic(u1, u2) for u1, u2 in qplanes]
    points = [P0, *plane_pts, *line_pts, *quat_pts]
    row("variety-membership-of-samples",
        all(proj_member(pt) for pt in points), {"points": len(points)})
    row("involution-fixes-base-point",
        involution_sigma(P0) == P0 and involution_lambda(P0) == P0
        and involution_gamma(P0) == P0, {})
    row("involutions-commute",
        all(involution_gamma(involution_lambda(pt))
            == involution_lambda(involution_gamma(pt)) for pt in points),
        {"points": len(points)})
    row("involutions-are-involutive",
        all(inv(inv(pt)) == pt for pt in points
            for inv in (involution_sigma, involution_lambda,
                        involution_gamma)),
        {"points": len(points)})

    e6 = identity(6, C_ONE)
    base_plane = embed_f1(tuple(e6[0]), tuple(e6[1]))
    row("plane-embedding-base-point", base_plane == P0, {})
    ok_eq1 = all(
        f_su6_proj(Q_ONE, A, pt)
        == embed_f1(mat_apply(raw, u1), mat_apply(raw, u2))
        for raw, A in zip(raw6, su6)
        for (u1, u2), pt in zip(planes, plane_pts))
    row("plane-embedding-equivariance", ok_eq1,
        {"group_elements": len(su6), "planes": len(planes)})
    row("plane-embedding-gamma-fixed",
        all(involution_gamma(pt) == pt for pt in plane_pts), {})
    row("plane-embedding-basis-independence",
        embed_f1(tuple(e6[1]), tuple(e6[0])) == base_plane, {})

    quoted = ProjPoint.of(JordanElement.make(
        (C_ZERO, C_ZERO, C_ZERO), (OC_EPS_E, OC.zero, OC.zero)))
    row("line-embedding-base-point", unit_lines[0][1] == quoted, {})
    scalings = (C_I, CNum(2), CNum(1, 1))
    row("line-embedding-well-defined",
        all(embed_f2(Q_ONE, complex6_to_quat3(tuple(z * c for c in v)))
            == pt for v, pt in unit_lines for z in scalings)
        and all(embed_f2(z, complex6_to_quat3(v)) == pt
                for v, pt in unit_lines
                for z in (Q_I, Quaternion(Fraction(3, 5), Fraction(4, 5)))),
        {"vector_scalings": len(scalings)})
    ok_eq2 = all(
        f_su6_proj(b, A, pt)
        == embed_f2(b, complex6_to_quat3(mat_apply(raw, v)))
        for raw, A in zip(raw6, su6) for b in sp1 for v, pt in unit_lines)
    row("line-embedding-equivariance", ok_eq2,
        {"group_elements": len(su6) * len(sp1), "vectors": len(vectors)})
    row("line-embedding-gamma-fixed",
        all(involution_gamma(pt) == pt for pt in line_pts), {})

    e4 = identity(4, Q_ONE)
    base_qplane = embed_f_quaternionic(tuple(e4[0]), tuple(e4[1]))
    row("quaternionic-embedding-base-point", base_qplane == P0, {})
    row("quaternionic-embedding-complement-fiber",
        embed_f_quaternionic(tuple(e4[2]), tuple(e4[3])) == base_qplane, {})
    ok_eq3 = all(
        f_sp4_proj(B, pt)
        == embed_f_quaternionic(mat_apply(B, u1), mat_apply(B, u2))
        for B in sp4 for (u1, u2), pt in zip(qplanes, quat_pts))
    row("quaternionic-embedding-equivariance", ok_eq3,
        {"group_elements": len(sp4), "planes": len(qplanes)})
    lam_gam = lambda pt: involution_lambda(involution_gamma(pt))
    row("quaternionic-embedding-conjugation-fixed",
        all(lam_gam(pt) == pt for pt in quat_pts), {})
    row("symplectic-action-commutes-with-conjugation",
        all(lam_gam(f_sp4_proj(B, pt)) == f_sp4_proj(B, lam_gam(pt))
            for B in sp4[:3] for pt in points[:4]), {})

    row("actions-preserve-variety",
        all(proj_member(f_su6_proj(b, A, pt))
            for A in su6[1:4] for b in sp1[:2] for pt in points[:5])
        and all(proj_member(f_sp4_proj(B, pt))
                for B in sp4[:3] for pt in points[:5]),
        {"points": 5})

    rng2 = random.Random(seed + 1)

    def rand_cnum():
        return CNum(Fraction(rng2.randint(-3, 3), rng2.randint(1, 3)),
                    Fraction(rng2.randint(-3, 3), rng2.randint(1, 3)))

    elements = [JordanElement.from_coords([rand_cnum() for _ in range(27)])
                for _ in range(4)]
    acts = [lambda J, A=A, b=b: f_su6_action(b, A, J)
            for A in su6[1:4] for b in sp1[:2]]
    acts += [lambda J, B=B: f_sp4_action(B, J) for B in sp4[:3]]
    row("actions-preserve-hermitian-pairing",
        all(trace_pairing(act(X), act(Y)) == trace_pairing(X, Y)
            for act in acts for X in elements[:2] for Y in elements[2:]),
        {"actions": len(acts)})
    row("hermitian-pairing-positive-definite-samples",
        all(trace_pairing(X, X).im == 0 and trace_pairing(X, X).re > 0
            for X in elements), {"samples": len(elements)})
    row("actions-are-linear",
        all(act(elements[0]) + act(elements[1])
            == act(elements[0] + elements[1]) for act in acts[:4]), {})

    for sub in (so10_constructions(),
                cartan_map_check("so10",
                                 extra_samples=extra_orthogonal_samples),
                cartan_map_check("su3")):
        rep.rows.extend(replace(r, label=f"{sub.space}:{r.label}")
                        for r in sub.rows)
    return rep
