"""Exact matrix groups: the real orthogonal model of the isotropic-plane
space SO(10)/U(5) with its polar and meridian constructions, and the Cartan
maps g -> sigma(g) g**-1 of exact matrix groups (so10 in that model, su3
over the complex numbers).

A matrix of the real model is an ``IntMatrix``: int rows over one positive
denominator, reduced once, so products, transposes and the orthogonality
test NᵀN == d²·I run on ints.  The public helpers also take rows of ints or
``Fraction``s and reject floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import matmul
from typing import Callable, Sequence

from .cayley_dickson import (
    C_I, C_ONE, C_ZERO, CNum, NotUnit, _frac, cnum_matrix_parts,
)
from .matrices import (
    conj_transpose, identity, is_unitary, mat_map, mat_mul, mat_neg,
    mat_transpose, rot,
)
from .report import CatalogReport, add_row, shared_report


# ---------------------------------------------------------------------------
# the real orthogonal model of the isotropic-plane space SO(10)/U(5)
# ---------------------------------------------------------------------------
#
# The ten real coordinates split as V + i*V with V spanned by the first five;
# the unitary subgroup consists of the orthogonal block matrices
# [[A, -B], [B, A]].  A matrix is an ``IntMatrix``, and the helpers also
# take rows of ints or ``Fraction``s; the integer-valued ones return int rows.


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """The rational matrix ``rows / d`` with ``d > 0``, reduced (gcd 1 over d
    and every entry, so zero is over 1): equal matrices have equal fields.
    It is not a sequence; its int rows are ``.rows``."""

    rows: list
    d: int

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return _int_matrix(mat_mul(self.rows, other.rows), self.d * other.d)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(mat_transpose(self.rows), self.d)


def _int_matrix(rows, d: int) -> IntMatrix:
    """The IntMatrix ``rows / d`` of int rows and ``d > 0``, reduced by the
    gcd of d and every entry once."""
    g = gcd(d, *(x for row in rows for x in row))
    if g != 1:
        rows = [[x // g for x in row] for row in rows]
    return IntMatrix(rows, d // g)


def _int_form(g) -> IntMatrix:
    """An IntMatrix, or rows of ints and ``Fraction``s (else ``TypeError``)
    over the lcm of their reduced denominators, which keeps them reduced."""
    if isinstance(g, IntMatrix):
        return g
    rows = [[x if isinstance(x, int) else _frac(x) for x in row] for row in g]
    d = lcm(*(x.denominator for row in rows for x in row))
    return IntMatrix([[x.numerator * (d // x.denominator) for x in row]
                      for row in rows], d)


def _rot(n: int, p: int, q: int, triple: tuple) -> IntMatrix:
    """The real rotation by (cos, sin) = (a/r, b/r) in the plane of
    coordinates p and q, for ints with a**2 + b**2 == r**2 and gcd 1."""
    return IntMatrix(rot(n, p, q, *triple), triple[2])


_P5, _P13 = (3, 4, 5), (5, 12, 13)
_ZERO5 = ((0,) * 5,) * 5


def is_orthogonal(g) -> bool:
    """Whether g**T g is the identity: N**T N == d**2 * id for g = N/d."""
    g = _int_form(g)
    return (mat_mul(mat_transpose(g.rows), g.rows)
            == identity(len(g.rows), g.d * g.d))


def _half_blocks(g):
    n = len(g) // 2
    A = [[g[i][j] for j in range(n)] for i in range(n)]
    C = [[g[i][n + j] for j in range(n)] for i in range(n)]
    B = [[g[n + i][j] for j in range(n)] for i in range(n)]
    D = [[g[n + i][n + j] for j in range(n)] for i in range(n)]
    return A, C, B, D


def _from_half_blocks(A, C, B, D):
    n = len(A)
    return [list(A[i]) + list(C[i]) for i in range(n)] + \
        [list(B[i]) + list(D[i]) for i in range(n)]


def orthogonal_sigma(g) -> IntMatrix:
    """The symmetric-structure involution [[A, C], [B, D]] ->
    [[D, -B], [-C, A]] on the real orthogonal group of even size."""
    g = _int_form(g)
    A, C, B, D = _half_blocks(g.rows)
    return IntMatrix(_from_half_blocks(D, mat_neg(B), mat_neg(C), A), g.d)


def unitary_member(g) -> bool:
    """Membership in the unitary subgroup: orthogonal with block form
    [[A, -B], [B, A]]."""
    g = _int_form(g)
    if not is_orthogonal(g):
        return False
    A, C, B, D = _half_blocks(g.rows)
    return A == D and C == mat_neg(B)


def is_skew(A) -> bool:
    N = _int_form(A).rows
    return mat_transpose(N) == mat_neg(N)


def tangent_member(X) -> bool:
    """Membership in the complement of the unitary subalgebra: the block
    matrices [[A, B], [B, -A]] with A, B skew."""
    A, C, B, D = _half_blocks(_int_form(X).rows)
    return is_skew(A) and is_skew(B) and C == B and D == mat_neg(A)


def complex_to_real10(U) -> IntMatrix:
    """The real 10x10 form [[A, -B], [B, A]] of a complex 5x5 matrix
    ``A + iB`` of CNums, over the lcm of their denominators."""
    A, B, d = cnum_matrix_parts(U)
    return IntMatrix(_from_half_blocks(A, mat_neg(B), B, A), d)


def partial_complex_structure(k: int) -> list:
    """A skew 5x5 matrix J with J**3 = -J whose image is the span of the
    first 2k coordinates (k in {1, 2})."""
    if k not in (1, 2):
        raise ValueError("the half-dimension parameter must be 1 or 2")
    J = [[0] * 5 for _ in range(5)]
    for m in range(k):
        J[2 * m][2 * m + 1] = -1
        J[2 * m + 1][2 * m] = 1
    return J


def polar_generator(k: int) -> list:
    """The tangent vector diag(J, -J) generating the polar geodesic."""
    J = partial_complex_structure(k)
    return _from_half_blocks(J, _ZERO5, _ZERO5, mat_neg(J))


_QUARTER_SIN_COS = ((0, 1), (1, 0), (0, -1), (-1, 0))  # (sin, cos) at n*pi/2


def _quarter_turns(X) -> tuple:
    """(X**3 == -X, the table of exp(t X) at t = n*pi/2 for n = 0..3), from
    one square of X: exp(tX) = id + sin(t) X + (1 - cos(t)) X**2 holds when
    the flag does; for X = N/d the table is over d**2."""
    X = _int_form(X)
    N, d = X.rows, X.d
    N2, dd = mat_mul(N, N), d * d
    cubes = mat_mul(N, N2) == [[-dd * x for x in row] for row in N]
    return cubes, [_int_matrix([[dd * (i == j) + s * d * x + (1 - c) * x2
                                 for j, (x, x2) in enumerate(zip(row, row2))]
                                for i, (row, row2) in enumerate(zip(N, N2))],
                               dd)
                   for s, c in _QUARTER_SIN_COS]


def exp_quarter_turns(X, n: int) -> IntMatrix:
    """The exact matrix exponential exp(t X) at t = n*pi/2 for a matrix
    satisfying X**3 = -X, via exp(tX) = id + sin(t) X + (1 - cos(t)) X**2."""
    cubes, table = _quarter_turns(X)
    if not cubes:
        raise ValueError("the generator must satisfy X**3 == -X")
    return table[n % 4]


def polar_stabilizer_criterion(k: int, U) -> tuple:
    """For a unitary-subgroup element given as a complex 5x5 matrix ``U``:
    the pair (S**-1 g S lies in the unitary subgroup, g preserves the
    complexified span of the first 2k coordinates); the polar stabilizer
    criterion asserts these are equal."""
    return _polar_stabilizer_criterion(
        k, U, exp_quarter_turns(polar_generator(k), 1))


def _polar_stabilizer_criterion(k: int, U, S: IntMatrix) -> tuple:
    """The criterion, given the polar midpoint ``S`` of generator k."""
    g = complex_to_real10(U)
    if not unitary_member(g):
        raise NotUnit("expected an exact unitary 5x5 matrix")
    fixes = unitary_member(S.transpose() @ (g @ S))
    span = [*range(2 * k), *range(5, 5 + 2 * k)]
    return fixes, all(g.rows[r][j] == 0 for j in span
                      for r in range(len(g.rows)) if r not in span)


def embed_so4_so6(M4, M6) -> IntMatrix:
    """The embedding of a pair (4x4, 6x6) of real matrices acting on the
    complexified splitting (first two complex coordinates, last three) into
    the 10x10 model; each factor uses its own (V, i*V) block convention."""
    M4, M6 = _int_form(M4), _int_form(M6)
    d = lcm(M4.d, M6.d)
    g = [[0] * 10 for _ in range(10)]
    for idx, M in (([0, 1, 5, 6], M4), ([2, 3, 4, 7, 8, 9], M6)):
        e = d // M.d
        for i, row in zip(idx, M.rows):
            for j, x in zip(idx, row):
                g[i][j] = e * x
    return _int_matrix(g, d)


def embed_so8(M8) -> IntMatrix:
    """The embedding of an 8x8 real matrix acting on the complexified span of
    the first four coordinates into the 10x10 model, fixing the rest."""
    M8 = _int_form(M8)
    g = identity(10, M8.d)
    idx8 = [0, 1, 2, 3, 5, 6, 7, 8]
    for i, row in zip(idx8, M8.rows):
        for j, x in zip(idx8, row):
            g[i][j] = x
    return _int_matrix(g, M8.d)


def phi_so5(B) -> IntMatrix:
    """The homomorphism B -> diag(B, B**-1) from the real orthogonal 5x5
    matrices into the 10x10 model."""
    B = _int_form(B)
    if not is_orthogonal(B):
        raise NotUnit("expected an exact orthogonal 5x5 matrix")
    return IntMatrix(_from_half_blocks(B.rows, _ZERO5, _ZERO5,
                                       mat_transpose(B.rows)), B.d)

# ---------------------------------------------------------------------------
# Cartan maps g*K -> sigma(g) g**-1 for exact matrix-group instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanInstance:
    """An exact matrix group with product and involution, for Cartan maps."""

    name: str
    identity: object
    mul: Callable
    inverse: Callable
    sigma: Callable
    in_group: Callable
    in_fixed: Callable
    samples: tuple
    fixed_samples: tuple


def _so10_cartan_instance() -> CartanInstance:
    c35, c45 = CNum(Fraction(3, 5)), CNum(Fraction(4, 5))
    c513, c1213 = CNum(Fraction(5, 13)), CNum(Fraction(12, 13))
    u_rot = complex_to_real10(rot(5, 0, 1, c35, c45, C_ONE))
    phase = identity(5, C_ONE)
    phase[0][0] = C_I
    u_phase = complex_to_real10(phase)
    samples = (
        _rot(10, 0, 5, _P5),
        _rot(10, 2, 7, _P13),
        _rot(10, 0, 5, _P5) @ _rot(10, 1, 8, _P5),
        u_rot @ _rot(10, 3, 9, _P13),
        u_phase,
    )
    return CartanInstance(
        name="so10",
        identity=IntMatrix(identity(10, 1), 1),
        mul=matmul,
        inverse=IntMatrix.transpose,
        sigma=orthogonal_sigma,
        in_group=is_orthogonal,
        in_fixed=unitary_member,
        samples=samples,
        fixed_samples=(u_rot, u_phase,
                       complex_to_real10(rot(5, 1, 4, c513, c1213, C_ONE))),
    )


def _su3_cartan_instance() -> CartanInstance:
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    rot01 = rot(3, 0, 1, CNum(f35), CNum(f45), C_ONE)
    perm = [[C_ZERO, -C_ONE, C_ZERO],
            [C_ONE, C_ZERO, C_ZERO],
            [C_ZERO, C_ZERO, C_ONE]]
    diag_i = [[C_I, C_ZERO, C_ZERO],
              [C_ZERO, C_I, C_ZERO],
              [C_ZERO, C_ZERO, -C_ONE]]
    pyth = [[CNum(f35, f45), C_ZERO, C_ZERO],
            [C_ZERO, CNum(f35, -f45), C_ZERO],
            [C_ZERO, C_ZERO, C_ONE]]
    samples = (diag_i, pyth, mat_mul(diag_i, rot01), mat_mul(pyth, perm))

    in_group = partial(is_unitary, one=C_ONE)

    def in_fixed(A) -> bool:
        if any(c.im != 0 for row in A for c in row):
            return False
        return in_group(A)

    return CartanInstance(
        name="su3",
        identity=identity(3, C_ONE),
        mul=mat_mul,
        inverse=conj_transpose,
        sigma=lambda A: mat_map(lambda c: c.conj(), A),
        in_group=in_group,
        in_fixed=in_fixed,
        samples=samples,
        fixed_samples=(rot01, perm, mat_mul(rot01, perm)),
    )


_CARTAN_INSTANCES = {"so10": _so10_cartan_instance,
                     "su3": _su3_cartan_instance}


def cartan_instance(name: str) -> CartanInstance:
    try:
        return _CARTAN_INSTANCES[name]()
    except KeyError:
        raise ValueError(f"unknown Cartan-map instance: {name!r}") from None


def cartan_map(inst: CartanInstance, g):
    """The Cartan map sigma(g) * g**-1."""
    return inst.mul(inst.sigma(g), inst.inverse(g))


def cartan_map_check(name: str,
                     extra_samples: Sequence = ()) -> CatalogReport:
    """Verify the defining identities of the Cartan map on exact samples of
    the given matrix-group instance; ``extra_samples`` are more elements of
    the real instance so10, as rows of ints or ``Fraction``s."""
    inst = cartan_instance(name)
    ident = inst.identity
    samples = list(inst.samples) + [_int_form(g) for g in extra_samples]
    rep = CatalogReport(f"cartan-{name}", "verification")
    row = partial(add_row, rep)
    for g in samples:
        if not inst.in_group(g):
            raise NotUnit(f"sample is not in the {name} group")
    row("identity-maps-to-identity",
        cartan_map(inst, ident) == ident, {})
    row("fixed-subgroup-collapses",
        all(cartan_map(inst, k) == ident
            for k in inst.fixed_samples),
        {"fixed_samples": len(inst.fixed_samples)})
    images = [cartan_map(inst, g) for g in samples]
    row("right-coset-invariance",
        all(cartan_map(inst, inst.mul(g, k)) == image
            for g, image in zip(samples, images) for k in inst.fixed_samples),
        {"pairs": len(samples) * len(inst.fixed_samples)})
    row("image-in-group",
        all(inst.in_group(image) for image in images),
        {"samples": len(samples)})
    row("antisymmetry",
        all(inst.sigma(image) == inst.inverse(image)
            for image in images),
        {"samples": len(samples)})
    row("nondegenerate-on-samples",
        any(image != ident for image in images), {})
    return shared_report(rep)


# ---------------------------------------------------------------------------
# the polar/meridian constructions in the real orthogonal model
# ---------------------------------------------------------------------------


def _u5_sample_matrices():
    c35, c45 = CNum(Fraction(3, 5)), CNum(Fraction(4, 5))
    c513, c1213 = CNum(Fraction(5, 13)), CNum(Fraction(12, 13))
    phase = identity(5, C_ONE)
    phase[0][0] = C_I
    swap = identity(5, C_ONE)
    swap[0][0] = C_ZERO
    swap[4][4] = C_ZERO
    swap[0][4] = C_ONE
    swap[4][0] = -C_ONE
    return (
        rot(5, 0, 1, c35, c45, C_ONE),
        rot(5, 0, 2, c513, c1213, C_ONE),
        rot(5, 2, 4, c35, c45, C_ONE),
        rot(5, 3, 4, c513, c1213, C_ONE),
        phase,
        swap,
        mat_mul(rot(5, 0, 1, c35, c45, C_ONE), phase),
    )


def so10_constructions() -> CatalogReport:
    """Verify the polar-geodesic, stabilizer, meridian and diagonal-orthogonal
    constructions in the real 10-dimensional orthogonal model."""
    rep = CatalogReport("so10-model", "verification")
    row = partial(add_row, rep)

    u5 = _u5_sample_matrices()
    for k in (1, 2):
        X = polar_generator(k)
        J = partial_complex_structure(k)
        cubes, turns = _quarter_turns(X)
        row(f"k={k}:generator-in-tangent-space",
            tangent_member(X) and cubes, {})

        # E e_m = c e_m + s J e_m, E(i e_m) = i(c e_m - s J e_m) for m < 2k
        turn_ok = []
        for (s, c), E in zip(_QUARTER_SIN_COS, turns):
            expect = identity(10, 1)
            for m in range(2 * k):
                expect[m][m] = expect[5 + m][5 + m] = c
                for r in range(5):
                    expect[r][m] += s * J[r][m]
                    expect[5 + r][5 + m] -= s * J[r][m]
            turn_ok.append(E == IntMatrix(expect, 1))
        row(f"k={k}:exponential-action-formulas", all(turn_ok), {"turns": 4})

        members = [unitary_member(E) for E in turns]
        periods = [members[n % 4] for n in range(5)]
        row(f"k={k}:geodesic-period-pi",
            periods == [True, False, True, False, True],
            {"membership_by_quarter_turn": periods})

        # S e_m = J e_m and S(i e_m) = -i J e_m (m < 2k): the formulas at n=1
        S = turns[1]
        row(f"k={k}:polar-midpoint-relations", turn_ok[1], {})

        pairs = [_polar_stabilizer_criterion(k, U, S) for U in u5]
        row(f"k={k}:stabilizer-criterion",
            all(a == b for a, b in pairs)
            and any(a for a, _ in pairs) and any(not a for a, _ in pairs),
            {"samples": len(pairs),
             "stabilizing": sum(1 for a, _ in pairs if a)})

    so4s = (_rot(4, 0, 1, _P5), _rot(4, 0, 2, _P13),
            _rot(4, 1, 3, _P5) @ _rot(4, 0, 1, _P5))
    so6s = (_rot(6, 0, 1, _P5), _rot(6, 1, 4, _P13),
            _rot(6, 2, 5, _P5) @ _rot(6, 0, 3, _P5))
    ok_mer1 = all(
        is_orthogonal(g := embed_so4_so6(M4, M6)) and orthogonal_sigma(g)
        == embed_so4_so6(orthogonal_sigma(M4), orthogonal_sigma(M6))
        for M4 in so4s for M6 in so6s)
    row("meridian-4x6-splitting-sigma-stable", ok_mer1,
        {"samples": len(so4s) * len(so6s)})
    so8s = (_rot(8, 0, 1, _P5), _rot(8, 2, 6, _P13),
            _rot(8, 3, 7, _P5) @ _rot(8, 0, 5, _P5))
    ok_mer2 = all(
        is_orthogonal(g := embed_so8(M8))
        and orthogonal_sigma(g) == embed_so8(orthogonal_sigma(M8))
        for M8 in so8s)
    row("meridian-8-splitting-sigma-stable", ok_mer2, {"samples": len(so8s)})

    ident = IntMatrix(identity(5, 1), 1)
    B_rot = _rot(5, 0, 1, _P5)
    B_inv = _rot(5, 3, 4, (-1, 0, 1))  # diag(1, 1, 1, -1, -1)
    so5s = (ident, B_rot, B_inv, _rot(5, 2, 4, _P13), B_inv @ B_rot)
    row("diagonal-orthogonal-homomorphism",
        all(phi_so5(a @ b) == phi_so5(a) @ phi_so5(b)
            for a in so5s[:3] for b in so5s[:3]), {})
    crit = [(unitary_member(phi_so5(B)), B @ B == ident) for B in so5s]
    row("diagonal-orthogonal-membership-criterion",
        all(a == b for a, b in crit)
        and unitary_member(phi_so5(ident))
        and not unitary_member(phi_so5(B_rot))
        and unitary_member(phi_so5(B_inv)),
        {"criterion": "unitary membership iff the argument is an involution",
         "samples": len(crit)})
    skew = [[0] * 5 for _ in range(5)]
    skew[0][1], skew[1][0] = 2, -2
    skew[2][4], skew[4][2] = -3, 3
    row("diagonal-orthogonal-linearization-tangent",
        tangent_member(_from_half_blocks(skew, _ZERO5, _ZERO5,
                                         mat_neg(skew))), {})
    return shared_report(rep)
