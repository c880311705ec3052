"""Ring-generic exact matrix helpers.

A matrix is a list of rows whose entries lie in any ring with +, -, * and
==: ints, ``Fraction``s, or the number systems of ``ltskit.cayley_dickson``.
``identity`` and ``rot`` take the ring's unit, so one helper serves every
entry type, and every identity built from them is checked with zero
tolerance by list ``==``, which also compares the shapes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import ne


def mat_mul(A, B):
    """The product ``A B`` of exact matrices of any compatible shapes.

    Entries: any ring with +, -, *, == and a zero test, here ``!= zero``
    against the ring's own zero ``B[0][0] - B[0][0]``, or ``bool`` on
    ``int`` (the rows of a ``matrix_groups.IntMatrix``) and ``Fraction``
    (whose ``==`` checks the ``numbers`` ABCs on every call).
    The product is sparse: each row of ``B`` is reduced once to its nonzero
    (column, entry) pairs, every zero ``A[i][t]`` is skipped, and only
    nonzero products are added, still in increasing ``t``.  An entry with no
    nonzero term is the ring's zero, so every entry has the exact value of
    the dense sum."""
    zero = B[0][0] - B[0][0]
    nonzero = bool if isinstance(zero, (int, Fraction)) else partial(ne, zero)
    b_rows = [[(j, b) for j, b in enumerate(row) if nonzero(b)] for row in B]
    out = []
    for a_row in A:
        acc = [zero] * len(B[0])
        for a, b_row in zip(a_row, b_rows):
            if not nonzero(a):
                continue
            for j, b in b_row:
                p = a * b
                if nonzero(p):
                    acc[j] = acc[j] + p
        out.append(acc)
    return out


def mat_neg(A):
    return [[-a for a in row] for row in A]


def mat_map(fn, A):
    return [[fn(a) for a in row] for row in A]


def mat_transpose(A):
    return [list(row) for row in zip(*A)]


def mat_apply(A, v) -> tuple:
    """The matrix-vector product ``A v``, as a tuple."""
    return tuple(row[0] for row in mat_mul(A, [[a] for a in v]))


def identity(n: int, one):
    """The n x n identity matrix over the ring whose unit is ``one``."""
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rot(n: int, p: int, q: int, c, s, one):
    """The n x n rotation by (cos, sin) = (c, s) in the plane of coordinates
    p and q, over the ring whose unit is ``one`` and which holds c and s.
    With ints c, s and ``one = r`` it is the int rows of the rotation by
    (c/r, s/r) over r."""
    M = identity(n, one)
    M[p][p] = M[q][q] = c
    M[p][q], M[q][p] = -s, s
    return M


def conj_transpose(A):
    """The transpose of ``A`` with every entry conjugated in its own ring."""
    return mat_map(lambda a: a.conj(), mat_transpose(A))


def is_unitary(A, one) -> bool:
    """Whether ``conj_transpose(A) A`` is the identity of A's size, so A is
    square; ``one`` is the unit of the entry ring."""
    return mat_mul(conj_transpose(A), A) == identity(len(A), one)


def herm_inner(u, v):
    """The Hermitian inner product sum(conj(u_k) * v_k) of two nonempty
    vectors over CNum or the quaternions."""
    total = u[0].conj() * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a.conj() * b
    return total
