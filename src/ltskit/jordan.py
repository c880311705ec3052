"""The exceptional Jordan algebra over the complexified octonions, its
projective points, the projective variety realizing the Hermitian exceptional
space with its involutions, and the octonion automorphisms attached to pairs
of unit quaternions.

A Jordan element is a Hermitian 3x3 matrix with complex (``CNum``) diagonal
and complexified-octonion (``CDNum`` of the ring ``OC``) off-diagonal
entries, in the number systems of ``ltskit.cayley_dickson``.  A projective
point is canonicalized by its first nonzero coordinate, so equality and
hashing are exact.  The matrix models of ``ltskit.cayley`` map into these
types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import linalg
from .cayley_dickson import (
    C_ONE, C_ZERO, H, O, OC, Q_I, Q_J, CDNum, CNum, NotUnit, Quaternion,
    place,
)
from .scalars import rat


class ZeroElement(ValueError):
    """Raised when a projective construction receives the zero element."""


class NotOnVariety(ValueError):
    """Raised when an involution is applied to a point off the variety."""


# The involution of the complexified octonions fixing the complexified
# quaternion subalgebra: a + b*e -> a - b*e in both the re and im parts.
_GAMMA0 = ((1,) * 4 + (-1,) * 4) * 2

# A slot's complex coordinate a_k + I*b_k holds positions k and k + 8 of its
# state.
_SLOT_FROM_COORDS = tuple(k + h for k in range(8) for h in (0, 8))


# ---------------------------------------------------------------------------
# the exceptional Jordan algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JordanElement:
    """A Hermitian 3x3 matrix over the complexified octonions.

    Stored by its three complex diagonal entries ``xi`` and the three
    independent off-diagonal slots ``x = (x1, x2, x3)``; the full matrix is::

        [ xi1        x3         conj(x2) ]
        [ conj(x3)   xi2        x1       ]
        [ x2         conj(x1)   xi3      ]

    where ``conj`` is octonionic conjugation (I-linear).
    """

    xi: tuple
    x: tuple

    @staticmethod
    def make(xi: Sequence[CNum], x: Sequence[CDNum]) -> "JordanElement":
        xi = tuple(xi)
        x = tuple(x)
        if len(xi) != 3 or len(x) != 3:
            raise ValueError("a Jordan element needs 3 diagonal entries "
                             "and 3 off-diagonal slots")
        return JordanElement(xi, x)

    @staticmethod
    def diag(a: CNum, b: CNum, c: CNum) -> "JordanElement":
        return JordanElement((a, b, c), (OC.zero,) * 3)

    @staticmethod
    def zero() -> "JordanElement":
        return JordanElement.diag(C_ZERO, C_ZERO, C_ZERO)

    def matrix(self) -> list:
        x1, x2, x3 = self.x
        d = [OC.one.scale(v) for v in self.xi]
        return [[d[0], x3, x2.conj()],
                [x3.conj(), d[1], x1],
                [x2, x1.conj(), d[2]]]

    @staticmethod
    def from_matrix(M: Sequence[Sequence[CDNum]]) -> "JordanElement":
        for i in range(3):
            for j in range(3):
                if M[j][i] != M[i][j].conj():
                    raise ValueError("matrix is not Hermitian")
        xi = tuple(M[k][k].scalar_value() for k in range(3))
        return JordanElement(xi, (M[1][2], M[2][0], M[0][1]))

    def __add__(self, other: "JordanElement") -> "JordanElement":
        return JordanElement(
            tuple(a + b for a, b in zip(self.xi, other.xi)),
            tuple(a + b for a, b in zip(self.x, other.x)))

    def __sub__(self, other: "JordanElement") -> "JordanElement":
        return JordanElement(
            tuple(a - b for a, b in zip(self.xi, other.xi)),
            tuple(a - b for a, b in zip(self.x, other.x)))

    def __neg__(self) -> "JordanElement":
        return JordanElement(tuple(-a for a in self.xi),
                             tuple(-a for a in self.x))

    def scale(self, c: CNum) -> "JordanElement":
        return JordanElement(tuple(a * c for a in self.xi),
                             tuple(a.scale(c) for a in self.x))

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.xi) and \
            all(a.is_zero() for a in self.x)

    def coords(self) -> tuple:
        """27 complex coordinates (3 diagonal + 3 slots x 8)."""
        out = list(self.xi)
        for slot in self.x:
            out.extend(slot.coords())
        return tuple(out)

    @staticmethod
    def from_coords(coords: Sequence[CNum]) -> "JordanElement":
        coords = list(coords)
        if len(coords) != 27:
            raise ValueError("expected 27 complex coordinates")
        return JordanElement(tuple(coords[:3]), tuple(
            place(OC, coords[3 + 8 * k:11 + 8 * k], _SLOT_FROM_COORDS)
            for k in range(3)))


def jordan_mul(X: JordanElement, Y: JordanElement) -> JordanElement:
    """The Jordan product (XY + YX) / 2."""
    A, B = X.matrix(), Y.matrix()
    half = CNum(Fraction(1, 2))
    M = [[sum((A[i][k] * B[k][j] + B[i][k] * A[k][j] for k in range(3)),
              OC.zero).scale(half)
          for j in range(3)] for i in range(3)]
    return JordanElement.from_matrix(M)


def jordan_conj(X: JordanElement) -> JordanElement:
    """I-conjugation of every entry of the Hermitian matrix."""
    return JordanElement(tuple(a.conj() for a in X.xi),
                         tuple(a.conj_I() for a in X.x))


def trace_pairing(X: JordanElement, Y: JordanElement) -> CNum:
    """The Hermitian trace pairing tr(X o conj(Y)), where ``conj`` conjugates
    the central unit I in every entry of ``Y`` (the octonionic conjugations
    are already absorbed into the Hermitian matrix template).  This is the
    pairing the twisted-unitary and symplectic actions preserve exactly; it
    is positive definite on exact samples."""
    return trace_form(X, jordan_conj(Y))


def trace_form(X: JordanElement, Y: JordanElement) -> CNum:
    """The complex-bilinear trace form tr(X o Y)."""
    A, B = X.matrix(), Y.matrix()
    total = C_ZERO
    for i in range(3):
        diag = sum(((A[i][k] * B[k][i] + B[i][k] * A[k][i]).scale(
            CNum(Fraction(1, 2))) for k in range(3)), OC.zero)
        total = total + diag.scalar_value()
    return total


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjPoint:
    """A point of the complex projective space over the Jordan algebra.

    The representative is canonicalized by dividing out the first nonzero
    complex coordinate, so equality and hashing are exact and
    scaling-invariant.  The pivot is inverted once, and the zero coordinates
    are left as they are.
    """

    coords: tuple

    @staticmethod
    def of(element: JordanElement) -> "ProjPoint":
        raw = element.coords()
        pivot = next((c for c in raw if not c.is_zero()), None)
        if pivot is None:
            raise ZeroElement("the zero element has no projective class")
        inv = C_ONE / pivot
        return ProjPoint(tuple(c if c.is_zero() else c * inv for c in raw))

    def element(self) -> JordanElement:
        return JordanElement.from_coords(self.coords)

    def map(self, fn: Callable[[JordanElement], JordanElement]) -> "ProjPoint":
        return ProjPoint.of(fn(self.element()))


P0 = None  # initialized below, after eiii_member is defined


# ---------------------------------------------------------------------------
# the projective variety and its involutions
# ---------------------------------------------------------------------------


def eiii_member(X: JordanElement) -> bool:
    """Whether a nonzero Jordan element satisfies the six defining equations
    of the projective model of the Hermitian exceptional space.

    The equations are ``xi2*xi3 = |x1|^2`` (cyclically) and
    ``x2*x3 = xi1*conj(x1)`` (cyclically), with ``|.|^2`` the complex-bilinear
    extension of the octonion norm form.
    """
    if X.is_zero():
        raise ZeroElement("membership is defined for nonzero elements only")
    xi1, xi2, xi3 = X.xi
    x1, x2, x3 = X.x
    return (xi2 * xi3 == x1.norm2()
            and xi3 * xi1 == x2.norm2()
            and xi1 * xi2 == x3.norm2()
            and x2 * x3 == x1.conj().scale(xi1)
            and x3 * x1 == x2.conj().scale(xi2)
            and x1 * x2 == x3.conj().scale(xi3))


def proj_member(pt: ProjPoint) -> bool:
    """Variety membership of a projective point (scaling-invariant)."""
    return eiii_member(pt.element())


P0 = ProjPoint.of(JordanElement.diag(C_ONE, C_ZERO, C_ZERO))


def _involution(pt: ProjPoint,
                fn: Callable[[JordanElement], JordanElement]) -> ProjPoint:
    if not proj_member(pt):
        raise NotOnVariety("the involutions are defined on the variety only")
    image = pt.map(fn)
    if not proj_member(image):
        raise NotOnVariety("involution image left the variety")
    return image


def involution_lambda(pt: ProjPoint) -> ProjPoint:
    """Conjugation of the central unit I in every entry (diagonal included).

    Its fixed set consists of the points representable with I-free entries.
    """
    return _involution(pt, jordan_conj)


def involution_gamma(pt: ProjPoint) -> ProjPoint:
    """The involution applying the quaternion-fixing octonion involution to
    the off-diagonal slots (diagonal entries unchanged)."""
    return _involution(pt, lambda X: JordanElement(
        X.xi, tuple(a.signed(_GAMMA0) for a in X.x)))


def involution_sigma(pt: ProjPoint) -> ProjPoint:
    """The geodesic symmetry at the base point: negates the x2 and x3 slots."""
    return _involution(pt, lambda X: JordanElement(
        X.xi, (X.x[0], -X.x[1], -X.x[2])))


# ---------------------------------------------------------------------------
# octonion automorphisms from pairs of unit quaternions
# ---------------------------------------------------------------------------


def phi_g2(g1: CDNum, g2: CDNum) -> Callable[[CDNum], CDNum]:
    """The octonion automorphism ``(x1, x2) -> (g1 x1 g1^-1, g2 x2 g1^-1)``
    attached to a pair of unit quaternions."""
    if not g1.is_unit() or not g2.is_unit():
        raise NotUnit("both parameters must be unit quaternions")
    g1_inv = g1.conj()

    def act(x: CDNum) -> CDNum:
        return place(O, (g1 * x.take(H, range(4)) * g1_inv,
                         g2 * x.take(H, range(4, 8)) * g1_inv))

    return act


def phi_g2_kernel() -> list:
    """Solve for all unit-quaternion pairs acting as the identity.

    The conditions ``g1*u = u*g1`` for ``u`` in {i, j} are linear in the
    coordinates of ``g1``; their joint kernel is computed exactly and then cut
    down by the unit-norm condition, after which ``g2`` is forced basis-wise.
    Returns the list of kernel pairs.
    """
    rows = [[rat((u * b - b * u).coords()[k]) for b in H.basis]
            for u in (Q_I, Q_J) for k in range(4)]
    results = []
    for vec in linalg.kernel(map(linalg.nonzeros, rows), len(H.basis)):
        g1 = Quaternion(*(c.rational_value() for c in vec))
        # unit-norm representatives within the kernel line
        for sign in (1, -1):
            cand = g1.scale(sign)
            if cand.is_unit():
                # g2 * 1 * g1^-1 = 1 forces g2 = g1.
                results.append((cand, cand))
    return results
