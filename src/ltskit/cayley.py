"""Exact models of the quaternions, octonions, their complexifications, the
exceptional Jordan algebra, the projective variety realizing the Hermitian
exceptional space, its involutions, and the explicit equivariant embeddings of
the classical Grassmannian/projective models into that variety.

Everything is computed over exact rational data: complex numbers, quaternions
and octonions carry ``Fraction`` coordinates, and one type, ``Cx``, adjoins a
central unit ``I`` with ``I**2 == -1`` to any of them.  Over the quaternions
and octonions it gives the complexified algebras of the Jordan model; over
the complex numbers it gives the bicomplex entries of the 6x6 matrix model.
The matrix helpers are ring-generic and serve every entry type.  All
identities (base points, equivariance, variety membership, polar periods) are
checked with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from . import linalg
from .scalars import rat


class ZeroElement(ValueError):
    """Raised when a projective construction receives the zero element."""


class NotOnVariety(ValueError):
    """Raised when an involution is applied to a point off the variety."""


class NotUnit(ValueError):
    """Raised when a group parameter is not a unit quaternion."""


class NotOrthonormal(ValueError):
    """Raised when a plane is given by a basis that is not orthonormal."""


class ZeroVector(ValueError):
    """Raised when a projective-space argument is the zero vector."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {value!r}")


# ---------------------------------------------------------------------------
# rational complex numbers (the scalar field of the projective space)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CNum:
    """An exact complex number ``re + I*im`` over the rationals.

    ``I`` is the central complex unit of the coefficient field of the
    27-dimensional complex Jordan algebra (the unit the projective quotient
    scales by).  It is unrelated to the quaternion unit ``i``.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other: "CNum") -> "CNum":
        return CNum(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CNum") -> "CNum":
        return CNum(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CNum":
        return CNum(-self.re, -self.im)

    def __mul__(self, other: "CNum") -> "CNum":
        return CNum(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "CNum") -> "CNum":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero complex number")
        return CNum((self.re * other.re + self.im * other.im) / n,
                    (self.im * other.re - self.re * other.im) / n)

    def conj(self) -> "CNum":
        return CNum(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def coords(self) -> tuple:
        return (self.re, self.im)

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*I"


C_ZERO = CNum()
C_ONE = CNum(1)
C_I = CNum(0, 1)


def cnum(re, im=0) -> CNum:
    return CNum(_frac(re), _frac(im))


# ---------------------------------------------------------------------------
# quaternions over the rationals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k`` with rational coordinates."""

    w: Fraction = Fraction(0)
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    z: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(a * e - b * f - c * g - d * h,
                          a * f + b * e + c * h - d * g,
                          a * g - b * h + c * e + d * f,
                          a * h + b * g - c * f + d * e)

    def scale(self, r) -> "Quaternion":
        r = _frac(r)
        return Quaternion(r * self.w, r * self.x, r * self.y, r * self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> Fraction:
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero quaternion")
        return self.conj().scale(Fraction(1) / n)

    def is_unit(self) -> bool:
        return self.norm2() == 1

    def is_zero(self) -> bool:
        return self == Q_ZERO

    def coords(self) -> tuple:
        return (self.w, self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"({self.w}, {self.x}, {self.y}, {self.z})"


Q_ZERO = Quaternion()
Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
QUAT_BASIS = (Q_ONE, Q_I, Q_J, Q_K)


def quat(w, x=0, y=0, z=0) -> Quaternion:
    return Quaternion(_frac(w), _frac(x), _frac(y), _frac(z))


# ---------------------------------------------------------------------------
# octonions as pairs of quaternions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Octonion:
    """An octonion realized as a pair ``(x1, x2)`` of quaternions.

    The product is ``x*y = (x1*y1 - conj(y2)*x2, x2*conj(y1) + y2*x1)``.
    The second summand of the splitting is spanned by the extra unit
    ``e = (0, 1)``.
    """

    a: Quaternion = Q_ZERO
    b: Quaternion = Q_ZERO

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Octonion":
        return Octonion(-self.a, -self.b)

    def __mul__(self, other: "Octonion") -> "Octonion":
        x1, x2 = self.a, self.b
        y1, y2 = other.a, other.b
        return Octonion(x1 * y1 - y2.conj() * x2, x2 * y1.conj() + y2 * x1)

    def scale(self, r) -> "Octonion":
        return Octonion(self.a.scale(r), self.b.scale(r))

    def conj(self) -> "Octonion":
        return Octonion(self.a.conj(), -self.b)

    def norm2(self) -> Fraction:
        return self.a.norm2() + self.b.norm2()

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def coords(self) -> tuple:
        return self.a.coords() + self.b.coords()

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


O_ZERO = Octonion()
O_ONE = Octonion(Q_ONE, Q_ZERO)
O_E = Octonion(Q_ZERO, Q_ONE)
OCT_BASIS = tuple(Octonion(q, Q_ZERO) for q in QUAT_BASIS) + tuple(
    Octonion(Q_ZERO, q) for q in QUAT_BASIS)


def oct_inner(x: Octonion, y: Octonion) -> Fraction:
    """The polarization ``B(x, y)`` of the octonion norm form."""
    return ((x + y).norm2() - x.norm2() - y.norm2()) / 2


def random_octonion(rng: random.Random, span: int = 5) -> Octonion:
    coords = [Fraction(rng.randint(-span, span),
                       rng.randint(1, span)) for _ in range(8)]
    return Octonion(Quaternion(*coords[:4]), Quaternion(*coords[4:]))


# ---------------------------------------------------------------------------
# adjoining the central unit I to complex numbers, quaternions and octonions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cx:
    """An element ``re + I*im`` of a base ring (``CNum``, ``Quaternion`` or
    ``Octonion``) with a central unit ``I``, ``I**2 = -1``, adjoined.

    Over the quaternions and octonions this is their complexification, and
    ``I`` is the unit the projective quotient scales by.  Over ``CNum`` it is
    the bicomplex entry ring of the 6x6 matrix model: the base unit ``i``
    (the internal unit) and ``I`` are commuting square roots of -1, and the
    ring has zero divisors (e.g. ``(1 + i*I)(1 - i*I) = 0``).
    """

    re: object
    im: object

    def __add__(self, other: "Cx") -> "Cx":
        return Cx(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Cx") -> "Cx":
        return Cx(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Cx":
        return Cx(-self.re, -self.im)

    def __mul__(self, other: "Cx") -> "Cx":
        a, b = self.re, self.im
        c, d = other.re, other.im
        return Cx(a * c - b * d, a * d + b * c)

    def conj(self) -> "Cx":
        """Conjugation of the base ring, extended I-linearly."""
        return Cx(self.re.conj(), self.im.conj())

    def conj_I(self) -> "Cx":
        """Conjugation of the central unit I."""
        return Cx(self.re, -self.im)

    def times_I(self) -> "Cx":
        return Cx(-self.im, self.re)

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def norm2(self) -> CNum:
        """The complex-bilinear extension of the quaternion or octonion norm
        form."""
        return CNum(self.re.norm2() - self.im.norm2(),
                    2 * oct_inner(self.re, self.im))

    def scale(self, c: CNum) -> "Cx":
        """Multiplication by the complex number ``c`` over the unit I."""
        return Cx(self.re.scale(c.re) - self.im.scale(c.im),
                  self.re.scale(c.im) + self.im.scale(c.re))

    def coords(self) -> tuple:
        """Complex coordinates (over I) along the basis of the base ring."""
        r, m = self.re.coords(), self.im.coords()
        return tuple(CNum(a, b) for a, b in zip(r, m))

    def scalar_value(self) -> CNum:
        """The value of a scalar element; raises if it is not scalar."""
        r, m = self.re.coords(), self.im.coords()
        if any(r[1:]) or any(m[1:]):
            raise ValueError(f"not a scalar: {self}")
        return CNum(r[0], m[0])

    def __str__(self) -> str:
        return f"{self.re} + I*{self.im}"


def from_cnum(c: CNum, one) -> Cx:
    """The complex number ``c`` over the central unit I, in the base ring
    whose unit is ``one`` (a quaternion or an octonion).

    Not to be confused with the bicomplex embedding ``Cx(c, C_ZERO)``, which
    places ``c`` over the internal unit i."""
    return Cx(one.scale(c.re), one.scale(c.im))


def gamma0(x: Cx) -> Cx:
    """The involution of the complexified octonions fixing the complexified
    quaternion subalgebra."""
    return Cx(Octonion(x.re.a, -x.re.b), Octonion(x.im.a, -x.im.b))


def from_quat_pair(h: Cx, q: Cx) -> Cx:
    """The complexified octonion ``h + q*e`` of the quaternionic splitting."""
    return Cx(Octonion(h.re, q.re), Octonion(h.im, q.im))


def quat_pair(x: Cx) -> tuple:
    """Split a complexified octonion as ``(h, q)`` with ``x = h + q*e``."""
    return Cx(x.re.a, x.im.a), Cx(x.re.b, x.im.b)


HC_ZERO = Cx(Q_ZERO, Q_ZERO)
HC_ONE = Cx(Q_ONE, Q_ZERO)
# The idempotent (1 + i*I)/2 used throughout the block isomorphisms.
HC_EPS = Cx(Q_ONE.scale(Fraction(1, 2)), Q_I.scale(Fraction(1, 2)))

OC_ZERO = Cx(O_ZERO, O_ZERO)
OC_ONE = Cx(O_ONE, O_ZERO)
# The octonion (1 + i*I)/2 * e appearing in quoted base points.
OC_EPS_E = Cx(Octonion(Q_ZERO, Q_ONE.scale(Fraction(1, 2))),
              Octonion(Q_ZERO, Q_I.scale(Fraction(1, 2))))

BC_ZERO = Cx(C_ZERO, C_ZERO)
BC_ONE = Cx(C_ONE, C_ZERO)
# The idempotent-generating scalar (1 + i*I)/2.
BC_EPS = Cx(CNum(Fraction(1, 2)), CNum(0, Fraction(1, 2)))
BC_EPS_BAR = BC_EPS.conj()


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
    def make(xi: Sequence[CNum], x: Sequence[Cx]) -> "JordanElement":
        xi = tuple(xi)
        x = tuple(x)
        if len(xi) != 3 or len(x) != 3:
            raise ValueError("a Jordan element needs 3 diagonal entries "
                             "and 3 off-diagonal slots")
        return JordanElement(xi, x)

    @staticmethod
    def diag(a: CNum, b: CNum, c: CNum) -> "JordanElement":
        return JordanElement((a, b, c), (OC_ZERO, OC_ZERO, OC_ZERO))

    @staticmethod
    def zero() -> "JordanElement":
        return JordanElement.diag(C_ZERO, C_ZERO, C_ZERO)

    def matrix(self) -> list:
        x1, x2, x3 = self.x
        d = [from_cnum(v, O_ONE) for v in self.xi]
        return [[d[0], x3, x2.conj()],
                [x3.conj(), d[1], x1],
                [x2, x1.conj(), d[2]]]

    @staticmethod
    def from_matrix(M: Sequence[Sequence[Cx]]) -> "JordanElement":
        for i in range(3):
            for j in range(3):
                if M[j][i] != M[i][j].conj():
                    raise ValueError("matrix is not Hermitian")
        xi = tuple(quat_pair(M[k][k])[0].scalar_value() for k in range(3))
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
        xi = tuple(coords[:3])
        slots = []
        for k in range(3):
            cs = coords[3 + 8 * k:11 + 8 * k]
            slots.append(Cx(
                Octonion(Quaternion(*(c.re for c in cs[:4])),
                         Quaternion(*(c.re for c in cs[4:]))),
                Octonion(Quaternion(*(c.im for c in cs[:4])),
                         Quaternion(*(c.im for c in cs[4:])))))
        return JordanElement(xi, tuple(slots))


def jordan_mul(X: JordanElement, Y: JordanElement) -> JordanElement:
    """The Jordan product (XY + YX) / 2."""
    A, B = X.matrix(), Y.matrix()
    half = CNum(Fraction(1, 2))
    M = [[(sum_oc(A[i][k] * B[k][j] + B[i][k] * A[k][j]
                  for k in range(3))).scale(half)
          for j in range(3)] for i in range(3)]
    return JordanElement.from_matrix(M)


def sum_oc(items: Iterable[Cx]) -> Cx:
    total = OC_ZERO
    for item in items:
        total = total + item
    return total


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
        diag = sum_oc((A[i][k] * B[k][i] + B[i][k] * A[k][i]).scale(
            CNum(Fraction(1, 2))) for k in range(3))
        total = total + quat_pair(diag)[0].scalar_value()
    return total


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjPoint:
    """A point of the complex projective space over the Jordan algebra.

    The representative is canonicalized by dividing out the first nonzero
    complex coordinate, so equality and hashing are exact and
    scaling-invariant.
    """

    coords: tuple

    @staticmethod
    def of(element: JordanElement) -> "ProjPoint":
        raw = element.coords()
        pivot = next((c for c in raw if not c.is_zero()), None)
        if pivot is None:
            raise ZeroElement("the zero element has no projective class")
        return ProjPoint(tuple(c / pivot for c in raw))

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
        X.xi, tuple(gamma0(a) for a in X.x)))


def involution_sigma(pt: ProjPoint) -> ProjPoint:
    """The geodesic symmetry at the base point: negates the x2 and x3 slots."""
    return _involution(pt, lambda X: JordanElement(
        X.xi, (X.x[0], -X.x[1], -X.x[2])))


# ---------------------------------------------------------------------------
# octonion automorphisms from pairs of unit quaternions
# ---------------------------------------------------------------------------


def phi_g2(g1: Quaternion, g2: Quaternion) -> Callable[[Octonion], Octonion]:
    """The octonion automorphism ``(x1, x2) -> (g1 x1 g1^-1, g2 x2 g1^-1)``
    attached to a pair of unit quaternions."""
    if not g1.is_unit() or not g2.is_unit():
        raise NotUnit("both parameters must be unit quaternions")
    g1_inv = g1.conj()

    def act(x: Octonion) -> Octonion:
        return Octonion(g1 * x.a * g1_inv, g2 * x.b * g1_inv)

    return act


def phi_g2_kernel() -> list:
    """Solve for all unit-quaternion pairs acting as the identity.

    The conditions ``g1*u = u*g1`` for ``u`` in {i, j} are linear in the
    coordinates of ``g1``; their joint kernel is computed exactly and then cut
    down by the unit-norm condition, after which ``g2`` is forced basis-wise.
    Returns the list of kernel pairs.
    """
    rows = [[rat((u * b - b * u).coords()[k]) for b in QUAT_BASIS]
            for u in (Q_I, Q_J) for k in range(4)]
    results = []
    for vec in linalg.kernel(rows):
        g1 = Quaternion(*(c.rational_value() for c in vec))
        # unit-norm representatives within the kernel line
        for sign in (1, -1):
            cand = g1.scale(sign)
            if cand.is_unit():
                # g2 * 1 * g1^-1 = 1 forces g2 = g1.
                results.append((cand, cand))
    return results


# ---------------------------------------------------------------------------
# generic exact matrix helpers (entries: any ring with +, -, *, ==)
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in row] for row in A]


def mat_map(fn, A):
    return [[fn(a) for a in row] for row in A]


def mat_transpose(A):
    return [list(row) for row in zip(*A)]


def mat_eq(A, B) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def mat_scale(c, A):
    return [[c * a for a in row] for row in A]


def mat_apply(A, v) -> tuple:
    """The matrix-vector product ``A v``, as a tuple."""
    return tuple(row[0] for row in mat_mul(A, [[a] for a in v]))


def identity(n: int, one):
    """The n x n identity matrix over the ring whose unit is ``one``."""
    zero = one - one
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def rot(n: int, p: int, q: int, c, s, one):
    """The n x n rotation by the rational pair (cos, sin) = (c, s) in the
    plane of coordinates p and q, over the ring whose unit is ``one``; the
    type of ``one`` lifts a rational into that ring."""
    M = identity(n, one)
    lift = type(one)
    M[p][p] = M[q][q] = lift(c)
    M[p][q], M[q][p] = lift(-s), lift(s)
    return M


def conj_transpose(A):
    """The transpose of ``A`` with every entry conjugated in its own ring."""
    return mat_map(lambda a: a.conj(), mat_transpose(A))


def is_unitary(A, one) -> bool:
    """Whether ``conj_transpose(A) A`` is the identity; ``one`` is the unit
    of the entry ring."""
    return mat_eq(mat_mul(conj_transpose(A), A), identity(len(A), one))


def herm_inner(u, v):
    """The Hermitian inner product sum(conj(u_k) * v_k) of two nonempty
    vectors over CNum or Quaternion."""
    total = u[0].conj() * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a.conj() * b
    return total


def _j_block(n_pairs: int):
    """The real block-diagonal matrix diag(J', ..., J') with
    J' = [[0, -1], [1, 0]], as a bicomplex matrix."""
    n = 2 * n_pairs
    out = [[BC_ZERO] * n for _ in range(n)]
    for k in range(n_pairs):
        out[2 * k][2 * k + 1] = -BC_ONE
        out[2 * k + 1][2 * k] = BC_ONE
    return out


J6 = _j_block(3)


# ---------------------------------------------------------------------------
# the block isomorphisms between the Jordan algebra and the 6x6 model
# ---------------------------------------------------------------------------


def phi1(X3: Sequence[Sequence[Cx]], x: Sequence[Cx]) -> JordanElement:
    """Assemble a Jordan element from its quaternionic Hermitian part ``X3``
    and the quaternionic triple ``x`` (which fills the ``e``-component of the
    off-diagonal slots)."""
    for i in range(3):
        for j in range(3):
            if X3[j][i] != X3[i][j].conj():
                raise ValueError("quaternionic part is not Hermitian")
    xi = tuple(X3[k][k].scalar_value() for k in range(3))
    slots = (from_quat_pair(X3[1][2], x[0]),
             from_quat_pair(X3[2][0], x[1]),
             from_quat_pair(X3[0][1], x[2]))
    return JordanElement(xi, slots)


def phi1_inv(J: JordanElement) -> tuple:
    """Split a Jordan element into (quaternionic Hermitian 3x3, triple)."""
    pairs = [quat_pair(slot) for slot in J.x]
    h = [p[0] for p in pairs]
    q = tuple(p[1] for p in pairs)
    d = [from_cnum(v, Q_ONE) for v in J.xi]
    X3 = [[d[0], h[2], h[1].conj()],
          [h[2].conj(), d[1], h[0]],
          [h[1], h[0].conj(), d[2]]]
    return X3, q


def _hc_to_block(h: Cx):
    """The 2x2 bicomplex block of a complexified quaternion ``a + b*j``."""
    a = Cx(CNum(h.re.w, h.re.x), CNum(h.im.w, h.im.x))
    b = Cx(CNum(h.re.y, h.re.z), CNum(h.im.y, h.im.z))
    return [[a, b], [-b.conj(), a.conj()]]


def _block_to_hc(block) -> Cx:
    a, b = block[0][0], block[0][1]
    if block[1][0] != -b.conj() or block[1][1] != a.conj():
        raise ValueError("2x2 block is not of quaternionic type")
    return Cx(Quaternion(a.re.re, a.re.im, b.re.re, b.re.im),
              Quaternion(a.im.re, a.im.im, b.im.re, b.im.im))


def phi2(X3) -> list:
    """The 6x6 bicomplex matrix of a 3x3 complexified-quaternion matrix."""
    out = [[BC_ZERO] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            block = _hc_to_block(X3[i][j])
            for r in range(2):
                for c in range(2):
                    out[2 * i + r][2 * j + c] = block[r][c]
    return out


def phi2_inv(M) -> list:
    return [[_block_to_hc([[M[2 * i][2 * j], M[2 * i][2 * j + 1]],
                           [M[2 * i + 1][2 * j], M[2 * i + 1][2 * j + 1]]])
             for j in range(3)] for i in range(3)]


def phi2p(x: Sequence[Cx]) -> list:
    """The 2x6 bicomplex matrix of a complexified-quaternion row triple."""
    out = [[BC_ZERO] * 6 for _ in range(2)]
    for k in range(3):
        block = _hc_to_block(x[k])
        for r in range(2):
            for c in range(2):
                out[r][2 * k + c] = block[r][c]
    return out


def phi2p_inv(M) -> tuple:
    return tuple(_block_to_hc([[M[0][2 * k], M[0][2 * k + 1]],
                               [M[1][2 * k], M[1][2 * k + 1]]])
                 for k in range(3))


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
    placed over the internal unit i, as ``Cx(c, C_ZERO)``."""
    return mat_map(lambda c: Cx(c, C_ZERO), A)


def Phi_su6(A) -> list:
    """The group isomorphism A -> eps*A - conj(eps)*J*conj(A)*J from the
    unitary 6x6 matrices into the J-twisted model; ``A`` has bicomplex
    entries (unitary samples have I-free entries)."""
    term1 = mat_scale(BC_EPS, A)
    term2 = mat_scale(BC_EPS_BAR,
                      mat_mul(J6, mat_mul(mat_map(Cx.conj, A), J6)))
    return mat_sub(term1, term2)


def su6_check(A) -> bool:
    """Exact unitarity and determinant-free sanity for a 6x6 matrix over the
    internal complex numbers (bicomplex entries with zero I-part)."""
    if any(not a.im.is_zero() for row in A for a in row):
        return False
    return is_unitary(A, BC_ONE)


def f_su6_action(b: Quaternion, A, J: JordanElement) -> JordanElement:
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
    beta = _hc_to_block(Cx(b, Q_ZERO))
    M2 = mat_mul(B, mat_mul(M, B_star))
    R2 = mat_mul(beta, mat_mul(R, B_inv))
    return phi_map_inv(M2, R2)


def f_su6_proj(b: Quaternion, A, pt: ProjPoint) -> ProjPoint:
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
    S = mat_mul(cnum_matrix_to_bc(wedge), J6)
    X3 = phi2_inv(Phi_su6(S))
    return ProjPoint.of(phi1(X3, (HC_ZERO, HC_ZERO, HC_ZERO)))


def embed_f2(ell: Quaternion, v: Sequence[Quaternion]) -> ProjPoint:
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
    head = Cx(ell, Q_ZERO) * HC_EPS
    x = tuple(head * Cx(q.conj(), Q_ZERO) for q in v)
    zero3 = [[HC_ZERO] * 3 for _ in range(3)]
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
    return tuple(Quaternion(c[2 * k].re, c[2 * k].im,
                            -c[2 * k + 1].re, c[2 * k + 1].im)
                 for k in range(3))

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
    half_tr = from_cnum(trace * half, Q_ONE)
    Z = [[HC_ZERO] * 4 for _ in range(4)]
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
    M = mat_map(lambda q: Cx(q, Q_ZERO), B)
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
    Z = [[Cx(u1[i] * u1[j].conj() + u2[i] * u2[j].conj()
             - (Q_ONE.scale(half) if i == j else Q_ZERO), Q_ZERO)
          for j in range(4)] for i in range(4)]
    return ProjPoint.of(psi_map_inv(Z))

# ---------------------------------------------------------------------------
# the real orthogonal model of the isotropic-plane space SO(10)/U(5)
# ---------------------------------------------------------------------------
#
# The ten real coordinates split as V + i*V with V spanned by the first five;
# the unitary subgroup consists of the orthogonal block matrices
# [[A, -B], [B, A]].


def frac_zero(n: int, m: int):
    zero = Fraction(0)
    return [[zero] * m for _ in range(n)]


def is_orthogonal(g) -> bool:
    return mat_eq(mat_mul(mat_transpose(g), g),
                  identity(len(g), Fraction(1)))


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


def orthogonal_sigma(g):
    """The symmetric-structure involution [[A, C], [B, D]] ->
    [[D, -B], [-C, A]] on the real orthogonal group of even size."""
    A, C, B, D = _half_blocks(g)
    return _from_half_blocks(D, mat_neg(B), mat_neg(C), A)


def unitary_member(g) -> bool:
    """Membership in the unitary subgroup: orthogonal with block form
    [[A, -B], [B, A]]."""
    if not is_orthogonal(g):
        return False
    A, C, B, D = _half_blocks(g)
    return mat_eq(A, D) and mat_eq(C, mat_neg(B))


def is_skew(A) -> bool:
    return mat_eq(mat_transpose(A), mat_neg(A))


def tangent_member(X) -> bool:
    """Membership in the complement of the unitary subalgebra: the block
    matrices [[A, B], [B, -A]] with A, B skew."""
    A, C, B, D = _half_blocks(X)
    return is_skew(A) and is_skew(B) and mat_eq(C, B) and \
        mat_eq(D, mat_neg(A))


def complex_to_real10(U) -> list:
    """The real 10x10 form [[A, -B], [B, A]] of a complex 5x5 matrix
    ``A + iB`` with exact complex entries."""
    A = mat_map(lambda c: c.re, U)
    B = mat_map(lambda c: c.im, U)
    return _from_half_blocks(A, mat_neg(B), B, A)


def partial_complex_structure(k: int) -> list:
    """A skew 5x5 matrix J with J**3 = -J whose image is the span of the
    first 2k coordinates (k in {1, 2})."""
    if k not in (1, 2):
        raise ValueError("the half-dimension parameter must be 1 or 2")
    J = frac_zero(5, 5)
    for m in range(k):
        J[2 * m][2 * m + 1] = Fraction(-1)
        J[2 * m + 1][2 * m] = Fraction(1)
    return J


def polar_generator(k: int) -> list:
    """The tangent vector diag(J, -J) generating the polar geodesic."""
    J = partial_complex_structure(k)
    return _from_half_blocks(J, frac_zero(5, 5), frac_zero(5, 5), mat_neg(J))


_QUARTER_SIN_COS = {0: (0, 1), 1: (1, 0), 2: (0, -1), 3: (-1, 0)}


def exp_quarter_turns(X, n: int) -> list:
    """The exact matrix exponential exp(t X) at t = n*pi/2 for a matrix
    satisfying X**3 = -X, via exp(tX) = id + sin(t) X + (1 - cos(t)) X**2."""
    X3 = mat_mul(X, mat_mul(X, X))
    if not mat_eq(X3, mat_neg(X)):
        raise ValueError("the generator must satisfy X**3 == -X")
    s, c = _QUARTER_SIN_COS[n % 4]
    out = mat_add(identity(len(X), Fraction(1)),
                  mat_scale(Fraction(s), X))
    return mat_add(out, mat_scale(Fraction(1 - c), mat_mul(X, X)))


def _preserves_coordinate_span(g, indices) -> bool:
    index_set = set(indices)
    others = [r for r in range(len(g)) if r not in index_set]
    return all(g[r][j] == 0 for j in indices for r in others)


def polar_stabilizer_criterion(k: int, U) -> tuple:
    """For a unitary-subgroup element given as a complex 5x5 matrix ``U``:
    the pair (S**-1 g S lies in the unitary subgroup, g preserves the
    complexified span of the first 2k coordinates); the polar stabilizer
    criterion asserts these are equal."""
    g = complex_to_real10(U)
    if not unitary_member(g):
        raise NotUnit("expected an exact unitary 5x5 matrix")
    S = exp_quarter_turns(polar_generator(k), 1)
    conj = mat_mul(mat_transpose(S), mat_mul(g, S))
    fixes = unitary_member(conj)
    preserves = _preserves_coordinate_span(
        g, list(range(2 * k)) + list(range(5, 5 + 2 * k)))
    return fixes, preserves


def embed_so4_so6(M4, M6) -> list:
    """The embedding of a pair (4x4, 6x6) of real matrices acting on the
    complexified splitting (first two complex coordinates, last three) into
    the 10x10 model; each factor uses its own (V, i*V) block convention."""
    g = frac_zero(10, 10)
    idx4 = [0, 1, 5, 6]
    idx6 = [2, 3, 4, 7, 8, 9]
    for i in range(4):
        for j in range(4):
            g[idx4[i]][idx4[j]] = _frac(M4[i][j])
    for i in range(6):
        for j in range(6):
            g[idx6[i]][idx6[j]] = _frac(M6[i][j])
    return g


def embed_so8(M8) -> list:
    """The embedding of an 8x8 real matrix acting on the complexified span of
    the first four coordinates into the 10x10 model, fixing the rest."""
    g = identity(10, Fraction(1))
    idx8 = [0, 1, 2, 3, 5, 6, 7, 8]
    for i in range(8):
        for j in range(8):
            g[idx8[i]][idx8[j]] = _frac(M8[i][j])
    return g


def phi_so5(B) -> list:
    """The homomorphism B -> diag(B, B**-1) from the real orthogonal 5x5
    matrices into the 10x10 model."""
    if not is_orthogonal(B):
        raise NotUnit("expected an exact orthogonal 5x5 matrix")
    return _from_half_blocks(B, frac_zero(5, 5), frac_zero(5, 5),
                             mat_transpose(B))

# ---------------------------------------------------------------------------
# Cartan maps g*K -> sigma(g) g**-1 for exact matrix-group instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CartanInstance:
    """An exact matrix group with involution, for Cartan-map checks."""

    name: str
    identity: tuple
    inverse: Callable
    sigma: Callable
    in_group: Callable
    in_fixed: Callable
    samples: tuple
    fixed_samples: tuple


def _so10_cartan_instance() -> CartanInstance:
    one = Fraction(1)
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    u_rot = complex_to_real10(rot(5, 0, 1, f35, f45, C_ONE))
    phase = identity(5, C_ONE)
    phase[0][0] = C_I
    u_phase = complex_to_real10(phase)
    samples = (
        rot(10, 0, 5, f35, f45, one),
        rot(10, 2, 7, f513, f1213, one),
        mat_mul(rot(10, 0, 5, f35, f45, one), rot(10, 1, 8, f35, f45, one)),
        mat_mul(u_rot, rot(10, 3, 9, f513, f1213, one)),
        u_phase,
    )
    return CartanInstance(
        name="so10",
        identity=tuple(map(tuple, identity(10, one))),
        inverse=mat_transpose,
        sigma=orthogonal_sigma,
        in_group=is_orthogonal,
        in_fixed=unitary_member,
        samples=samples,
        fixed_samples=(u_rot, u_phase,
                       complex_to_real10(rot(5, 1, 4, f513, f1213, C_ONE))),
    )


def _su3_cartan_instance() -> CartanInstance:
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    rot01 = rot(3, 0, 1, f35, f45, C_ONE)
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
        identity=tuple(map(tuple, identity(3, C_ONE))),
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


def cartan_map(inst: CartanInstance, g) -> list:
    """The Cartan map sigma(g) * g**-1."""
    return mat_mul(inst.sigma(g), inst.inverse(g))


def add_row(rep: "CatalogReport", label: str, ok: bool,
            computed: dict | None = None) -> None:
    """Append a PASS or FAIL row to a verification report."""
    from .catalog import ReportRow
    rep.rows.append(ReportRow(label=label, status="PASS" if ok else "FAIL",
                              computed=computed or {}))


def cartan_map_check(name: str,
                     extra_samples: Sequence = ()) -> "CatalogReport":
    """Verify the defining identities of the Cartan map on exact samples of
    the given matrix-group instance."""
    from .catalog import CatalogReport
    inst = cartan_instance(name)
    ident = [list(r) for r in inst.identity]
    samples = list(inst.samples) + [
        [list(map(Fraction, row)) for row in g] for g in extra_samples]
    rep = CatalogReport(f"cartan-{name}", "verification")
    row = partial(add_row, rep)
    for g in samples:
        if not inst.in_group(g):
            raise NotUnit(f"sample is not in the {name} group")
    row("identity-maps-to-identity",
        mat_eq(cartan_map(inst, ident), ident), {})
    row("fixed-subgroup-collapses",
        all(mat_eq(cartan_map(inst, k), ident)
            for k in inst.fixed_samples),
        {"fixed_samples": len(inst.fixed_samples)})
    row("right-coset-invariance",
        all(mat_eq(cartan_map(inst, mat_mul(g, k)), cartan_map(inst, g))
            for g in samples for k in inst.fixed_samples),
        {"pairs": len(samples) * len(inst.fixed_samples)})
    row("image-in-group",
        all(inst.in_group(cartan_map(inst, g)) for g in samples),
        {"samples": len(samples)})
    row("antisymmetry",
        all(mat_eq(inst.sigma(cartan_map(inst, g)),
                   inst.inverse(cartan_map(inst, g))) for g in samples),
        {"samples": len(samples)})
    row("nondegenerate-on-samples",
        any(not mat_eq(cartan_map(inst, g), ident) for g in samples), {})
    return rep


# ---------------------------------------------------------------------------
# the polar/meridian constructions in the real orthogonal model
# ---------------------------------------------------------------------------


def _u5_sample_matrices():
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    phase = identity(5, C_ONE)
    phase[0][0] = C_I
    swap = identity(5, C_ONE)
    swap[0][0] = C_ZERO
    swap[4][4] = C_ZERO
    swap[0][4] = C_ONE
    swap[4][0] = -C_ONE
    return (
        rot(5, 0, 1, f35, f45, C_ONE),
        rot(5, 0, 2, f513, f1213, C_ONE),
        rot(5, 2, 4, f35, f45, C_ONE),
        rot(5, 3, 4, f513, f1213, C_ONE),
        phase,
        swap,
        mat_mul(rot(5, 0, 1, f35, f45, C_ONE), phase),
    )


def so10_constructions() -> "CatalogReport":
    """Verify the polar-geodesic, stabilizer, meridian and diagonal-orthogonal
    constructions in the real 10-dimensional orthogonal model."""
    from .catalog import CatalogReport
    rep = CatalogReport("so10-model", "verification")
    row = partial(add_row, rep)

    for k in (1, 2):
        X = polar_generator(k)
        J = partial_complex_structure(k)
        ok_gen = tangent_member(X) and \
            mat_eq(mat_mul(X, mat_mul(X, X)), mat_neg(X))
        row(f"k={k}:generator-in-tangent-space", ok_gen, {})

        ok_exp = True
        for n in range(4):
            E = exp_quarter_turns(X, n)
            s, c = _QUARTER_SIN_COS[n % 4]
            for m in range(5):
                col = [E[r][m] for r in range(10)]
                icol = [E[r][5 + m] for r in range(10)]
                expect = [Fraction(0)] * 10
                iexpect = [Fraction(0)] * 10
                if m < 2 * k:
                    expect[m] += c
                    iexpect[5 + m] += c
                    for r in range(5):
                        expect[r] += s * J[r][m]
                        iexpect[5 + r] -= s * J[r][m]
                else:
                    expect[m] = Fraction(1)
                    iexpect[5 + m] = Fraction(1)
                ok_exp = ok_exp and col == expect and icol == iexpect
        row(f"k={k}:exponential-action-formulas", ok_exp, {"turns": 4})

        periods = [unitary_member(exp_quarter_turns(X, n)) for n in range(5)]
        row(f"k={k}:geodesic-period-pi",
            periods == [True, False, True, False, True],
            {"membership_by_quarter_turn": periods})

        S = exp_quarter_turns(X, 1)
        ok_S = True
        for m in range(5):
            col = [S[r][m] for r in range(10)]
            icol = [S[r][5 + m] for r in range(10)]
            if m < 2 * k:
                expect = [J[r][m] for r in range(5)] + [Fraction(0)] * 5
                iexpect = [Fraction(0)] * 5 + [-J[r][m] for r in range(5)]
            else:
                expect = [Fraction(0)] * 10
                expect[m] = Fraction(1)
                iexpect = [Fraction(0)] * 10
                iexpect[5 + m] = Fraction(1)
            ok_S = ok_S and col == expect and icol == iexpect
        row(f"k={k}:polar-midpoint-relations", ok_S, {})

        pairs = [polar_stabilizer_criterion(k, U)
                 for U in _u5_sample_matrices()]
        row(f"k={k}:stabilizer-criterion",
            all(a == b for a, b in pairs)
            and any(a for a, _ in pairs) and any(not a for a, _ in pairs),
            {"samples": len(pairs),
             "stabilizing": sum(1 for a, _ in pairs if a)})

    one = Fraction(1)
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    so4s = (rot(4, 0, 1, f35, f45, one), rot(4, 0, 2, f513, f1213, one),
            mat_mul(rot(4, 1, 3, f35, f45, one), rot(4, 0, 1, f35, f45, one)))
    so6s = (rot(6, 0, 1, f35, f45, one), rot(6, 1, 4, f513, f1213, one),
            mat_mul(rot(6, 2, 5, f35, f45, one), rot(6, 0, 3, f35, f45, one)))
    ok_mer1 = all(
        is_orthogonal(embed_so4_so6(M4, M6)) and
        mat_eq(orthogonal_sigma(embed_so4_so6(M4, M6)),
               embed_so4_so6(orthogonal_sigma(M4), orthogonal_sigma(M6)))
        for M4 in so4s for M6 in so6s)
    row("meridian-4x6-splitting-sigma-stable", ok_mer1,
        {"samples": len(so4s) * len(so6s)})
    so8s = (rot(8, 0, 1, f35, f45, one), rot(8, 2, 6, f513, f1213, one),
            mat_mul(rot(8, 3, 7, f35, f45, one), rot(8, 0, 5, f35, f45, one)))
    ok_mer2 = all(
        is_orthogonal(embed_so8(M8)) and
        mat_eq(orthogonal_sigma(embed_so8(M8)),
               embed_so8(orthogonal_sigma(M8)))
        for M8 in so8s)
    row("meridian-8-splitting-sigma-stable", ok_mer2, {"samples": len(so8s)})

    B_rot = rot(5, 0, 1, f35, f45, one)
    B_inv = identity(5, one)
    B_inv[3][3] = Fraction(-1)
    B_inv[4][4] = Fraction(-1)
    so5s = (identity(5, one), B_rot, B_inv,
            rot(5, 2, 4, f513, f1213, one), mat_mul(B_inv, B_rot))
    row("diagonal-orthogonal-homomorphism",
        all(mat_eq(phi_so5(mat_mul(a, b)),
                   mat_mul(phi_so5(a), phi_so5(b)))
            for a in so5s[:3] for b in so5s[:3]), {})
    crit = [(unitary_member(phi_so5(B)),
             mat_eq(mat_mul(B, B), identity(5, one))) for B in so5s]
    row("diagonal-orthogonal-membership-criterion",
        all(a == b for a, b in crit)
        and unitary_member(phi_so5(identity(5, one)))
        and not unitary_member(phi_so5(B_rot))
        and unitary_member(phi_so5(B_inv)),
        {"criterion": "unitary membership iff the argument is an involution",
         "samples": len(crit)})
    skew = frac_zero(5, 5)
    skew[0][1], skew[1][0] = Fraction(2), Fraction(-2)
    skew[2][4], skew[4][2] = Fraction(-3), Fraction(3)
    row("diagonal-orthogonal-linearization-tangent",
        tangent_member(_from_half_blocks(
            skew, frac_zero(5, 5), frac_zero(5, 5), mat_neg(skew))), {})
    return rep

# ---------------------------------------------------------------------------
# sample group elements and the aggregated verification report
# ---------------------------------------------------------------------------


PYTHAGOREAN_QUATERNIONS = (
    Q_ONE, Q_I, Q_J,
    Quaternion(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    Quaternion(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3), Fraction(0)),
)


def _su6_sample_matrices():
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    phase = identity(6, C_ONE)
    phase[0][0] = C_I
    phase[3][3] = -C_I
    return (
        identity(6, C_ONE),
        rot(6, 0, 1, f35, f45, C_ONE),
        rot(6, 0, 2, f35, f45, C_ONE),
        rot(6, 2, 4, f513, f1213, C_ONE),
        rot(6, 1, 5, f513, f1213, C_ONE),
        phase,
        mat_mul(rot(6, 0, 3, f35, f45, C_ONE), phase),
    )


def _sp4_sample_matrices():
    f35, f45 = Fraction(3, 5), Fraction(4, 5)
    f513, f1213 = Fraction(5, 13), Fraction(12, 13)
    h = PYTHAGOREAN_QUATERNIONS[3]

    def qdiag(*qs):
        M = identity(4, Q_ONE)
        for m, q in enumerate(qs):
            M[m][m] = q
        return M

    return (
        rot(4, 0, 1, f35, f45, Q_ONE),
        rot(4, 0, 2, f35, f45, Q_ONE),
        rot(4, 1, 3, f513, f1213, Q_ONE),
        qdiag(Q_I, Q_J, Q_K, Q_ONE),
        qdiag(h, h.conj(), Q_ONE, h),
        mat_mul(rot(4, 0, 3, f35, f45, Q_ONE), qdiag(Q_J, Q_ONE, Q_I, Q_ONE)),
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
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                matrices.append(current)
                current = []
            continue
        current.append([Fraction(tok) for tok in line.split()])
    if current:
        matrices.append(current)
    for M in matrices:
        if any(len(row) != len(M[0]) for row in M):
            raise ValueError("ragged matrix in sample file")
    return matrices


def verify_models(seed: int = 0, extra_orthogonal_samples: Sequence = ()) \
        -> "CatalogReport":
    """Run the whole battery of exact model checks: octonion algebra laws,
    the automorphism kernel, the projective variety and its involutions, the
    three equivariant embeddings, invariance of the Hermitian pairing, the
    real orthogonal polar/meridian constructions and the Cartan maps."""
    from .catalog import CatalogReport
    rep = CatalogReport("models", "verification")
    row = partial(add_row, rep)

    rng = random.Random(seed)
    pairs = [(x, y) for x in OCT_BASIS for y in OCT_BASIS]
    pairs += [(random_octonion(rng), random_octonion(rng))
              for _ in range(100)]
    row("octonion-alternativity",
        all(x * (x * y) == (x * x) * y and (y * x) * x == y * (x * x)
            for x, y in pairs), {"pairs": len(pairs)})
    row("octonion-norm-multiplicativity",
        all((x * y).norm2() == x.norm2() * y.norm2() for x, y in pairs),
        {"pairs": len(pairs)})
    i_o, e_o, j_e = OCT_BASIS[1], O_E, Octonion(Q_ZERO, Q_J)
    row("octonion-non-associativity-witness",
        (i_o * e_o) * j_e != i_o * (e_o * j_e), {})
    row("octonion-unit-square", O_E * O_E == -O_ONE, {})

    kernel = phi_g2_kernel()
    row("automorphism-pair-kernel",
        kernel == [(Q_ONE, Q_ONE), (-Q_ONE, -Q_ONE)],
        {"kernel_size": len(kernel)})
    g_pairs = [(PYTHAGOREAN_QUATERNIONS[3], Q_ONE),
               (Quaternion(Fraction(3, 5), Fraction(4, 5)), Q_J),
               (PYTHAGOREAN_QUATERNIONS[4], PYTHAGOREAN_QUATERNIONS[3])]
    row("automorphism-samples",
        all(phi_g2(g1, g2)(x * y) == phi_g2(g1, g2)(x) * phi_g2(g1, g2)(y)
            for g1, g2 in g_pairs for x in OCT_BASIS for y in OCT_BASIS),
        {"group_elements": len(g_pairs), "basis_pairs": 64})

    su6 = [cnum_matrix_to_bc(A) for A in _su6_sample_matrices()]
    sp1 = PYTHAGOREAN_QUATERNIONS
    sp4 = _sp4_sample_matrices()
    planes = _complex_plane_samples()
    vectors = _complex_vector_samples()
    qplanes = _quaternionic_plane_samples()

    points = [P0]
    points += [embed_f1(u1, u2) for u1, u2 in planes]
    points += [embed_f2(b, complex6_to_quat3(v))
               for b in sp1[:2] for v in vectors]
    points += [embed_f_quaternionic(u1, u2) for u1, u2 in qplanes]
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
    row("plane-embedding-base-point",
        embed_f1(tuple(e6[0]), tuple(e6[1])) == P0, {})
    ok_eq1 = all(
        f_su6_proj(Q_ONE, A, embed_f1(u1, u2))
        == embed_f1(mat_apply(raw, u1), mat_apply(raw, u2))
        for raw, A in zip(_su6_sample_matrices(), su6)
        for u1, u2 in planes)
    row("plane-embedding-equivariance", ok_eq1,
        {"group_elements": len(su6), "planes": len(planes)})
    row("plane-embedding-gamma-fixed",
        all(involution_gamma(embed_f1(u1, u2)) == embed_f1(u1, u2)
            for u1, u2 in planes), {})
    row("plane-embedding-basis-independence",
        embed_f1(tuple(e6[1]), tuple(e6[0]))
        == embed_f1(tuple(e6[0]), tuple(e6[1])), {})

    quoted = ProjPoint.of(JordanElement.make(
        (C_ZERO, C_ZERO, C_ZERO), (OC_EPS_E, OC_ZERO, OC_ZERO)))
    row("line-embedding-base-point",
        embed_f2(Q_ONE, complex6_to_quat3(vectors[0])) == quoted, {})
    scalings = (C_I, CNum(2), CNum(1, 1))
    row("line-embedding-well-defined",
        all(embed_f2(Q_ONE, complex6_to_quat3(tuple(z * c for c in v)))
            == embed_f2(Q_ONE, complex6_to_quat3(v))
            for v in vectors for z in scalings)
        and all(embed_f2(z, complex6_to_quat3(v))
                == embed_f2(Q_ONE, complex6_to_quat3(v))
                for v in vectors
                for z in (Q_I, Quaternion(Fraction(3, 5), Fraction(4, 5)))),
        {"vector_scalings": len(scalings)})
    ok_eq2 = all(
        f_su6_proj(b, A, embed_f2(Q_ONE, complex6_to_quat3(v)))
        == embed_f2(b, complex6_to_quat3(mat_apply(raw, v)))
        for raw, A in zip(_su6_sample_matrices(), su6)
        for b in sp1 for v in vectors)
    row("line-embedding-equivariance", ok_eq2,
        {"group_elements": len(su6) * len(sp1), "vectors": len(vectors)})
    row("line-embedding-gamma-fixed",
        all(involution_gamma(embed_f2(b, complex6_to_quat3(v)))
            == embed_f2(b, complex6_to_quat3(v))
            for b in sp1[:2] for v in vectors), {})

    e4 = identity(4, Q_ONE)
    row("quaternionic-embedding-base-point",
        embed_f_quaternionic(tuple(e4[0]), tuple(e4[1])) == P0, {})
    row("quaternionic-embedding-complement-fiber",
        embed_f_quaternionic(tuple(e4[2]), tuple(e4[3]))
        == embed_f_quaternionic(tuple(e4[0]), tuple(e4[1])), {})
    ok_eq3 = all(
        f_sp4_proj(B, embed_f_quaternionic(u1, u2))
        == embed_f_quaternionic(mat_apply(B, u1), mat_apply(B, u2))
        for B in sp4 for u1, u2 in qplanes)
    row("quaternionic-embedding-equivariance", ok_eq3,
        {"group_elements": len(sp4), "planes": len(qplanes)})
    lam_gam = lambda pt: involution_lambda(involution_gamma(pt))
    row("quaternionic-embedding-conjugation-fixed",
        all(lam_gam(embed_f_quaternionic(u1, u2))
            == embed_f_quaternionic(u1, u2) for u1, u2 in qplanes), {})
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
        for r in sub.rows:
            r.label = f"{sub.space}:{r.label}"
            rep.rows.append(r)
    return rep
