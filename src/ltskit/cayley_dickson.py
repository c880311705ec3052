"""The exact number systems of the Cayley/Jordan models over the rationals:
the complex numbers (over the central unit I), the quaternions, the
octonions as pairs of quaternions, and ``Cx``, which adjoins the central unit
I to any of them.

A complex number or a quaternion stores integer coordinates over one
positive common denominator, reduced by one private normalizer
(``_new_cnum``, ``_new_quat``), and hands its coordinates out as
``Fraction``s.  ``_quat_of`` and ``_re_im_quats`` carry integers across the
complex-number/quaternion boundaries of ``ltskit.jordan`` and
``ltskit.cayley``, and ``cnum_matrix_parts`` hands a matrix of complex
numbers to ``ltskit.matrix_groups`` as int rows, so no ``Fraction`` and no
validating constructor is built inside the arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class NotUnit(ValueError):
    """Raised when a group parameter is not a unit: a quaternion off the unit
    sphere, or a matrix outside its exact group."""


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {value!r}")


def _common(values) -> tuple:
    """Rationals checked by ``_frac`` as (integer numerators, one positive
    common denominator); the result is reduced, since the denominator is
    the lcm of the reduced denominators."""
    fracs = [_frac(v) for v in values]
    d = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


_new = object.__new__


# ---------------------------------------------------------------------------
# rational complex numbers (the scalar field of the projective space)
# ---------------------------------------------------------------------------


class CNum:
    """An exact complex number ``re + I*im`` over the rationals.

    ``I`` is the central complex unit of the coefficient field of the
    27-dimensional complex Jordan algebra (the unit the projective quotient
    scales by).  It is unrelated to the quaternion unit ``i``.

    The state is two integers over one positive denominator, ``(a + b*I)/d``,
    kept reduced (gcd(a, b, d) == 1, so zero is ``(0, 0, 1)``) by
    ``_new_cnum``, which every operation builds its result through; equal
    numbers therefore have equal state.  ``re``, ``im`` and ``coords()`` read
    it as ``Fraction``s, and ``==``, ``hash``, ``str`` and ``repr`` are those
    of the pair (re, im).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        (self._a, self._b), self._d = _common((re, im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "CNum") -> "CNum":
        d, e = self._d, other._d
        if d == e:
            return _new_cnum(self._a + other._a, self._b + other._b, d)
        return _new_cnum(self._a * e + other._a * d,
                         self._b * e + other._b * d, d * e)

    def __sub__(self, other: "CNum") -> "CNum":
        d, e = self._d, other._d
        if d == e:
            return _new_cnum(self._a - other._a, self._b - other._b, d)
        return _new_cnum(self._a * e - other._a * d,
                         self._b * e - other._b * d, d * e)

    def __neg__(self) -> "CNum":
        return _new_cnum(-self._a, -self._b, self._d)

    def __mul__(self, other: "CNum") -> "CNum":
        a, b, c, e = self._a, self._b, other._a, other._b
        return _new_cnum(a * c - b * e, a * e + b * c, self._d * other._d)

    def __truediv__(self, other: "CNum") -> "CNum":
        # (a + bI)/d / ((c + eI)/f) = (a + bI)(c - eI) f / (d (c^2 + e^2))
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero complex number")
        a, b = self._a, self._b
        return _new_cnum((a * c + b * e) * f, (b * c - a * e) * f,
                         self._d * n)

    def conj(self) -> "CNum":
        return _new_cnum(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def coords(self) -> tuple:
        return (self.re, self.im)

    def _with_im(self, other: "CNum") -> tuple:
        """The two CNums ``s + I*o`` of the coordinates ``s`` of ``self``
        and ``o`` of ``other`` along (1, i)."""
        d, e = self._d, other._d
        if d == e:
            return (_new_cnum(self._a, other._a, d),
                    _new_cnum(self._b, other._b, d))
        de = d * e
        return (_new_cnum(self._a * e, other._a * d, de),
                _new_cnum(self._b * e, other._b * d, de))

    def __eq__(self, other):
        if other.__class__ is not CNum:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash(self.coords())

    def __repr__(self) -> str:
        return f"CNum(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        sign = "+" if self._b >= 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*I"


def _new_cnum(a: int, b: int, d: int) -> CNum:
    """The CNum ``(a + b*I)/d`` for integers with ``d > 0``, reduced by
    gcd(a, b, d) once; no ``Fraction`` is built."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    x = _new(CNum)
    x._a = a
    x._b = b
    x._d = d
    return x


C_ZERO = CNum()
C_ONE = CNum(1)
C_I = CNum(0, 1)


# ---------------------------------------------------------------------------
# quaternions over the rationals
# ---------------------------------------------------------------------------


class Quaternion:
    """A quaternion ``w + x*i + y*j + z*k`` with rational coordinates.

    The state is four integers over one positive denominator,
    ``(w, x, y, z)/d``, kept reduced by ``_new_quat`` as ``CNum``'s is;
    ``w``, ``x``, ``y``, ``z``, ``coords()`` and ``norm2()`` read it as
    ``Fraction``s.
    """

    __slots__ = ("_w", "_x", "_y", "_z", "_d")

    def __init__(self, w=0, x=0, y=0, z=0):
        (self._w, self._x, self._y, self._z), self._d = _common((w, x, y, z))

    @property
    def w(self) -> Fraction:
        return Fraction(self._w, self._d)

    @property
    def x(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def y(self) -> Fraction:
        return Fraction(self._y, self._d)

    @property
    def z(self) -> Fraction:
        return Fraction(self._z, self._d)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        d, e = self._d, other._d
        if d == e:
            return _new_quat(self._w + other._w, self._x + other._x,
                             self._y + other._y, self._z + other._z, d)
        return _new_quat(self._w * e + other._w * d,
                         self._x * e + other._x * d,
                         self._y * e + other._y * d,
                         self._z * e + other._z * d, d * e)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        d, e = self._d, other._d
        if d == e:
            return _new_quat(self._w - other._w, self._x - other._x,
                             self._y - other._y, self._z - other._z, d)
        return _new_quat(self._w * e - other._w * d,
                         self._x * e - other._x * d,
                         self._y * e - other._y * d,
                         self._z * e - other._z * d, d * e)

    def __neg__(self) -> "Quaternion":
        return _new_quat(-self._w, -self._x, -self._y, -self._z, self._d)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b, c, d = self._w, self._x, self._y, self._z
        e, f, g, h = other._w, other._x, other._y, other._z
        return _new_quat(a * e - b * f - c * g - d * h,
                         a * f + b * e + c * h - d * g,
                         a * g - b * h + c * e + d * f,
                         a * h + b * g - c * f + d * e, self._d * other._d)

    def scale(self, r) -> "Quaternion":
        r = _frac(r)
        return self._scale(r.numerator, r.denominator)

    def _scale(self, n: int, m: int) -> "Quaternion":
        """Multiplication by the rational n/m, m > 0."""
        return _new_quat(n * self._w, n * self._x, n * self._y, n * self._z,
                         m * self._d)

    def conj(self) -> "Quaternion":
        return _new_quat(self._w, -self._x, -self._y, -self._z, self._d)

    def _dot(self, other: "Quaternion") -> tuple:
        """The coordinate dot product with ``other`` as (numerator,
        denominator)."""
        return (self._w * other._w + self._x * other._x
                + self._y * other._y + self._z * other._z,
                self._d * other._d)

    def norm2(self) -> Fraction:
        return Fraction(*self._dot(self))

    def inverse(self) -> "Quaternion":
        # conj(q)/|q|^2 = (w, -x, -y, -z) d / (w^2 + x^2 + y^2 + z^2)
        n, _ = self._dot(self)
        if n == 0:
            raise ZeroDivisionError("division by zero quaternion")
        d = self._d
        return _new_quat(self._w * d, -self._x * d, -self._y * d,
                         -self._z * d, n)

    def is_unit(self) -> bool:
        n, d2 = self._dot(self)
        return n == d2

    def is_zero(self) -> bool:
        return not (self._w or self._x or self._y or self._z)

    def coords(self) -> tuple:
        return (self.w, self.x, self.y, self.z)

    def _halves(self) -> tuple:
        """The CNums (w, x) and (y, z): the quaternion is ``p + q*j`` with
        ``p = w + x*i`` and ``q = y + z*i``.  The inverse of ``_quat_of``."""
        d = self._d
        return _new_cnum(self._w, self._x, d), _new_cnum(self._y, self._z, d)

    def _with_im(self, other: "Quaternion") -> tuple:
        """The four CNums ``s + I*o`` of the coordinates ``s`` of ``self``
        and ``o`` of ``other``, in basis order."""
        d, e = self._d, other._d
        if d == e:
            return (_new_cnum(self._w, other._w, d),
                    _new_cnum(self._x, other._x, d),
                    _new_cnum(self._y, other._y, d),
                    _new_cnum(self._z, other._z, d))
        de = d * e
        return (_new_cnum(self._w * e, other._w * d, de),
                _new_cnum(self._x * e, other._x * d, de),
                _new_cnum(self._y * e, other._y * d, de),
                _new_cnum(self._z * e, other._z * d, de))

    def __eq__(self, other):
        if other.__class__ is not Quaternion:
            return NotImplemented
        return (self._w == other._w and self._x == other._x
                and self._y == other._y and self._z == other._z
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash(self.coords())

    def __repr__(self) -> str:
        return (f"Quaternion(w={self.w!r}, x={self.x!r}, y={self.y!r}, "
                f"z={self.z!r})")

    def __str__(self) -> str:
        return f"({self.w}, {self.x}, {self.y}, {self.z})"


def _new_quat(w: int, x: int, y: int, z: int, d: int) -> Quaternion:
    """The Quaternion ``(w, x, y, z)/d`` for integers with ``d > 0``, reduced
    by gcd(w, x, y, z, d) once; no ``Fraction`` is built."""
    if d != 1:
        g = gcd(w, x, y, z, d)
        if g != 1:
            w //= g
            x //= g
            y //= g
            z //= g
            d //= g
    q = _new(Quaternion)
    q._w = w
    q._x = x
    q._y = y
    q._z = z
    q._d = d
    return q


def _quat_of(p: CNum, q: CNum) -> Quaternion:
    """The quaternion ``p + q*j`` with ``p = w + x*i`` and ``q = y + z*i``
    read off the (re, im) parts of two CNums."""
    d, e = p._d, q._d
    if d == e:
        return _new_quat(p._a, p._b, q._a, q._b, d)
    return _new_quat(p._a * e, p._b * e, q._a * d, q._b * d, d * e)


def _re_im_quats(cs: Sequence[CNum]) -> tuple:
    """The quaternions of the re parts and of the im parts of four CNums."""
    d = lcm(*(c._d for c in cs))
    scales = [d // c._d for c in cs]
    return (_new_quat(*(c._a * s for c, s in zip(cs, scales)), d),
            _new_quat(*(c._b * s for c, s in zip(cs, scales)), d))


def cnum_matrix_parts(U) -> tuple:
    """(A, B, d) for a matrix ``U`` of CNums: U = (A + iB)/d with int rows A
    and B over the lcm d of the entries' denominators."""
    d = lcm(*(c._d for row in U for c in row))
    return ([[c._a * (d // c._d) for c in row] for row in U],
            [[c._b * (d // c._d) for c in row] for row in U], d)


Q_ZERO = Quaternion()
Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
QUAT_BASIS = (Q_ONE, Q_I, Q_J, Q_K)


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

    def _scale(self, n: int, m: int) -> "Octonion":
        """Multiplication by the rational n/m, m > 0."""
        return Octonion(self.a._scale(n, m), self.b._scale(n, m))

    def conj(self) -> "Octonion":
        return Octonion(self.a.conj(), -self.b)

    def _dot(self, other: "Octonion") -> tuple:
        """The coordinate dot product with ``other`` as (numerator,
        denominator)."""
        n, d = self.a._dot(other.a)
        m, e = self.b._dot(other.b)
        if d == e:
            return n + m, d
        return n * e + m * d, d * e

    def norm2(self) -> Fraction:
        return Fraction(*self._dot(self))

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def coords(self) -> tuple:
        return self.a.coords() + self.b.coords()

    def _with_im(self, other: "Octonion") -> tuple:
        """The eight CNums ``s + I*o`` of the coordinates ``s`` of ``self``
        and ``o`` of ``other``, in basis order."""
        return self.a._with_im(other.a) + self.b._with_im(other.b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


O_ZERO = Octonion()
O_ONE = Octonion(Q_ONE, Q_ZERO)
O_E = Octonion(Q_ZERO, Q_ONE)
OCT_BASIS = tuple(Octonion(q, Q_ZERO) for q in QUAT_BASIS) + tuple(
    Octonion(Q_ZERO, q) for q in QUAT_BASIS)


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
        form: (re, re) - (im, im) + 2*I*(re, im) for the dot product (,)."""
        rn, rd = self.re._dot(self.re)
        mn, md = self.im._dot(self.im)
        xn, xd = self.re._dot(self.im)
        return _new_cnum((rn * md - mn * rd) * xd, 2 * xn * rd * md,
                         rd * md * xd)

    def scale(self, c: CNum) -> "Cx":
        """Multiplication by the complex number ``c`` over the unit I."""
        a, b, d = c._a, c._b, c._d
        re, im = self.re, self.im
        return Cx(re._scale(a, d) - im._scale(b, d),
                  re._scale(b, d) + im._scale(a, d))

    def coords(self) -> tuple:
        """Complex coordinates (over I) along the basis of the base ring."""
        return self.re._with_im(self.im)

    def scalar_value(self) -> CNum:
        """The value of a scalar element; raises if it is not scalar."""
        value, *rest = self.coords()
        if not all(c.is_zero() for c in rest):
            raise ValueError(f"not a scalar: {self}")
        return value

    def __str__(self) -> str:
        return f"{self.re} + I*{self.im}"


def from_cnum(c: CNum, one) -> Cx:
    """The complex number ``c`` over the central unit I, in the base ring
    whose unit is ``one`` (a quaternion or an octonion).

    Not to be confused with the bicomplex embedding ``Cx(c, C_ZERO)``, which
    places ``c`` over the internal unit i."""
    return Cx(one._scale(c._a, c._d), one._scale(c._b, c._d))
