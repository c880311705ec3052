"""The exact number systems of the Cayley/Jordan models over the rationals:
the complex numbers ``CNum`` over the central unit I, and one element type,
``CDNum``, for the quaternions ℍ, the octonions 𝕆, the bicomplex entries
ℂ⊗ℂ of the 6x6 matrix model and the complexifications ℍ⊗ℂ and 𝕆⊗ℂ.

Both store integer coordinates over one positive denominator, reduced by one
private normalizer (``_new_cnum``, ``_new_cd``), and hand their coordinates
out as ``Fraction``s or ``CNum``s.  A ``CDNum`` carries a ``Ring``
descriptor whose product is a (k, sign) table built at import from the
Cayley–Dickson rule and from I**2 = -1.  The coordinates are laid out so
that every boundary between the rings is an index map (``CDNum.take`` and
``place``): an octonion is a pair (a, b) of quaternions, a + b*e, and an
element of a complexification X⊗ℂ is a pair (re, im) of elements of X,
re + I*im, so no ``Fraction`` and no validating constructor is built inside
the arithmetic.  ``cnum_matrix_parts`` hands a matrix of complex numbers to
``ltskit.matrix_groups`` as int rows.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import add, mul, neg, sub


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


def cnum_matrix_parts(U) -> tuple:
    """(A, B, d) for a matrix ``U`` of CNums: U = (A + iB)/d with int rows A
    and B over the lcm d of the entries' denominators."""
    d = lcm(*(c._d for row in U for c in row))
    return ([[c._a * (d // c._d) for c in row] for row in U],
            [[c._b * (d // c._d) for c in row] for row in U], d)


# ---------------------------------------------------------------------------
# one element type for ℍ, 𝕆, ℂ⊗ℂ, ℍ⊗ℂ and 𝕆⊗ℂ
# ---------------------------------------------------------------------------


class CDNum:
    """An element of one of the rings ``H``, ``O``, ``BC``, ``HC`` and
    ``OC``, with rational coordinates along the ring's basis.

    The state is the ring, a list of integers and one positive denominator,
    kept reduced (gcd 1, so zero is over 1) by ``_new_cd`` as ``CNum``'s is;
    no operation changes a state once built.  (A list, not a tuple: CPython
    keeps up to 2000 freed tuples of each length, which for the lengths 4, 8
    and 16 can hold 0.7 MB after the arithmetic is done.)
    The product reads the ring's (k, sign) table and skips zero coordinates.
    ``coords()`` and ``norm2()`` read the state as ``Fraction``s in ℍ and 𝕆,
    and as ``CNum``s over the central unit I in a complexification, whose
    k-th coordinate is (c[k] + I*c[k + n])/d.  ``==``, ``hash``, ``str``
    and ``repr`` are those of the ring and ``coords()``.
    """

    __slots__ = ("_r", "_c", "_d")

    def __init__(self, ring: "Ring", *coords):
        if len(coords) > ring.dim:
            raise ValueError(f"{ring.name} has {ring.dim} coordinates")
        c, self._d = _common(coords + (0,) * (ring.dim - len(coords)))
        self._r, self._c = ring, c

    def _same_ring(self, other: "CDNum") -> "Ring":
        if other._r is not self._r:
            raise TypeError(f"{self._r.name} and {other._r.name} elements "
                            "do not combine")
        return self._r

    def _half(self) -> int:
        """The dimension n of X in the complexification X⊗ℂ."""
        n = self._r.n
        if not n:
            raise TypeError(f"{self._r.name} has no central unit I")
        return n

    def __add__(self, other: "CDNum") -> "CDNum":
        r = self._same_ring(other)
        d, e = self._d, other._d
        if d == e:
            return _new_cd(r, list(map(add, self._c, other._c)), d)
        return _new_cd(r, [x * e + y * d for x, y in zip(self._c, other._c)],
                       d * e)

    def __sub__(self, other: "CDNum") -> "CDNum":
        r = self._same_ring(other)
        d, e = self._d, other._d
        if d == e:
            return _new_cd(r, list(map(sub, self._c, other._c)), d)
        return _new_cd(r, [x * e - y * d for x, y in zip(self._c, other._c)],
                       d * e)

    def __neg__(self) -> "CDNum":
        return _cd(self._r, list(map(neg, self._c)), self._d)

    def __mul__(self, other: "CDNum") -> "CDNum":
        r = self._same_ring(other)
        ys = [(j, y) for j, y in enumerate(other._c) if y]
        out = [0] * r.dim
        for x, row in zip(self._c, r.table):
            if x:
                for j, y in ys:
                    k, s = row[j]
                    if s > 0:
                        out[k] += x * y
                    else:
                        out[k] -= x * y
        return _new_cd(r, out, self._d * other._d)

    def scale(self, c) -> "CDNum":
        """Multiplication by a rational, or by a ``CNum`` over the central
        unit I of a complexification."""
        if c.__class__ is not CNum:
            c = _frac(c)
            return _new_cd(self._r, [c.numerator * x for x in self._c],
                           c.denominator * self._d)
        n, a, b = self._half(), c._a, c._b
        re, im = self._c[:n], self._c[n:]
        return _new_cd(self._r,
                       [a * x - b * y for x, y in zip(re, im)]
                       + [b * x + a * y for x, y in zip(re, im)],
                       c._d * self._d)

    def signed(self, signs) -> "CDNum":
        """The coordinates multiplied by the signs ±1, in basis order."""
        return _cd(self._r, list(map(mul, signs, self._c)), self._d)

    def conj(self) -> "CDNum":
        """Conjugation of ℍ or 𝕆 (of ℂ in ℂ⊗ℂ), I-linear in X⊗ℂ."""
        return self.signed(self._r.bar)

    def conj_I(self) -> "CDNum":
        """Conjugation of the central unit I."""
        n, c = self._half(), self._c
        return _cd(self._r, c[:n] + list(map(neg, c[n:])), self._d)

    def times_I(self) -> "CDNum":
        n, c = self._half(), self._c
        return _cd(self._r, list(map(neg, c[n:])) + c[:n], self._d)

    def take(self, ring: "Ring", idx) -> "CDNum":
        """The element of ``ring`` whose coordinates are this element's at
        the positions ``idx``, in order."""
        c = self._c
        return _new_cd(ring, [c[i] for i in idx], self._d)

    def norm2(self):
        """The norm form of ℍ or 𝕆, and in X⊗ℂ its complex-bilinear
        extension (re, re) - (im, im) + 2*I*(re, im), as a ``CNum``."""
        c, dd = self._c, self._d * self._d
        n = self._r.n
        if not n:
            return Fraction(sum(x * x for x in c), dd)
        re, im = c[:n], c[n:]
        return _new_cnum(sum(x * x for x in re) - sum(y * y for y in im),
                         2 * sum(x * y for x, y in zip(re, im)), dd)

    def inverse(self) -> "CDNum":
        """conj(q)/|q|^2 in ℍ or 𝕆."""
        n = sum(x * x for x in self._c)
        if n == 0:
            raise ZeroDivisionError(f"division by zero {self._r.name}")
        d = self._d
        return _new_cd(self._r, [s * x * d for s, x in zip(self._r.bar,
                                                           self._c)], n)

    def is_unit(self) -> bool:
        return sum(x * x for x in self._c) == self._d * self._d

    def is_zero(self) -> bool:
        return not any(self._c)

    def coords(self) -> tuple:
        c, d, n = self._c, self._d, self._r.n
        if not n:
            return tuple(Fraction(x, d) for x in c)
        return tuple(_new_cnum(c[k], c[k + n], d) for k in range(n))

    def scalar_value(self) -> CNum:
        """The value of a scalar element; raises if it is not scalar."""
        n, c = self._half(), self._c
        if any(x for k, x in enumerate(c) if k % n):
            raise ValueError(f"not a scalar: {self}")
        return _new_cnum(c[0], c[n], self._d)

    def __eq__(self, other):
        if other.__class__ is not CDNum:
            return NotImplemented
        return (self._r is other._r and self._d == other._d
                and self._c == other._c)

    def __hash__(self) -> int:
        return hash(self.coords())

    def __repr__(self) -> str:
        return self._r.name + "(" + ", ".join(
            f"{label}={c!r}"
            for label, c in zip(self._r.labels, self.coords())) + ")"

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.coords())) + ")"


def _cd(ring: "Ring", c: list, d: int) -> CDNum:
    """The CDNum of the reduced state (c, d) in ``ring``."""
    x = _new(CDNum)
    x._r = ring
    x._c = c
    x._d = d
    return x


def _new_cd(ring: "Ring", c: list, d: int) -> CDNum:
    """The CDNum ``c/d`` in ``ring`` for integers with ``d > 0``, reduced by
    the gcd of d and every coordinate once; no ``Fraction`` is built."""
    if d != 1:
        g = gcd(d, *c)
        if g != 1:
            c = [x // g for x in c]
            d //= g
    return _cd(ring, c, d)


def place(ring: "Ring", parts, at=None) -> CDNum:
    """The element of ``ring`` whose coordinates at the positions ``at``
    (by default 0, 1, ...) are those of ``parts`` in order: the (re, im)
    pair of a ``CNum``, the coordinates of a ``CDNum``.  The others are
    zero.  Over the lcm of the parts' denominators the result is reduced."""
    d = lcm(*(p._d for p in parts))
    c = [0] * ring.dim
    positions = iter(range(ring.dim) if at is None else at)
    for p in parts:
        f = d // p._d
        for x in (p._a, p._b) if p.__class__ is CNum else p._c:
            c[next(positions)] = x * f
    return _cd(ring, c, d)


class Ring:
    """A ring of ``CDNum``s: its name and coordinate labels, its product
    table ``table[i][j] == (k, sign)`` for e_i e_j = sign*e_k, the signs
    ``bar`` of its conjugation, and, in a complexification X⊗ℂ, the
    dimension ``n`` of X (0 in ℍ and 𝕆).  ``zero``, ``one`` and ``basis``
    are its elements."""

    __slots__ = ("name", "labels", "table", "dim", "n", "bar", "zero", "one",
                 "basis")

    def __init__(self, name: str, table: list, n: int = 0, labels=None):
        self.name, self.table, self.dim, self.n = name, table, len(table), n
        base = n or self.dim
        self.labels = labels or tuple(f"e{k}" for k in range(base))
        self.bar = tuple(1 if k % base == 0 else -1 for k in range(self.dim))
        self.basis = tuple(_cd(self, [int(k == j) for k in range(self.dim)], 1)
                           for j in range(self.dim))
        self.zero = _cd(self, [0] * self.dim, 1)
        self.one = self.basis[0]


def _doubled(table: list) -> list:
    """The table of the Cayley–Dickson double of the algebra of ``table``:
    (x1, x2)(y1, y2) = (x1 y1 - conj(y2) x2, x2 conj(y1) + y2 x1) on basis
    pairs, where conj(e_0) = e_0 and conj(e_j) = -e_j otherwise."""
    n = len(table)
    out = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            p, q = i % n, j % n
            bar = 1 if q == 0 else -1
            if i < n and j < n:  # x1 y1
                k, s = table[p][q]
            elif i < n:  # y2 x1
                k, s = table[q][p]
                k += n
            elif j < n:  # x2 conj(y1)
                k, s = table[p][q]
                k, s = k + n, s * bar
            else:  # -conj(y2) x2
                k, s = table[q][p]
                s *= -bar
            row.append((k, s))
        out.append(row)
    return out


def _complexified(table: list) -> list:
    """The table of X⊗ℂ, (re, im) = re + I*im with I central, I**2 = -1."""
    n = len(table)
    out = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            k, s = table[i % n][j % n]
            if i >= n and j >= n:  # (I x)(I y) = -xy
                s = -s
            elif i >= n or j >= n:  # (I x) y = x (I y) = I xy
                k += n
            row.append((k, s))
        out.append(row)
    return out


_C_TABLE = _doubled([[(0, 1)]])
_H_TABLE = _doubled(_C_TABLE)
_O_TABLE = _doubled(_H_TABLE)

H = Ring("Quaternion", _H_TABLE, labels=("w", "x", "y", "z"))
O = Ring("Octonion", _O_TABLE)
BC = Ring("Bicomplex", _complexified(_C_TABLE), n=2)
HC = Ring("ComplexQuaternion", _complexified(_H_TABLE), n=4)
OC = Ring("ComplexOctonion", _complexified(_O_TABLE), n=8)

# The quaternion ``w + x*i + y*j + z*k`` of rational coordinates.
Quaternion = partial(CDNum, H)

Q_ZERO = H.zero
Q_ONE, Q_I, Q_J, Q_K = H.basis


def random_octonion(rng: random.Random, span: int = 5) -> CDNum:
    return CDNum(O, *(Fraction(rng.randint(-span, span), rng.randint(1, span))
                      for _ in range(8)))
