"""Exact arithmetic in the field Q(i, sqrt2, sqrt3, sqrt5, sqrt7).

A Scalar is a finite sum  sum_d (a_d + b_d i) sqrt(d)  where d runs over the
squarefree divisors of 210 and a_d, b_d are rationals.  The sixteen radicals
sqrt(d) are linearly independent over Q(i), so the representation is unique
and the zero test is exact.  Every radical constant needed by the engine
(sqrt2/16, 3*sqrt3/4, sqrt21/14, ...) lives in this field.

Each value has one stored state, in exactly one of two forms:

  * a real rational is two ints, numerator _num and denominator _den, with
    _den > 0, gcd(_num, _den) = 1 and zero as 0/1; it has no radicand dict
    (_terms is None);
  * any other value is a dict radicand -> (re, im) with no (0, 0) entry
    (_num and _den are None), where each coefficient is an int when it is
    integral and a Fraction otherwise, never a float.

Real rationals are by far the common case: the E6 structure constants are
integers, the bases hold +-1, 2 and +-1/2, and the brackets of the E6
catalog sweep see no other operands.  So +, -, *, negation, inv,
bool and == between two of them, or between one and a plain int (a
combination coefficient, say), are int arithmetic with at most one gcd,
and build no Fraction and no dict.  A product or sum of two rationals
builds its result in place (the two hottest paths); every other rational
comes from _rational, which shares the Scalars of the small integers.

The dict form keeps its fast paths before the general term loop: a
rational factor scales every coefficient, two real multiples of one
radical multiply to a rational in ints, two other single-term operands
(elements of Q(i), or one radical each) combine directly, and inv of an
element of Q(i) is conj/|z|^2.  A dict result whose form is not known in
advance (a sum or product may collapse to a rational) goes through the one
normalizer, _scalar, which picks the form.  Every coefficient given to a
constructor passes _coef, which rejects anything but an int or a Fraction;
a quotient is never int / int, which would be a float.  Since the state is
unique, == and str read it directly, and hash is that of the sorted
(radicand, re, im) triples, whichever form holds them.  The public views
terms() and rational_value() hand out Fractions.

Scalars have no float view, and no decision anywhere in the package is
made from floats.  The sign of a real scalar (scalar_sign) is decided
exactly, from rational isqrt enclosures of the radicals.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd
from typing import Iterator, Union

PRIMES = (2, 3, 5, 7)

# squarefree divisors of 210 = 2*3*5*7
RADICANDS = tuple(sorted(
    {p1 * p2 * p3 * p4
     for p1 in (1, 2) for p2 in (1, 3) for p3 in (1, 5) for p4 in (1, 7)}
))


class NotRationalTerm(ValueError):
    """Raised when an operation requires a purely rational scalar."""


Coef = Union[int, Fraction]


def _coef(q: Coef) -> Coef:
    """The stored form of a rational coefficient: an int when it is
    integral, else a Fraction.  Anything but an int or a Fraction (a float
    above all) is a TypeError."""
    if type(q) is int:
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, int):
        return int(q)
    raise TypeError(f"expected an int or a Fraction coefficient, got {q!r}")


def _squarefree_split(n: int) -> tuple[int, int]:
    # n = r*r * d; the primes 2,3,5,7 are extracted and a leftover that is a
    # perfect square joins r, so d is a radicand dividing 210 exactly when
    # sqrt(n) lies in the field.  Any other leftover stays inside d and is
    # rejected by the caller.
    r, d = 1, 1
    for p in PRIMES:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        r *= p ** (k // 2)
        d *= p ** (k % 2)
    s = math.isqrt(n)
    if s * s == n:
        return r * s, d
    return r, d * n


class Scalar:
    """Immutable element of Q(i, sqrt2, sqrt3, sqrt5, sqrt7)."""

    __slots__ = ("_num", "_den", "_terms", "_hash")

    def __init__(self, terms: dict[int, tuple[Coef, Coef]] | None = None):
        clean: dict[int, tuple[Coef, Coef]] = {}
        if terms:
            for d, (re_, im_) in terms.items():
                if d not in _RAD_SET:
                    raise ValueError(f"radicand {d} outside the supported universe")
                re_, im_ = _coef(re_), _coef(im_)
                if re_ or im_:
                    clean[d] = (re_, im_)
        x = _scalar(clean)
        self._num, self._den, self._terms = x._num, x._den, x._terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q: Coef) -> "Scalar":
        return _rational(*_coef(q).as_integer_ratio())

    @classmethod
    def imag(cls, q: Coef = 1) -> "Scalar":
        return cls({1: (0, q)})

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        """sqrt(d) for a positive integer d = r^2 * s with s dividing 210."""
        if d <= 0:
            raise ValueError("radicand must be positive")
        r, sf = _squarefree_split(d)
        if sf not in _RAD_SET:
            raise ValueError(f"sqrt({d}) is not expressible over radicands dividing 210")
        return cls({sf: (r, 0)})

    # -- views -------------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction, Fraction]]:
        t = self._terms
        if t is None:
            if self._num:
                yield 1, Fraction(self._num, self._den), Fraction(0)
            return
        for d in sorted(t):
            re_, im_ = t[d]
            yield d, Fraction(re_), Fraction(im_)

    def is_zero(self) -> bool:
        return self._num == 0

    def is_rational(self) -> bool:
        return self._terms is None

    def rational_value(self) -> Fraction:
        if self._terms is not None:
            raise NotRationalTerm(f"{self} is not rational")
        return Fraction(self._num, self._den)

    def is_real(self) -> bool:
        t = self._terms
        return t is None or all(not im_ for _, im_ in t.values())

    # -- arithmetic --------------------------------------------------------
    #
    # Each operator takes the int path when both operands are rationals (a
    # plain int counts as one), and otherwise runs the dict code, in which
    # a rational operand is one coefficient.

    @staticmethod
    def _coerce(x: Union["Scalar", Coef]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        t1 = self._terms
        if type(other) is Scalar:
            t2 = other._terms
            if t1 is None:
                n1 = self._num
                if not n1:
                    return other
                if t2 is None:
                    n2 = other._num
                    if not n2:
                        return self
                    # n1/d1 + n2/d2, with one gcd unless d1 or d2 is 1
                    d1, d2 = self._den, other._den
                    if d1 == d2:
                        n, d = n1 + n2, d1
                        if d != 1:
                            g = gcd(n, d)
                            n, d = n // g, d // g
                    elif d1 == 1:
                        n, d = n1 * d2 + n2, d2
                    elif d2 == 1:
                        n, d = n1 + n2 * d1, d1
                    else:
                        n, d = n1 * d2 + n2 * d1, d1 * d2
                        g = gcd(n, d)
                        n, d = n // g, d // g
                    if d == 1 and -_SMALL <= n <= _SMALL:
                        return _SMALL_INTS[n + _SMALL]
                    return _new_rational(n, d)
                t1 = {1: (_coef_of(n1, self._den), 0)}
            elif t2 is None:
                if not other._num:
                    return self
                t2 = {1: (_coef_of(other._num, other._den), 0)}
        elif type(other) is int:
            if t1 is None:
                # (n + k d)/d is reduced when n/d is
                d = self._den
                return _rational(self._num + other * d, d)
            if not other:
                return self
            t2 = {1: (other, 0)}
        else:
            other = self._coerce(other)
            return NotImplemented if other is NotImplemented else self + other
        if len(t1) == 1 == len(t2):
            (d, (a1, b1)), = t1.items()
            if d in t2:
                a2, b2 = t2[d]
                re_ = _coef(a1 + a2)
                im_ = _coef(b1 + b2) if b2 else b1
                if not re_ and not im_:
                    return ZERO
                return _scalar({d: (re_, im_)})
        out = dict(t1)
        for d, (re_, im_) in t2.items():
            r0, i0 = out.get(d, (0, 0))
            out[d] = (r0 + re_, i0 + im_)
        return _nonzero_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        t = self._terms
        if t is None:
            return _rational(-self._num, self._den)
        return _scalar({d: (-re_, -im_) for d, (re_, im_) in t.items()})

    def __sub__(self, other):
        if type(other) is not Scalar and type(other) is not int:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        t1 = self._terms
        if type(other) is Scalar:
            t2 = other._terms
            if t1 is None:
                n1 = self._num
                if not n1:
                    return self
                if t2 is None:
                    n2 = other._num
                    if not n2:
                        return other
                    # (n1/d1)(n2/d2), with one gcd unless d1 d2 = 1
                    n, d = n1 * n2, self._den * other._den
                    if d != 1:
                        g = gcd(n, d)
                        n, d = n // g, d // g
                    if d == 1 and -_SMALL <= n <= _SMALL:
                        return _SMALL_INTS[n + _SMALL]
                    return _new_rational(n, d)
                return _scaled(other, n1, self._den)
            if t2 is None:
                n2 = other._num
                return _scaled(self, n2, other._den) if n2 else other
        elif type(other) is int:
            if t1 is None:
                return _product(self._num, self._den, other, 1)
            return _scaled(self, other, 1) if other else ZERO
        else:
            other = self._coerce(other)
            return NotImplemented if other is NotImplemented else self * other
        if len(t1) == 1 == len(t2):
            # a nonzero single term times a nonzero single term is one
            # nonzero term
            (d1, c1), = t1.items()
            (d2, c2), = t2.items()
            if d1 == d2 and not c1[1] and not c2[1]:
                # (a1 sqrt(d))(a2 sqrt(d)) = a1 a2 d, a rational
                n1, e1 = c1[0].as_integer_ratio()
                n2, e2 = c2[0].as_integer_ratio()
                return _product(n1 * d1, e1, n2, e2)
            d, term = _term_product(d1, c1, d2, c2)
            return _scalar({d: term})
        out: dict[int, tuple[Coef, Coef]] = {}
        for d1, c1 in t1.items():
            for d2, c2 in t2.items():
                d, (re_, im_) = _term_product(d1, c1, d2, c2)
                if d in out:
                    r0, i0 = out[d]
                    out[d] = (r0 + re_, i0 + im_ if im_ else i0)
                else:
                    out[d] = (re_, im_)
        return _nonzero_terms(out)

    __rmul__ = __mul__

    def conj_i(self) -> "Scalar":
        """Complex conjugation i -> -i."""
        t = self._terms
        if t is None:
            return self
        return _scalar({d: (re_, -im_) for d, (re_, im_) in t.items()})

    def conj_sqrt(self, p: int) -> "Scalar":
        """Field conjugation sqrt(p) -> -sqrt(p) for p in {2,3,5,7}."""
        if p not in PRIMES:
            raise ValueError("conjugation prime must be one of 2,3,5,7")
        t = self._terms
        if t is None:
            return self
        return _scalar({d: ((-re_, -im_) if d % p == 0 else (re_, im_))
                        for d, (re_, im_) in t.items()})

    def inv(self) -> "Scalar":
        """Exact inverse: d/n of a rational n/d, conj/|z|^2 on Q(i), else
        rationalized through the conjugates sqrt(p) -> -sqrt(p) of the
        primes present."""
        t = self._terms
        if t is None:
            n, d = self._num, self._den
            if not n:
                raise ZeroDivisionError("scalar inverse of zero")
            return _rational(d, n) if n > 0 else _rational(-d, -n)
        if len(t) == 1 and 1 in t:
            a, b = t[1]
            n = a * a + b * b
            return _scalar({1: (_coef(Fraction(a, n)),
                                _coef(Fraction(-b, n)))})
        num, cur = ONE, self
        for p in PRIMES:
            # cur * conj is fixed by sqrt(p) -> -sqrt(p), as cur already is
            # when none of its radicands has the factor p
            if cur._terms is not None and any(d % p == 0 for d in cur._terms):
                conj = cur.conj_sqrt(p)
                num, cur = num * conj, cur * conj
        # cur now lies in Q(i)
        return num * cur.inv()

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    def sqrt_if_expressible(self) -> Union["Scalar", None]:
        """Square root of a nonnegative rational scalar, when it stays in the field.

        Returns s with s*s == self when self == r^2 * d for rational r and an
        admissible radicand d; returns None otherwise.
        """
        if self._terms is not None:
            raise NotRationalTerm(f"{self} is not rational")
        n, den = self._num, self._den
        if n < 0:
            raise NotRationalTerm("square root of a negative rational requested")
        if n == 0:
            return ZERO
        rn, dn = _squarefree_split(n)
        rd, dd = _squarefree_split(den)
        # q = (rn/rd)^2 * dn/dd; dn/dd = dn*dd / dd^2
        d = dn * dd
        r, sf = _squarefree_split(d)
        if sf not in _RAD_SET:
            return None
        return Scalar({sf: (Fraction(rn * r, rd * dd), 0)})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            if isinstance(other, (int, Fraction)):
                return (self._terms is None and self._num == other.numerator
                        and self._den == other.denominator)
            return NotImplemented
        t = self._terms
        if t is None:
            # a dict-form other has _num None
            return self._num == other._num and self._den == other._den
        return t == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            t = self._terms
            if t is None:
                n, d = self._num, self._den
                self._hash = hash(((1, n if d == 1 else Fraction(n, d), 0),)
                                  if n else ())
            else:
                self._hash = hash(tuple(sorted(
                    (d, re_, im_) for d, (re_, im_) in t.items())))
        return self._hash

    def __bool__(self) -> bool:
        # zero is 0/1, and the dict form (never zero) has _num None
        return self._num != 0

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        t = self._terms
        if t is None:
            return _format_coef(self._num, self._den, "", 1) if self._num else "0"
        parts: list[str] = []
        for d in sorted(t):
            re_, im_ = t[d]
            for coef, unit in ((re_, ""), (im_, "i")):
                if not coef:
                    continue
                body = _format_coef(coef.numerator, coef.denominator, unit, d)
                if parts and not body.startswith("-"):
                    parts.append("+" + body)
                else:
                    parts.append(body)
        return "".join(parts)


def _format_coef(num: int, den: int, unit: str, d: int) -> str:
    """num/den (den > 0) times unit and sqrt(d), e.g. '-3*i*sqrt(2)/4'."""
    pieces: list[str] = []
    sign = "-" if num < 0 else ""
    num = abs(num)
    if num != 1 or (unit == "" and d == 1):
        pieces.append(str(num))
    if unit:
        pieces.append(unit)
    if d != 1:
        pieces.append(f"sqrt({d})")
    body = "*".join(pieces) if pieces else "1"
    if den != 1:
        body += f"/{den}"
    return sign + body


_RAD_SET = frozenset(RADICANDS)


def _coef_of(n: int, d: int) -> Coef:
    """The dict form's coefficient of the reduced rational n/d."""
    return n if d == 1 else Fraction(n, d)


def _product(n1: int, d1: int, n2: int, d2: int) -> Scalar:
    """(n1/d1)(n2/d2) for d1, d2 > 0, reduced by one gcd unless d1 d2 = 1."""
    n, d = n1 * n2, d1 * d2
    if d != 1:
        g = gcd(n, d)
        n, d = n // g, d // g
    return _rational(n, d)


def _scaled(x: Scalar, n: int, d: int) -> Scalar:
    """The dict-form x times the nonzero reduced rational n/d, still in the
    dict form; each coefficient is reduced by one gcd, and a Fraction is
    built only for a coefficient that stays fractional."""
    if n == d:
        return x
    out = {}
    for k, (a, b) in x._terms.items():
        out[k] = (_times(a, n, d), _times(b, n, d) if b else 0)
    return _scalar(out)


def _times(a: Coef, n: int, d: int) -> Coef:
    """The stored coefficient a * n/d."""
    if type(a) is int:
        num, den = a * n, d
    else:
        num, den = a.numerator * n, a.denominator * d
    if den != 1:
        g = gcd(num, den)
        num, den = num // g, den // g
        if den != 1:
            return Fraction(num, den)
    return num


def _nonzero_terms(terms: dict[int, tuple[Coef, Coef]]) -> Scalar:
    """A Scalar from sums of stored coefficients over valid radicands,
    dropping zeros and bringing integral Fractions back to int."""
    return _scalar({d: (_coef(re_), _coef(im_))
                    for d, (re_, im_) in terms.items() if re_ or im_})


def _term_product(d1: int, c1: tuple[Coef, Coef], d2: int,
                  c2: tuple[Coef, Coef]) -> tuple[int, tuple[Coef, Coef]]:
    """(a1 + b1 i) sqrt(d1) * (a2 + b2 i) sqrt(d2) as (d, (re, im)), with
    the coefficients in stored form."""
    (a1, b1), (a2, b2) = c1, c2
    if b1 or b2:
        re_, im_ = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
    else:
        re_, im_ = a1 * a2, 0
    if d1 == 1 or d2 == 1:
        d = d1 * d2
    else:
        g = gcd(d1, d2)
        d, re_, im_ = (d1 // g) * (d2 // g), re_ * g, im_ * g
    return d, (_coef(re_), _coef(im_))


_new = object.__new__


def _scalar(terms: dict[int, tuple[Coef, Coef]]) -> Scalar:
    """The normalizer: the Scalar with these terms, already in canonical
    dict form (possibly empty), in the form that its value takes."""
    if len(terms) < 2:
        if not terms:
            return ZERO
        c = terms.get(1)
        if c is not None and not c[1]:
            return _rational(*c[0].as_integer_ratio())
    x = _new(Scalar)
    x._num = x._den = x._hash = None
    x._terms = terms
    return x



def _new_rational(n: int, d: int) -> Scalar:
    x = _new(Scalar)
    x._num, x._den, x._terms, x._hash = n, d, None, None
    return x


# The integers -_SMALL to _SMALL, one shared Scalar each.
_SMALL = 64
_SMALL_INTS = tuple(_new_rational(k, 1) for k in range(-_SMALL, _SMALL + 1))


def _rational(n: int, d: int) -> Scalar:
    """The rational n/d, given reduced with d > 0."""
    if d == 1 and -_SMALL <= n <= _SMALL:
        return _SMALL_INTS[n + _SMALL]
    return _new_rational(n, d)


ZERO = _rational(0, 1)
ONE = _rational(1, 1)
I = Scalar.imag(1)


def scalar_sign(x: Scalar) -> int:
    """Exact sign of a real Scalar.

    A rational or single term c*sqrt(d) has the sign of c.  Otherwise each
    sqrt(d) is enclosed as isqrt(d * 4^k) / 2^k <= sqrt(d) < (isqrt(d * 4^k)
    + 1) / 2^k, and k doubles until the enclosure of the sum excludes 0; it
    does for some k because the zero test is exact.
    """
    if x._terms is None:
        return (x._num > 0) - (x._num < 0)
    if not x.is_real():
        raise ValueError("complex scalar has no sign")
    terms = [(d, re_) for d, (re_, _) in sorted(x._terms.items())]
    if len(terms) == 1:
        return 1 if terms[0][1] > 0 else -1
    k = 32
    while True:
        lo = hi = 0
        for d, c in terms:
            s = math.isqrt(d << (2 * k))
            t = s if d == 1 else s + 1
            lo += c * (s if c > 0 else t)
            hi += c * (t if c > 0 else s)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2


def rat(p: Coef, q: int = 1) -> Scalar:
    return Scalar.rational(p if q == 1 else Fraction(p, q))


def sqrt(d: int) -> Scalar:
    return Scalar.sqrt(d)




# -- expression grammars --------------------------------------------------
#
# One tokenizer and one recursive-descent parser read four grammars:
#
#   scalar := expr                  with no names
#   flat   := expr                  over names such as l1, linear in them
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := "-" factor | "(" expr ")" | number | "i"
#           | "sqrt" "(" number ")" | name
#   vector := vterm (("+" | "-") vterm)*
#   vterm  := "-"* name ["[" name "]"] "(" expr ("," expr)* ")"
#   label  := "(" part ("," part)* ")"
#   part   := label | word (word | label)*
#
# e.g. '3/4*sqrt(3)', '(9*l1 + 5*l2)/sqrt(21)', 'M[2l1](1) - a(1, 0)' and
# '(S, phi=arctan(1/(3*sqrt(3))), 3)'.  A name may start with digits (2l1); a
# word is any token but "(", "," and ")", even a stray character.  A part
# keeps its exact text, or is an int if it is one number.  Groups and the
# unary minus signs of factors together nest at most MAX_NESTING deep.

_TOKEN = re.compile(r"(?P<name>\d*[A-Za-z_]\w*)|(?P<number>\d+)"
                    r"|(?P<op>[-+*/=,()\[\]])|(?P<other>\S)")
MAX_NESTING = 100


class ParseError(ValueError):
    """Malformed scalar, vector, flat-vector or type-label text."""


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal, e.g. '3/4*sqrt(3)', 'sqrt(2)/16', '-i'."""
    return Parser(text).read(Parser.expr)


class Linear(dict):
    """Value of a flat-vector expression: name -> Scalar coefficient."""

    def __add__(self, other):
        if not isinstance(other, Linear):
            raise ParseError("a scalar is added to a direction")
        return Linear({n: self.get(n, ZERO) + other.get(n, ZERO)
                       for n in {**self, **other}})

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            raise ParseError("a direction is multiplied by a direction")
        return Linear({n: c * other for n, c in self.items()})

    def __neg__(self):
        return self * -ONE

    __radd__, __rmul__ = __add__, __mul__


class Parser:
    """A cursor over the tokens of one text, with one method per production;
    the given names are the atoms of a flat-vector expression."""

    def __init__(self, text: str, names=()):
        self.text, self.names = text, names
        self.tokens = list(_TOKEN.finditer(text))
        self.pos = self.depth = 0

    def read(self, production):
        """Apply a production to the whole text."""
        value = production(self)
        if self.peek() is not None:
            self.fail(f"unexpected {self.peek()!r}")
        return value

    def fail(self, what: str):
        raise ParseError(f"{what} in {self.text!r}")

    def peek(self) -> str | None:
        at_end = self.pos == len(self.tokens)
        return None if at_end else self.tokens[self.pos].group()

    def take(self, kind: str | None = None) -> str:
        tok = self.peek()
        if tok is None or kind and self.tokens[self.pos].lastgroup != kind:
            self.fail(f"expected {kind or 'more'}, found {tok or 'the end'}")
        self.pos += 1
        return tok

    def accept(self, tok: str) -> bool:
        found = self.peek() == tok
        self.pos += found
        return found

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            self.fail(f"expected {tok}, found {self.peek() or 'the end'}")

    def nested(self, production):
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")
        self.depth += 1
        value = production()
        self.depth -= 1
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            rhs = self.term() if self.take() == "+" else -self.term()
            value = value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            op, rhs = self.take(), self.factor()
            if op == "/":
                if not isinstance(rhs, Scalar):
                    self.fail("division by a direction")
                if rhs.is_zero():
                    self.fail("division by zero")
                rhs = rhs.inv()
            value = value * rhs
        return value

    def factor(self):
        tok = self.take()
        if tok == "-":
            return -self.nested(self.factor)
        if tok == "(":
            value = self.nested(self.expr)
            self.expect(")")
            return value
        if tok == "sqrt":
            self.expect("(")
            radicand = int(self.take("number"))
            self.expect(")")
            return Scalar.sqrt(radicand)
        if tok.isdigit():
            return Scalar.rational(int(tok))
        if tok in self.names:
            return Linear({tok: ONE})
        if tok == "i":
            return I
        self.fail(f"unexpected {tok!r}")

    def vector(self) -> list[tuple[str, str | None, list[Scalar]]]:
        """Terms (head, label, arguments); a term's "-" negates its args."""
        terms = []
        while not terms or self.accept("+") or self.peek() == "-":
            sign = ONE
            while self.accept("-"):
                sign = -sign
            head, label = self.take("name"), None
            if self.accept("["):
                label = self.take("name")
                self.expect("]")
            self.expect("(")
            args = [self.expr()]
            while self.accept(","):
                args.append(self.expr())
            self.expect(")")
            terms.append((head, label, [sign * a for a in args]))
        return terms

    def label(self) -> tuple:
        self.expect("(")
        parts = [self.nested(self.part)]
        while self.accept(","):
            parts.append(self.nested(self.part))
        self.expect(")")
        return tuple(parts)

    def part(self):
        if self.peek() == "(":
            return self.label()
        start = self.pos
        while self.peek() not in (None, ",", ")"):
            if self.peek() == "(":
                self.label()
            else:
                self.pos += 1
        if self.pos == start:
            self.fail("empty label part")
        first, last = self.tokens[start], self.tokens[self.pos - 1]
        if first is last and first.lastgroup == "number":
            return int(first.group())
        return self.text[first.start():last.end()]
