"""Exact arithmetic in the field Q(i, sqrt2, sqrt3, sqrt5, sqrt7).

A Scalar is a finite sum  sum_d (a_d + b_d i) sqrt(d)  where d runs over the
squarefree divisors of 210 and a_d, b_d are rationals.  The sixteen radicals
sqrt(d) are linearly independent over Q(i), so the representation is unique
and the zero test is exact.  Every radical constant needed by the engine
(sqrt2/16, 3*sqrt3/4, sqrt21/14, ...) lives in this field.

The canonical form is a dict radicand -> (re, im) with no (0, 0) entry,
where each coefficient is an int when it is integral and a Fraction
otherwise, never a float.  Integral coefficients are by far the common
case (the E6 structure constants are integers, the bases hold +-1, 2 and
+-1/2), and an int product costs no gcd and no new Fraction.  An int and
the Fraction of the same value are equal and hash alike, so ==, hash and
str read the form directly; every constructor passes its coefficients
through one normalizer (_coef), which rejects anything but an int or a
Fraction, and every result of arithmetic is brought back to the form.  A
quotient is always formed from a Fraction, since int / int would be a
float.  The public views terms() and rational_value() hand out Fractions.

Arithmetic keeps that form on two fast paths before the general term loop:
an operand that is zero returns at once, and two single-term operands
(rationals, elements of Q(i), or one radical each) combine directly into a
result built without __init__'s cleaning.  inv of an element of Q(i) is
conj/|z|^2.

Scalars have no float view, and no decision anywhere in the package is
made from floats.  The sign of a real scalar (scalar_sign) is decided
exactly, from rational isqrt enclosures of the radicals.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, tuple[Coef, Coef]] | None = None):
        clean: dict[int, tuple[Coef, Coef]] = {}
        if terms:
            for d, (re_, im_) in terms.items():
                if d not in _RAD_SET:
                    raise ValueError(f"radicand {d} outside the supported universe")
                re_, im_ = _coef(re_), _coef(im_)
                if re_ or im_:
                    clean[d] = (re_, im_)
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q: Coef) -> "Scalar":
        q = _coef(q)
        return _scalar({1: (q, 0)}) if q else ZERO

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
        for d in sorted(self._terms):
            re_, im_ = self._terms[d]
            yield d, Fraction(re_), Fraction(im_)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1} and (1 not in self._terms or not self._terms[1][1])

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise NotRationalTerm(f"{self} is not rational")
        return Fraction(self._terms[1][0])

    def is_real(self) -> bool:
        return all(not im_ for _, im_ in self._terms.values())

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x: Union["Scalar", Coef]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        t1, t2 = self._terms, other._terms
        if not t2:
            return self
        if not t1:
            return other
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
        if not self._terms:
            return self
        return _scalar({d: (-re_, -im_) for d, (re_, im_) in self._terms.items()})

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        t1, t2 = self._terms, other._terms
        if not t1:
            return self
        if not t2:
            return other
        if len(t1) == 1 == len(t2):
            # a nonzero single term times a nonzero single term is one
            # nonzero term
            (d1, c1), = t1.items()
            (d2, c2), = t2.items()
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
        return _scalar({d: (re_, -im_)
                        for d, (re_, im_) in self._terms.items()})

    def conj_sqrt(self, p: int) -> "Scalar":
        """Field conjugation sqrt(p) -> -sqrt(p) for p in {2,3,5,7}."""
        if p not in PRIMES:
            raise ValueError("conjugation prime must be one of 2,3,5,7")
        return _scalar({d: ((-re_, -im_) if d % p == 0 else (re_, im_))
                        for d, (re_, im_) in self._terms.items()})

    def inv(self) -> "Scalar":
        """Exact inverse: 1/q or conj/|z|^2 on Q(i), else rationalized
        through the conjugates sqrt(p) -> -sqrt(p) of the primes present."""
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if len(self._terms) == 1 and 1 in self._terms:
            a, b = self._terms[1]
            if not b:
                return _scalar({1: (_coef(Fraction(1, a)), 0)})
            n = a * a + b * b
            return _scalar({1: (_coef(Fraction(a, n)),
                                _coef(Fraction(-b, n)))})
        num, cur = ONE, self
        for p in PRIMES:
            # cur * conj is fixed by sqrt(p) -> -sqrt(p), as cur already is
            # when none of its radicands has the factor p
            if any(d % p == 0 for d in cur._terms):
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
        q = self.rational_value()  # raises NotRationalTerm on radical input
        if q < 0:
            raise NotRationalTerm("square root of a negative rational requested")
        if q == 0:
            return Scalar()
        rn, dn = _squarefree_split(q.numerator)
        rd, dd = _squarefree_split(q.denominator)
        # q = (rn/rd)^2 * dn/dd; dn/dd = dn*dd / dd^2
        d = dn * dd
        r, sf = _squarefree_split(d)
        if sf not in _RAD_SET:
            return None
        return Scalar({sf: (Fraction(rn * r, rd * dd), 0)})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(
                (d, re_, im_) for d, (re_, im_) in self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- formatting --------------------------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d in sorted(self._terms):
            re_, im_ = self._terms[d]
            for coef, unit in ((re_, ""), (im_, "i")):
                if not coef:
                    continue
                body = _format_coef(coef, unit, d)
                if parts and not body.startswith("-"):
                    parts.append("+" + body)
                else:
                    parts.append(body)
        return "".join(parts)


def _format_coef(coef: Coef, unit: str, d: int) -> str:
    pieces: list[str] = []
    sign = "-" if coef < 0 else ""
    coef = abs(coef)
    if coef.numerator != 1 or (unit == "" and d == 1):
        pieces.append(str(coef.numerator))
    if unit:
        pieces.append(unit)
    if d != 1:
        pieces.append(f"sqrt({d})")
    body = "*".join(pieces) if pieces else "1"
    if coef.denominator != 1:
        body += f"/{coef.denominator}"
    return sign + body


_RAD_SET = frozenset(RADICANDS)


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
        g = math.gcd(d1, d2)
        d, re_, im_ = (d1 // g) * (d2 // g), re_ * g, im_ * g
    return d, (_coef(re_), _coef(im_))


def _scalar(terms: dict[int, tuple[Coef, Coef]]) -> Scalar:
    """A Scalar from terms already in canonical form, skipping __init__."""
    x = object.__new__(Scalar)
    x._terms = terms
    x._hash = None
    return x


ZERO = Scalar()
ONE = Scalar.rational(1)
I = Scalar.imag(1)


def scalar_sign(x: Scalar) -> int:
    """Exact sign of a real Scalar.

    A single term c*sqrt(d) has the sign of c.  Otherwise each sqrt(d) is
    enclosed as isqrt(d * 4^k) / 2^k <= sqrt(d) < (isqrt(d * 4^k) + 1) / 2^k,
    and k doubles until the enclosure of the sum excludes 0; it does for
    some k because the zero test is exact.
    """
    if x.is_zero():
        return 0
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
