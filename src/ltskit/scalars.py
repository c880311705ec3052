"""Exact arithmetic in the field Q(i, sqrt2, sqrt3, sqrt5, sqrt7).

A Scalar is a finite sum  sum_d (a_d + b_d i) sqrt(d)  where d runs over the
squarefree divisors of 210 and a_d, b_d are rationals.  The sixteen radicals
sqrt(d) are linearly independent over Q(i), so the representation is unique
and the zero test is exact.  Every radical constant needed by the engine
(sqrt2/16, 3*sqrt3/4, sqrt21/14, ...) lives in this field.

There is a float view for report formatting only; no decision anywhere in
the package is made from floats.
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


def _squarefree_split(n: int) -> tuple[int, int]:
    # n = r*r * d with d squarefree; only the primes 2,3,5,7 are extracted,
    # anything else stays inside d and is rejected by the caller.
    r, d = 1, 1
    for p in PRIMES:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        r *= p ** (k // 2)
        d *= p ** (k % 2)
    return r, d * n


class Scalar:
    """Immutable element of Q(i, sqrt2, sqrt3, sqrt5, sqrt7)."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: dict[int, tuple[Fraction, Fraction]] | None = None):
        clean: dict[int, tuple[Fraction, Fraction]] = {}
        if terms:
            for d, (re_, im_) in terms.items():
                if d not in _RAD_SET:
                    raise ValueError(f"radicand {d} outside the supported universe")
                if re_ or im_:
                    clean[d] = (Fraction(re_), Fraction(im_))
        self._terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, q: Union[int, Fraction]) -> "Scalar":
        return cls({1: (Fraction(q), Fraction(0))})

    @classmethod
    def imag(cls, q: Union[int, Fraction] = 1) -> "Scalar":
        return cls({1: (Fraction(0), Fraction(q))})

    @classmethod
    def sqrt(cls, d: int) -> "Scalar":
        """sqrt(d) for a positive integer d whose prime support is {2,3,5,7}."""
        if d <= 0:
            raise ValueError("radicand must be positive")
        r, sf = _squarefree_split(d)
        if sf not in _RAD_SET:
            raise ValueError(f"sqrt({d}) is not expressible over radicands dividing 210")
        return cls({sf: (Fraction(r), Fraction(0))})

    # -- views -------------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction, Fraction]]:
        for d in sorted(self._terms):
            re_, im_ = self._terms[d]
            yield d, re_, im_

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1} and (1 not in self._terms or not self._terms[1][1])

    def rational_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise NotRationalTerm(f"{self} is not rational")
        return self._terms[1][0]

    def is_real(self) -> bool:
        return all(not im_ for _, im_ in self._terms.values())

    def __float__(self) -> float:
        if not self.is_real():
            raise ValueError("complex scalar has no float view")
        return float(sum(float(re_) * math.sqrt(d) for d, (re_, _) in self._terms.items()))

    def to_complex(self) -> complex:
        out = 0j
        for d, (re_, im_) in self._terms.items():
            out += complex(float(re_), float(im_)) * math.sqrt(d)
        return out

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x: Union["Scalar", int, Fraction]) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction)):
            return Scalar.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for d, (re_, im_) in other._terms.items():
            r0, i0 = out.get(d, (Fraction(0), Fraction(0)))
            out[d] = (r0 + re_, i0 + im_)
        return Scalar(out)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar({d: (-re_, -im_) for d, (re_, im_) in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, tuple[Fraction, Fraction]] = {}
        for d1, (a1, b1) in self._terms.items():
            for d2, (a2, b2) in other._terms.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                re_ = (a1 * a2 - b1 * b2) * g
                im_ = (a1 * b2 + b1 * a2) * g
                r0, i0 = out.get(d, (Fraction(0), Fraction(0)))
                out[d] = (r0 + re_, i0 + im_)
        return Scalar(out)

    __rmul__ = __mul__

    def conj_i(self) -> "Scalar":
        """Complex conjugation i -> -i."""
        return Scalar({d: (re_, -im_) for d, (re_, im_) in self._terms.items()})

    def conj_sqrt(self, p: int) -> "Scalar":
        """Field conjugation sqrt(p) -> -sqrt(p) for p in {2,3,5,7}."""
        if p not in PRIMES:
            raise ValueError("conjugation prime must be one of 2,3,5,7")
        return Scalar({d: ((-re_, -im_) if d % p == 0 else (re_, im_))
                       for d, (re_, im_) in self._terms.items()})

    def inv(self) -> "Scalar":
        """Exact inverse, rationalizing through the field conjugates."""
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        num = Scalar.rational(1)
        cur = self
        for p in PRIMES:
            conj = cur.conj_sqrt(p)
            num = num * conj
            cur = cur * conj
        # cur now lies in Q(i); clear i with the complex conjugate
        conj = cur.conj_i()
        num = num * conj
        cur = cur * conj
        q = cur.rational_value()
        return num * Scalar.rational(1 / q)

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
        if sf not in _RAD_SET or any(p not in (2, 3, 5, 7) for p in _prime_factors(sf) if sf > 1):
            return None
        if _has_foreign_prime(dn) or _has_foreign_prime(dd):
            return None
        return Scalar({sf: (Fraction(rn * r, rd * dd), Fraction(0))})

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


def _prime_factors(n: int) -> list[int]:
    out = []
    for p in PRIMES:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _has_foreign_prime(n: int) -> bool:
    for p in PRIMES:
        while n % p == 0:
            n //= p
    return n > 1


def _format_coef(coef: Fraction, unit: str, d: int) -> str:
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

ZERO = Scalar()
ONE = Scalar.rational(1)
I = Scalar.imag(1)


def rat(p: Union[int, Fraction], q: int = 1) -> Scalar:
    return Scalar.rational(Fraction(p, q))


def sqrt(d: int) -> Scalar:
    return Scalar.sqrt(d)


# -- literal grammar -------------------------------------------------------
#
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := ["-"] (number | "i" | "sqrt" "(" number ")" | "(" expr ")")
#
# Parentheses and unary minus signs together may nest MAX_NESTING deep.

_TOKEN = re.compile(r"\s*(\d+|sqrt|i|[()+\-*/])")
MAX_NESTING = 100


class ScalarParseError(ValueError):
    pass


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar literal grammar, e.g. '3/4*sqrt(3)', 'sqrt(2)/16', '-i'."""
    tokens = _tokenize(text)
    value, pos = _parse_expr(tokens, 0, 0)
    if pos != len(tokens):
        raise ScalarParseError(f"trailing input in scalar literal: {text!r}")
    return value


def _tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ScalarParseError(f"bad character in scalar literal: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_expr(tokens: list[str], pos: int, depth: int) -> tuple[Scalar, int]:
    value, pos = _parse_term(tokens, pos, depth)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_term(tokens, pos + 1, depth)
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _parse_term(tokens: list[str], pos: int, depth: int) -> tuple[Scalar, int]:
    value, pos = _parse_factor(tokens, pos, depth)
    while pos < len(tokens) and tokens[pos] in "*/":
        op = tokens[pos]
        rhs, pos = _parse_factor(tokens, pos + 1, depth)
        if op == "/" and rhs.is_zero():
            raise ScalarParseError("division by zero in scalar literal")
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_factor(tokens: list[str], pos: int, depth: int) -> tuple[Scalar, int]:
    if pos >= len(tokens):
        raise ScalarParseError("unexpected end of scalar literal")
    tok = tokens[pos]
    if tok in ("-", "(") and depth >= MAX_NESTING:
        raise ScalarParseError(
            f"scalar literal nested deeper than {MAX_NESTING} levels")
    if tok == "-":
        value, pos = _parse_factor(tokens, pos + 1, depth + 1)
        return -value, pos
    if tok == "i":
        return I, pos + 1
    if tok == "sqrt":
        if pos + 3 >= len(tokens) or tokens[pos + 1] != "(" or tokens[pos + 3] != ")":
            raise ScalarParseError("sqrt requires a parenthesized integer radicand")
        return Scalar.sqrt(int(tokens[pos + 2])), pos + 4
    if tok == "(":
        value, pos = _parse_expr(tokens, pos + 1, depth + 1)
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ScalarParseError("unbalanced parenthesis in scalar literal")
        return value, pos + 1
    if tok.isdigit():
        return Scalar.rational(int(tok)), pos + 1
    raise ScalarParseError(f"unexpected token {tok!r} in scalar literal")
