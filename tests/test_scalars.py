import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ltskit.scalars import (
    I, ONE, RADICANDS, Scalar, ScalarParseError, ZERO, parse_scalar, rat, sqrt,
)

coeffs = st.builds(Fraction, st.integers(min_value=-40, max_value=40),
                   st.integers(min_value=1, max_value=12))


@st.composite
def scalars(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        d = draw(st.sampled_from(RADICANDS))
        terms[d] = (draw(coeffs), draw(coeffs))
    return Scalar(terms)


def test_radicand_universe():
    assert len(RADICANDS) == 16
    assert all(210 % d == 0 for d in RADICANDS)


def test_basic_identities():
    assert I * I == rat(-1)
    assert sqrt(2) * sqrt(2) == rat(2)
    assert sqrt(2) * sqrt(3) == sqrt(6)
    assert sqrt(6) * sqrt(10) == rat(2) * sqrt(15)
    assert sqrt(8) == rat(2) * sqrt(2)
    assert (sqrt(3) / 2).is_real()
    assert not (I * sqrt(3)).is_real()


def test_inverse_examples():
    x = ONE + sqrt(2) + I * sqrt(21)
    assert x * x.inv() == ONE
    y = sqrt(7) / 14
    assert y.inv() == rat(2) * sqrt(7)


@given(scalars())
def test_add_neg_roundtrip(x):
    assert (x + (-x)).is_zero()
    assert x - x == ZERO


@given(scalars(), scalars(), scalars())
def test_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x * y == y * x


@given(scalars())
def test_inverse_property(x):
    if not x.is_zero():
        assert x * x.inv() == ONE


@given(scalars(), scalars())
def test_conjugations_are_homomorphisms(x, y):
    assert (x * y).conj_i() == x.conj_i() * y.conj_i()
    for p in (2, 3, 5, 7):
        assert (x * y).conj_sqrt(p) == x.conj_sqrt(p) * y.conj_sqrt(p)
        assert (x + y).conj_sqrt(p) == x.conj_sqrt(p) + y.conj_sqrt(p)


@given(scalars())
def test_float_embedding_consistency(x):
    approx = x.to_complex()
    exact_re = (x + x.conj_i()) / 2
    assert abs(float(exact_re) - approx.real) < 1e-6


def test_sqrt_if_expressible():
    assert rat(9, 4).sqrt_if_expressible() == rat(3, 2)
    assert rat(8).sqrt_if_expressible() == rat(2) * sqrt(2)
    assert rat(3, 28).sqrt_if_expressible() == sqrt(21) / 14
    assert rat(11).sqrt_if_expressible() is None
    assert rat(0).sqrt_if_expressible() == ZERO


@pytest.mark.parametrize("text,value", [
    ("0", ZERO),
    ("3/4*sqrt(3)", rat(3, 4) * sqrt(3)),
    ("sqrt(2)/16", sqrt(2) / 16),
    ("-i", -I),
    ("1/2 + i/2", rat(1, 2) + I / 2),
    ("2*sqrt(6)-sqrt(3)*i", rat(2) * sqrt(6) - sqrt(3) * I),
    ("-(1+i)/2", -(ONE + I) / 2),
])
def test_parse_examples(text, value):
    assert parse_scalar(text) == value


@given(scalars())
def test_format_parse_roundtrip(x):
    assert parse_scalar(str(x)) == x


def test_parse_rejects_garbage():
    for bad in ["sqrt 2", "1 +", "(1", "x", "sqrt(11)", "1/0", "i/(1 - 1)",
                "(" * 101 + "1" + ")" * 101, "-" * 101 + "1",
                "-(" * 51 + "1" + ")" * 51]:
        with pytest.raises((ScalarParseError, ValueError)):
            parse_scalar(bad)
    # nesting up to the limit still parses
    assert parse_scalar("(" * 100 + "1" + ")" * 100) == ONE
    assert parse_scalar("-" * 100 + "1") == ONE


def test_rational_value_guard():
    with pytest.raises(ValueError):
        sqrt(2).rational_value()
    assert rat(Fraction(5, 3)).rational_value() == Fraction(5, 3)
