import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ltskit.scalars import (
    I, ONE, RADICANDS, ParseError, Scalar, ZERO, parse_scalar, rat,
    scalar_sign, sqrt,
)


def to_float(x: Scalar) -> float:
    """Float oracle for a real scalar, from its exact terms."""
    if not x.is_real():
        raise ValueError("complex scalar has no float view")
    return float(sum(float(re_) * math.sqrt(d) for d, re_, _ in x.terms()))


def to_complex(x: Scalar) -> complex:
    """Float oracle for any scalar, from its exact terms."""
    out = 0j
    for d, re_, im_ in x.terms():
        out += complex(float(re_), float(im_)) * math.sqrt(d)
    return out


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
    approx = to_complex(x)
    exact_re = (x + x.conj_i()) / 2
    assert abs(to_float(exact_re) - approx.real) < 1e-6


def test_sqrt_if_expressible():
    assert rat(9, 4).sqrt_if_expressible() == rat(3, 2)
    assert rat(8).sqrt_if_expressible() == rat(2) * sqrt(2)
    assert rat(3, 28).sqrt_if_expressible() == sqrt(21) / 14
    assert rat(11).sqrt_if_expressible() is None
    assert rat(0).sqrt_if_expressible() == ZERO


@pytest.mark.parametrize("q, root", [
    (Fraction(121), rat(11)),
    (Fraction(121, 4), rat(11, 2)),
    (Fraction(363), rat(11) * sqrt(3)),
    (Fraction(3, 484), sqrt(3) / 22),
])
def test_sqrt_of_foreign_square(q, root):
    # the square of a prime outside 2, 3, 5, 7 has its root in the field
    assert rat(q).sqrt_if_expressible() == root
    if q.denominator == 1:
        assert sqrt(q.numerator) == root


@pytest.mark.parametrize("n", [11, 1331])
def test_sqrt_of_foreign_prime_fails(n):
    assert rat(n).sqrt_if_expressible() is None
    with pytest.raises(ValueError):
        sqrt(n)


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
        with pytest.raises((ParseError, ValueError)):
            parse_scalar(bad)
    # nesting up to the limit still parses
    assert parse_scalar("(" * 100 + "1" + ")" * 100) == ONE
    assert parse_scalar("-" * 100 + "1") == ONE


def test_rational_value_guard():
    with pytest.raises(ValueError):
        sqrt(2).rational_value()
    assert rat(Fraction(5, 3)).rational_value() == Fraction(5, 3)


# -- fast paths against the general term loop --------------------------------

# Zero, rational, Q(i), single-radical and mixed values: every shape that a
# fast path in Scalar's arithmetic handles, and the general case beside them.
# Rationals also come as an integral Fraction given to the dict constructor
# (Scalar({1: (Fraction(4, 2), 0)})), and plain ints stand beside Scalars
# as operands (a combination coefficient, a structure constant).
nonzero_coeffs = coeffs.filter(bool)
shaped_scalars = st.one_of(
    st.just(ZERO),
    nonzero_coeffs.map(lambda q: Scalar({1: (q, 0)})),
    st.integers(min_value=-40, max_value=40).map(
        lambda k: Scalar({1: (Fraction(2 * k, 2), 0)})),
    st.builds(lambda a, b: Scalar({1: (a, b)}), coeffs, nonzero_coeffs),
    st.builds(lambda d, a, b: Scalar({d: (a, b)}),
              st.sampled_from(RADICANDS[1:]), nonzero_coeffs, coeffs),
    scalars())
plain_ints = st.integers(min_value=-100, max_value=100)
operands = st.one_of(shaped_scalars, plain_ints)
operand_pairs = st.tuples(operands, operands).filter(
    lambda p: any(isinstance(v, Scalar) for v in p))


def as_scalar(v):
    """A Scalar operand as it is, a plain int through the dict constructor."""
    return v if isinstance(v, Scalar) else Scalar({1: (v, 0)})


def reference_sum(x, y):
    out = {}
    for s in (as_scalar(x), as_scalar(y)):
        for d, re_, im_ in s.terms():
            r0, i0 = out.get(d, (Fraction(0), Fraction(0)))
            out[d] = (r0 + re_, i0 + im_)
    return Scalar(out)


def reference_product(x, y):
    out = {}
    for d1, a1, b1 in as_scalar(x).terms():
        for d2, a2, b2 in as_scalar(y).terms():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            r0, i0 = out.get(d, (Fraction(0), Fraction(0)))
            out[d] = (r0 + (a1 * a2 - b1 * b2) * g, i0 + (a1 * b2 + b1 * a2) * g)
    return Scalar(out)


def reference_inverse(x):
    num, cur = ONE, as_scalar(x)
    for p in (2, 3, 5, 7):
        conj = cur.conj_sqrt(p)
        num, cur = reference_product(num, conj), reference_product(cur, conj)
    conj = cur.conj_i()
    num, cur = reference_product(num, conj), reference_product(cur, conj)
    return reference_product(num, rat(1 / cur.rational_value()))


def state(x):
    return x._num, x._den, x._terms


def assert_canonical(x, reference):
    # equal values built by different routes have one state and one hash
    assert type(x) is Scalar
    assert x == reference and hash(x) == hash(reference)
    assert state(x) == state(reference)
    assert str(x) == str(reference)
    assert list(x.terms()) == list(reference.terms())
    for _, re_, im_ in x.terms():
        assert type(re_) is Fraction and type(im_) is Fraction
        assert re_ or im_


@settings(deadline=None, max_examples=400)
@given(operand_pairs)
def test_fast_paths_match_general_loop(pair):
    x, y = pair
    minus_y = reference_product(-1, y)
    assert_canonical(x + y, reference_sum(x, y))
    assert_canonical(x - y, reference_sum(x, minus_y))
    assert_canonical(x * y, reference_product(x, y))
    assert_canonical(-as_scalar(y), minus_y)
    if y:
        assert_canonical(as_scalar(y).inv(), reference_inverse(y))
        assert_canonical(x / y, reference_product(x, reference_inverse(y)))
    assert (x == y) == (state(as_scalar(x)) == state(as_scalar(y)))


def assert_stored_form(x):
    # a real rational is always the reduced int pair, with zero as 0/1 and
    # no radicand dict; any other value is the dict of int-when-integral,
    # else Fraction, coefficients, never a float; the public views are
    # Fractions whatever the form
    if x.is_rational():
        n, d = x._num, x._den
        assert x._terms is None and type(n) is int and type(d) is int
        assert d > 0 and math.gcd(n, d) == 1
    else:
        assert x._num is None and x._den is None
        assert x._terms and (set(x._terms) != {1} or x._terms[1][1])
        for re_, im_ in x._terms.values():
            assert re_ or im_
            for c in (re_, im_):
                assert type(c) is (int if c.denominator == 1 else Fraction), c
    for _, re_, im_ in x.terms():
        assert type(re_) is Fraction and type(im_) is Fraction
    if x.is_rational():
        assert type(x.rational_value()) is Fraction
    # the hash of the sorted (radicand, re, im) triples, whichever the form
    assert hash(x) == hash(tuple(x.terms()))


@settings(deadline=None, max_examples=300)
@given(operand_pairs)
def test_results_keep_the_stored_form(pair):
    x, y = pair
    results = [as_scalar(x), x + y, x - y, x * y, -as_scalar(y)]
    results += [as_scalar(x).conj_i()]
    results += [as_scalar(x).conj_sqrt(p) for p in (2, 3, 5, 7)]
    if y:
        results += [as_scalar(y).inv(), x / y]
    for z in results:
        assert_stored_form(z)


@pytest.mark.parametrize("q", [
    0, 1, -1, 2, 64, 65, -65, 10**30, Fraction(1, 2), Fraction(-4, 6),
    Fraction(10**20 + 1, 10**20),
])
def test_rational_form_from_every_route(q):
    # one state and one hash for a rational however it is built
    routes = [rat(q), Scalar.rational(q), Scalar({1: (q, 0)}),
              Scalar({1: (q, 0), 2: (0, 0)}),
              parse_scalar(str(rat(q))),
              (sqrt(2) * q) * sqrt(2) / 2, (rat(q) + sqrt(3)) - sqrt(3),
              (rat(q) + I) * 1 - I, rat(q) * I * (-I)]
    for x in routes:
        assert_stored_form(x)
        assert state(x) == state(routes[0]) and hash(x) == hash(routes[0])
        assert x == q and x.rational_value() == q
    assert hash(rat(q)) == hash(((1, Fraction(q), 0),) if q else ())


@pytest.mark.parametrize("make", [
    lambda: Scalar.rational(0.1),
    lambda: Scalar.rational(0.0),
    lambda: Scalar.imag(0.5),
    lambda: Scalar({1: (0.5, 0)}),
    lambda: Scalar({2: (0, 0.25)}),
    lambda: rat(0.25),
    lambda: rat(1) + 0.5,
    lambda: rat(1) * 0.5,
])
def test_float_coefficients_rejected(make):
    with pytest.raises(TypeError):
        make()


@settings(deadline=None)
@given(shaped_scalars)
def test_inverse_of_each_shape(x):
    if x:
        assert x * x.inv() == ONE


# -- exact sign ---------------------------------------------------------------


@pytest.mark.parametrize("x,sign", [
    (sqrt(2) - rat(1414213562373095, 10**15), 1),
    (rat(1414213562373096, 10**15) - sqrt(2), 1),
    (sqrt(2) - rat(14142135623730951, 10**16), -1),
    (sqrt(6) - sqrt(2) * sqrt(3) + rat(1, 10**20), 1),
    (sqrt(2) + sqrt(3) - rat(3146264369941972342, 10**18), 1),
    (sqrt(2) + sqrt(3) - rat(3146264369941972343, 10**18), -1),
    (rat(3) * sqrt(5) - rat(2) * sqrt(14) + rat(775110841048513682, 10**18), 1),
    (rat(3) * sqrt(5) - rat(2) * sqrt(14) + rat(775110841048513681, 10**18), -1),
    (ZERO, 0),
])
def test_exact_sign_near_zero(x, sign):
    assert abs(to_float(x)) < 1e-12
    assert scalar_sign(x) == sign


real_scalars = scalars().map(lambda x: (x + x.conj_i()) / 2)


@settings(deadline=None)
@given(real_scalars)
def test_exact_sign_agrees_with_float(x):
    f = to_float(x)
    if abs(f) > 1e-6:
        assert scalar_sign(x) == (1 if f > 0 else -1)
    assert scalar_sign(-x) == -scalar_sign(x)


def test_sign_of_complex_scalar_rejected():
    with pytest.raises(ValueError):
        scalar_sign(ONE + I)
