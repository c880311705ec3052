import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ltskit.chevalley import AlgebraMismatch, ChevalleyAlgebra, is_negative_definite
from ltskit.linalg import nonzeros, vec_add, vec_is_zero, vec_scale
from ltskit.roots import RootSystem
from ltskit.scalars import I, ZERO, rat, sqrt

from compact_basis import basis_label, t_vec, u_vec, v_vec
from complex_route import compact_table
from generic_route import dense_bracket, n_mixed, reference_n_table, \
    special_constants, string_down, trace_killing

_cache = {}


def alg(name):
    if name not in _cache:
        _cache[name] = ChevalleyAlgebra(RootSystem.of_type(name))
    return _cache[name]


def test_dims():
    assert alg("A2").dim == 8
    assert alg("G2").dim == 14
    assert alg("F4").dim == 52


def test_antisymmetry_of_n():
    a = alg("A2")
    r1, r2 = (1, 0), (0, 1)
    assert a.n_constant(r1, r2) == -a.n_constant(r2, r1)
    assert abs(a.n_constant(r1, r2)) == 1


def test_g2_has_constant_three():
    a = alg("G2")
    vals = set()
    for x in a.roots:
        for y in a.roots:
            s = tuple(p + q for p, q in zip(x, y))
            if s in a.roots:
                vals.add(abs(a.n_constant(x, y)))
    assert 3 in vals  # root strings of length 4 exist in G2


def test_n_magnitude_is_string_length():
    a = alg("G2")
    for x in a.positives:
        for y in a.positives:
            s = tuple(p + q for p, q in zip(x, y))
            if s in a.roots and x != y:
                assert abs(a.n_constant(x, y)) == string_down(a, y, x) + 1


@pytest.mark.parametrize("name, count", [
    ("A2", 12), ("G2", 60), ("F4", 816), ("E6", 1440)])
def test_n_table_matches_mixed_rule(name, count):
    # the one-pass table holds every ordered pair with x+y a root, each
    # entry the two-stage reference's integer and the value of its Fraction
    # chain, and its positive pairs come first in the reference's order
    a = alg(name)
    pairs = [(x, y) for x in a.roots for y in a.roots
             if tuple(p + q for p, q in zip(x, y)) in a.roots]
    assert len(pairs) == count == len(a._n_table)
    ref, special = reference_n_table(a), special_constants(a)
    assert a._n_table == ref
    for x, y in pairs:
        n = a.n_constant(x, y)
        assert type(n) is int
        assert n == ref[(x, y)] == n_mixed(a, special, x, y), (x, y)

    def positive_pairs(table):
        return [(x, y) for x, y in table if sum(x) > 0 < sum(y)]
    first = positive_pairs(ref)
    assert list(a._n_table)[:len(first)] == first == positive_pairs(a._n_table)
    for x in a.positives[:3]:
        neg = tuple(-c for c in x)
        for y in (x, neg):  # 2x and 0 are not roots
            with pytest.raises(ValueError, match="not a root"):
                a.n_constant(x, y)


@pytest.mark.parametrize("name", ["A2", "G2", "F4", "E6"])
def test_table_matches_complex_route(name):
    # every entry, in both orders, equals the bracket of the complex
    # expansions mapped back to the compact basis
    a = alg(name)
    ref = compact_table(a)
    for i in range(a.dim):
        assert a.table[i] == ref[i], basis_label(a, i)


@pytest.mark.parametrize("name", ["A2", "G2", "F4", "E6"])
def test_killing_matches_trace(name):
    # the closed form, and killing_gram's own trace, equal the trace of
    # ad_i ad_j over the table, entry for entry
    a = alg(name)
    ref = trace_killing(a)
    assert a._killing == ref
    dense = [[Fraction(0)] * a.dim for _ in range(a.dim)]
    for i, row in enumerate(ref):
        for j, c in row:
            dense[i][j] = c.rational_value()
    gram = a.killing_gram()
    assert gram == dense
    assert a.killing_mismatch(gram) is None
    dense[1][0] += 1
    assert a.killing_mismatch(dense) == (1, 0)


@pytest.mark.parametrize("name", ["A2", "G2", "F4", "E6"])
def test_root_norms(name):
    a = alg(name)
    g = a.rs.gram
    for r in a.roots:
        ref = sum(Fraction(r[i]) * g[i][j] * Fraction(r[j])
                  for i in range(a.rank) for j in range(a.rank))
        assert type(a._nsq[r]) is Fraction
        assert a._nsq[r] == ref, r


def test_jacobi_exhaustive_small():
    assert alg("A2").check_jacobi_exhaustive() == 0
    assert alg("G2").check_jacobi_exhaustive() == 0


def test_cartan_bracket_convention():
    a = alg("G2")
    for j in range(a.rank):
        for r in a.positives:
            pairing = sum(b * a.rs.cartan[k][j] for k, b in enumerate(r))
            got = a.bracket(t_vec(a, j), u_vec(a, r))
            assert got == v_vec(a, r, rat(pairing))
            got2 = a.bracket(t_vec(a, j), v_vec(a, r))
            assert got2 == u_vec(a, r, rat(-pairing))


def test_bracket_mismatch_guard():
    a = alg("A2")
    with pytest.raises(AlgebraMismatch):
        a.bracket(a.zero(), alg("G2").zero())
    with pytest.raises(AlgebraMismatch):
        a.killing(a.zero()[:3], a.zero())


coords = st.lists(st.integers(min_value=-3, max_value=3), min_size=8, max_size=8)


@settings(max_examples=25, deadline=None)
@given(coords, coords)
def test_bracket_antisymmetric(xs, ys):
    a = alg("A2")
    x = [rat(c) for c in xs]
    y = [rat(c) for c in ys]
    assert vec_is_zero(vec_add(a.bracket(x, y), a.bracket(y, x)))
    assert vec_is_zero(a.bracket(x, x))


@settings(max_examples=15, deadline=None)
@given(coords, coords, coords)
def test_killing_ad_invariance(xs, ys, zs):
    a = alg("A2")
    x = [rat(c) for c in xs]
    y = [rat(c) for c in ys]
    z = [rat(c) for c in zs]
    lhs = a.killing(a.bracket(z, x), y)
    rhs = a.killing(x, a.bracket(z, y))
    assert (lhs + rhs).is_zero()


def test_killing_negative_definite():
    for name in ("A2", "G2", "F4"):
        a = alg(name)
        g = a.killing_gram()
        assert all(g[i][i] < 0 for i in range(a.dim))
        assert is_negative_definite(g)


def test_killing_orthogonality_cartan_vs_roots():
    a = alg("G2")
    for j in range(a.rank):
        for r in a.positives:
            assert a.killing(t_vec(a, j), u_vec(a, r)).is_zero()
            assert a.killing(t_vec(a, j), v_vec(a, r)).is_zero()


def test_radical_coefficients_allowed():
    a = alg("A2")
    x = u_vec(a, (1, 0), sqrt(2))
    y = v_vec(a, (1, 0), sqrt(2))
    out = a.bracket(x, y)
    # [u, v] for the same root is 2*h-ish: nonzero Cartan part, scaled by 2
    assert not vec_is_zero(out)
    assert out == vec_scale(rat(2), a.bracket(u_vec(a, (1, 0)), v_vec(a, (1, 0))))


# entries of seeded test vectors: mostly zeros, as in the models' vectors,
# with rational, radical and complex ones
ENTRIES = [ZERO] * 6 + [rat(1), rat(-2), rat(Fraction(3, 4)), sqrt(2),
                        -sqrt(3), I, rat(1) + sqrt(3), I * sqrt(2)]


def seeded_vector(a, rng, density):
    return [rng.choice(ENTRIES) if rng.random() < density else ZERO
            for _ in range(a.dim)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["G2", "E6"]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.05, 0.3, 1.0]))
def test_bracket_terms_match_dense_scan(name, seed, density):
    a = alg(name)
    rng = random.Random(seed)
    x = seeded_vector(a, rng, density)
    y = seeded_vector(a, rng, rng.choice([0.05, 0.3, 1.0]))
    want = dense_bracket(a, x, y)
    # the terms form of the dense result: increasing, with no zero entries
    assert a.bracket_terms(nonzeros(x), nonzeros(y)) == nonzeros(want)
    assert a.bracket(x, y) == want
