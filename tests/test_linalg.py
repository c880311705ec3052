from hypothesis import given, settings, strategies as st

from ltskit.linalg import (
    Span, combine, coordinates, kernel, nonzeros, relations, solve,
    vec_is_zero,
)
from ltskit.scalars import ONE, ZERO, rat, sqrt


def m(*rows):
    return [[rat(x) if isinstance(x, int) else x for x in row] for row in rows]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def test_rank_and_kernel():
    a = m((1, 2, 3), (2, 4, 6), (0, 1, 1))
    assert Span(a).dim == 2
    ker = kernel(a)
    assert len(ker) == 1
    for row in a:
        assert sum((x * y for x, y in zip(row, ker[0])), ZERO).is_zero()


def test_solve_consistency():
    a = m((1, 1), (1, -1))
    x = solve(a, [rat(3), rat(1)])
    assert x == [rat(2), rat(1)]
    assert solve(m((1, 1), (2, 2)), [rat(1), rat(3)]) is None


def test_radical_pivoting():
    a = [[sqrt(2), ONE], [ONE, sqrt(2)]]
    assert Span(a).dim == 2
    b = [[sqrt(2), ONE], [rat(2), sqrt(2)]]
    assert Span(b).dim == 1


def test_span_membership_and_coords():
    s = Span()
    assert s.add([rat(1), rat(0), rat(1)])
    assert s.add([rat(0), sqrt(3), rat(0)])
    assert not s.add([rat(2), sqrt(3), rat(2)])
    assert s.dim == 2
    v = [rat(5), -sqrt(3), rat(5)]
    assert s.contains(v)
    c = s.coords(v)
    assert c is not None
    recon = [ZERO, ZERO, ZERO]
    for coef, row in zip(c, s.basis()):
        recon = [a + coef * b for a, b in zip(recon, row)]
    assert recon == v
    assert not s.contains([rat(1), rat(0), rat(0)])


def test_span_comparison():
    s = Span(m((1, 0), (0, 1)))
    t = Span(m((1, 1), (1, -1)))
    assert s == t
    u = Span(m((1, 1)))
    assert u <= s
    assert not s <= u


small = st.integers(min_value=-5, max_value=5)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4))
def test_kernel_annihilates(rows):
    a = m(*rows)
    for v in kernel(a):
        assert vec_is_zero(mat_vec(a, v))
    assert Span(a).dim + len(kernel(a)) == 3


vectors = st.lists(st.lists(small, min_size=3, max_size=3), min_size=1,
                   max_size=4)


@given(vectors)
def test_relations_annihilate(rows):
    vs = m(*rows)
    rels = relations(vs)
    for c in rels:
        assert vec_is_zero(combine(c, vs))
    assert len(rels) == len(vs) - Span(vs).dim


@given(st.integers(min_value=1, max_value=4))
def test_relations_of_zero_vectors_are_the_identity(n):
    vs = [[ZERO] * 3 for _ in range(n)]
    assert relations(vs) == [[ONE if i == j else ZERO for j in range(n)]
                             for i in range(n)]


@given(vectors, st.lists(small, min_size=4, max_size=4))
def test_coordinates_round_trip(rows, xs):
    vs = m(*rows)
    v = combine([rat(x) for x in xs], vs)
    c = coordinates(vs, v)
    assert c is not None
    assert combine(c, vs) == v
    span = Span(vs)
    for k in range(3):
        e = [ONE if i == k else ZERO for i in range(3)]
        if not span.contains(e):
            assert coordinates(vs, e) is None


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(small, min_size=3, max_size=3))
def test_solve_verifies(rows, xs):
    a = m(*rows)
    target = mat_vec(a, [rat(x) for x in xs])
    x = solve(a, target)
    assert x is not None
    assert mat_vec(a, x) == target


# -- Span with row supports against a dense reference elimination ------------

N_COLS = 7
entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    small.map(rat),
    st.builds(lambda a, d: rat(a) * sqrt(d), small, st.sampled_from((2, 3, 6))))
sparse_vectors = st.lists(entries, min_size=N_COLS, max_size=N_COLS)


def dense_echelon(vectors):
    """Reduced row echelon form by whole-row updates: (rows, pivots)."""
    rows, pivots = [], []
    for v in vectors:
        w = list(v)
        for row, pc in zip(rows, pivots):
            w = [a - w[pc] * b for a, b in zip(w, row)]
        nonzero = [k for k, x in enumerate(w) if not x.is_zero()]
        if not nonzero:
            continue
        c = nonzero[0]
        w = [x / w[c] for x in w]
        rows = [[a - row[c] * b for a, b in zip(row, w)] for row in rows]
        pos = sum(1 for p in pivots if p < c)
        rows.insert(pos, w)
        pivots.insert(pos, c)
    return rows, pivots


def dense_reduce(rows, pivots, v):
    """(coefficients, remainder) of v by whole-row updates."""
    w = list(v)
    coeffs = []
    for row, pc in zip(rows, pivots):
        coeffs.append(w[pc])
        w = [a - coeffs[-1] * b for a, b in zip(w, row)]
    return coeffs, w


def dense_coords(rows, pivots, v):
    coeffs, w = dense_reduce(rows, pivots, v)
    return coeffs if vec_is_zero(w) else None


@settings(deadline=None)
@given(st.lists(sparse_vectors, min_size=1, max_size=6), st.randoms(),
       st.lists(sparse_vectors, min_size=1, max_size=3))
def test_span_matches_dense_elimination(vectors, rnd, probes):
    shuffled = list(vectors)
    rnd.shuffle(shuffled)
    span = Span(vectors)
    rows, pivots = dense_echelon(vectors)
    assert span.basis() == rows
    assert Span(shuffled).basis() == rows
    # the same span fed terms only, in the shuffled order
    from_terms = Span(width=N_COLS)
    for v in shuffled:
        from_terms.add_terms(nonzeros(v))
    assert from_terms.basis() == rows
    combos = [combine([rat(rnd.randint(-3, 3)) for _ in vectors], vectors)]
    for v in probes + combos:
        want = dense_coords(rows, pivots, v)
        rest = nonzeros(dense_reduce(rows, pivots, v)[1])
        for s in (span, Span(shuffled), from_terms):
            assert s.contains(v) == (want is not None)
            assert s.coords(v) == want
            assert s.contains_terms(nonzeros(v)) == (want is not None)
            assert s.coords_terms(nonzeros(v)) == want
            got = s.remainder(nonzeros(v))
            assert sorted((k, x) for k, x in got.items() if x) == rest
