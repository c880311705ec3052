import pytest
from hypothesis import given, settings, strategies as st

from ltskit.linalg import (
    Span, combine, coordinates, is_negative_definite, kernel, nonzeros,
    relations, solve, vec_is_zero,
)
from ltskit.scalars import ONE, ZERO, rat, sqrt

from generic_route import dense_echelon, dense_kernel, minors_negative_definite


def m(*rows):
    return [[rat(x) if isinstance(x, int) else x for x in row] for row in rows]


def terms(rows):
    return [nonzeros(r) for r in rows]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def test_rank_and_kernel():
    a = m((1, 2, 3), (2, 4, 6), (0, 1, 1))
    assert Span(a).dim == 2
    ker = kernel(terms(a), 3)
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
    # a member's coordinates in the reduced basis are its pivot entries
    assert combine([v[p] for p in s.pivots], s.basis()) == v
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
    for v in kernel(terms(a), 3):
        assert vec_is_zero(mat_vec(a, v))
    assert Span(a).dim + len(kernel(terms(a), 3)) == 3


vectors = st.lists(st.lists(small, min_size=3, max_size=3), min_size=1,
                   max_size=4)


@given(vectors)
def test_relations_annihilate(rows):
    vs = m(*rows)
    rels = relations(terms(vs))
    for c in rels:
        assert vec_is_zero(combine(c, vs))
    assert len(rels) == len(vs) - Span(vs).dim


@given(st.integers(min_value=1, max_value=4))
def test_relations_of_zero_vectors_are_the_identity(n):
    vs = [[(k, ZERO) for k in range(3)] for _ in range(n)]
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


def test_solve_rejects_unequal_lengths():
    # zip would drop the third equation and return [1, 2]
    with pytest.raises(ValueError):
        solve(m((1, 0), (0, 1), (1, 1)), [rat(1), rat(2)])
    with pytest.raises(ValueError):
        solve(m((1, 0)), [rat(1), rat(2)])
    with pytest.raises(ValueError):  # three coordinate equations, two targets
        coordinates([[rat(1), rat(0), rat(1)]], [rat(1), rat(2)])
    assert solve([], []) == []


# -- definiteness against Sylvester's criterion -------------------------------

s2, s3 = sqrt(2), sqrt(3)


@pytest.mark.parametrize("gram, verdict", [
    (m((-1, 0), (0, -2)), True),
    (m((-1, 0), (0, 0)), False),  # semidefinite
    (m((0, 0), (0, -1)), False),  # a zero first pivot
    (m((-1, 2), (2, -1)), False),  # indefinite
    (m((-2, 1), (1, 3)), False),
    ([[rat(-2), s2], [s2, rat(-1)]], False),  # determinant 0
    ([[rat(-3), s3], [s3, rat(-2)]], True),
    ([[-s2, ONE], [ONE, -s2]], True),
    ([[-s3, rat(2)], [rat(2), -s3]], False),  # determinant 3 - 4
    ([], True),
])
def test_negative_definite_verdicts(gram, verdict):
    assert is_negative_definite(gram) == verdict
    assert minors_negative_definite(gram) == verdict


gram_entries = st.sampled_from(
    [rat(x) for x in (0, 0, 1, -1, 2, -3)]
    + [rat(1, 2), s2, -s2, s3, s3 * rat(1, 2), s2 * s3, ONE + s2])


@st.composite
def grams(draw):
    """A^T D A for a random A and a diagonal D of signs: negative definite
    when D < 0 and A is invertible, else semidefinite or indefinite; or a
    random symmetric matrix."""
    n = draw(st.integers(1, 4))
    a = [[draw(gram_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    d = [draw(st.sampled_from([-1, -1, -1, 0, 1])) for _ in range(n)]
    return [[sum((a[k][i] * d[k] * a[k][j] for k in range(n)), ZERO)
             for j in range(n)] for i in range(n)]


@settings(deadline=None)
@given(grams())
def test_negative_definite_matches_leading_minors(gram):
    assert is_negative_definite(gram) == minors_negative_definite(gram)


# -- Span with row supports against a dense reference elimination ------------

N_COLS = 7
entries = st.one_of(
    st.just(ZERO), st.just(ZERO), st.just(ZERO),
    small.map(rat),
    st.builds(lambda a, d: rat(a) * sqrt(d), small, st.sampled_from((2, 3, 6))))
sparse_vectors = st.lists(entries, min_size=N_COLS, max_size=N_COLS)


def dense_reduce(rows, pivots, v):
    """(coefficients, remainder) of v by whole-row updates."""
    w = list(v)
    coeffs = []
    for row, pc in zip(rows, pivots):
        coeffs.append(w[pc])
        w = [a - coeffs[-1] * b for a, b in zip(w, row)]
    return coeffs, w


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
    for s in (span, from_terms):
        assert s.pivots == pivots
        assert s.basis_terms() == [nonzeros(r) for r in rows]
    # basis() writes fresh lists: changing one leaves the span as it was
    for row in span.basis():
        row[:] = [ONE] * N_COLS
    assert span.basis() == rows
    combos = [combine([rat(rnd.randint(-3, 3)) for _ in vectors], vectors)]
    for v in probes + combos:
        coeffs, w = dense_reduce(rows, pivots, v)
        inside = vec_is_zero(w)
        for s in (span, Span(shuffled), from_terms):
            assert s.contains(v) == inside
            assert s.contains_terms(nonzeros(v)) == inside
            if inside:
                assert [v[p] for p in s.pivots] == coeffs
                assert not rows or combine(coeffs, s.basis()) == v
            got = s.remainder(nonzeros(v))
            assert sorted((k, x) for k, x in got.items() if x) == nonzeros(w)


# -- kernel and relations on terms against the dense elimination --------------


def scrambled(v, rnd):
    """The terms of v in a random order, some of its zero entries written
    out."""
    out = [(k, x) for k, x in enumerate(v) if x or rnd.random() < 0.5]
    rnd.shuffle(out)
    return out


def transposed(vectors):
    return [[v[k] for v in vectors] for k in range(N_COLS)]


@settings(deadline=None)
@given(st.lists(sparse_vectors, max_size=6), st.randoms(),
       st.lists(sparse_vectors, min_size=1, max_size=3))
def test_kernel_and_relations_match_dense_elimination(vectors, rnd, others):
    n = len(vectors)
    # the vectors as the rows of an N_COLS-column matrix, then as columns
    assert kernel([scrambled(v, rnd) for v in vectors], N_COLS) \
        == dense_kernel(vectors, N_COLS)
    assert relations([scrambled(v, rnd) for v in vectors]) \
        == dense_kernel(transposed(vectors), n)
    # remainders modulo a span as they stand: a vector inside the span
    # leaves a dict of exact zeros
    inside = combine([rat(rnd.randint(-3, 3)) for _ in others], others)
    span = Span(others)
    rests = [span.remainder(nonzeros(v)) for v in [*vectors, inside]]
    dense = [[rest.get(k, ZERO) for k in range(N_COLS)] for rest in rests]
    assert relations([rest.items() for rest in rests]) \
        == dense_kernel(transposed(dense), n + 1)


def test_terms_without_a_nonzero_entry_leave_every_column_free():
    identity = [[ONE if i == j else ZERO for j in range(3)] for i in range(3)]
    assert relations([[], [], []]) == identity
    assert relations([[(4, ZERO)], [], [(0, ZERO), (4, ZERO)]]) == identity
    assert relations([{2: ZERO}.items()] * 3) == identity
    assert kernel([], 3) == identity
    assert kernel([[(1, ZERO)], [(0, ONE), (0, -ONE)]], 3) == identity
    # entries at a repeated index add up: the row (2, -2)
    assert kernel([[(0, ONE), (1, rat(-2)), (0, ONE)]], 2) == [[ONE, ONE]]
    assert relations([]) == [] and kernel([], 0) == []
