from hypothesis import given, settings, strategies as st

from ltskit.roots import RootSystem, enumerate_positive_roots

# conformance oracle: published coordinate table for the 36 positive roots
# of e6 in the simple-root numbering used throughout this package
E6_TABLE = [
    (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0), (0, 0, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1), (1, 0, 1, 1, 0, 0),
    (0, 1, 1, 1, 0, 0), (0, 1, 0, 1, 1, 0), (0, 0, 1, 1, 1, 0),
    (0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0),
    (0, 1, 1, 1, 1, 0), (0, 1, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 0), (1, 0, 1, 1, 1, 1), (0, 1, 1, 1, 1, 1),
    (0, 1, 1, 2, 1, 0), (1, 1, 1, 1, 1, 1), (1, 1, 1, 2, 1, 0),
    (0, 1, 1, 2, 1, 1), (1, 1, 1, 2, 1, 1), (1, 1, 2, 2, 1, 0),
    (0, 1, 1, 2, 2, 1), (1, 1, 1, 2, 2, 1), (1, 1, 2, 2, 1, 1),
    (1, 1, 2, 2, 2, 1), (1, 1, 2, 3, 2, 1), (1, 2, 2, 3, 2, 1),
]


def test_e6_full_table():
    rs = RootSystem.of_type("E6")
    assert rs.positives == E6_TABLE


def test_counts():
    for name, count in [("A2", 3), ("G2", 6), ("F4", 24), ("E6", 36)]:
        assert len(RootSystem.of_type(name).positives) == count


def test_g2_coordinates():
    rs = RootSystem.of_type("G2")
    assert rs.positives == [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    # short/long squared-length ratio 1:3
    assert rs.gram[0][0] * 3 == rs.gram[1][1]
    assert sum(r * s * rs.gram[i][j] for i, r in enumerate((3, 2))
               for j, s in enumerate((3, 2))) == rs.gram[1][1]


def test_a1():
    assert enumerate_positive_roots([[2]]) == [(1,)]


def test_gram_matches_cartan():
    for name in ("A2", "G2", "F4", "E6"):
        rs = RootSystem.of_type(name)
        for i in range(rs.rank):
            for j in range(rs.rank):
                assert 2 * rs.gram[i][j] / rs.gram[j][j] == rs.cartan[i][j]


def simple_reflection(rs, i, b):
    """s_i(b) = b - <b, alpha_i^vee> alpha_i, the pairing read from the
    Cartan matrix."""
    p = sum(bj * rs.cartan[j][i] for j, bj in enumerate(b))
    return tuple(x - p if j == i else x for j, x in enumerate(b))


def test_reflection_involution_and_negation():
    rs = RootSystem.of_type("G2")
    for i, a in enumerate(rs.positives[:rs.rank]):
        assert simple_reflection(rs, i, a) == tuple(-x for x in a)
        for b in rs.positives:
            assert simple_reflection(rs, i, simple_reflection(rs, i, b)) == b


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "G2", "F4"]))
def test_weyl_permutes_roots(name):
    # the simple reflections generate the Weyl group
    rs = RootSystem.of_type(name)
    allr = set(rs.all_roots())
    for i in range(rs.rank):
        assert {simple_reflection(rs, i, b) for b in allr} == allr


def test_root_strings_unbroken():
    rs = RootSystem.of_type("G2")
    allr = set(rs.all_roots())
    for a in allr:
        for b in allr:
            if b == a or b == tuple(-x for x in a):
                continue
            ks = [k for k in range(-6, 7)
                  if tuple(x + k * y for x, y in zip(b, a)) in allr]
            assert ks == list(range(min(ks), max(ks) + 1))


def test_e6_heights_monotone():
    rs = RootSystem.of_type("E6")
    hts = [sum(r) for r in rs.positives]
    assert hts == sorted(hts)
    assert hts[-1] == 11
