"""The compact basis of a ChevalleyAlgebra, by kind and root: the labels
t_j, u_a, v_a of its coordinates and the vectors c t_j, c u_a, c v_a.  The
package indexes the basis directly (u_index, v_index, basis_vec); the tests
state brackets and forms in these terms."""

from ltskit.scalars import ONE


def basis_label(alg, k: int):
    """("t", j), ("u", a) or ("v", a) for basis index k."""
    if k < alg.rank:
        return ("t", k)
    k -= alg.rank
    a = alg.positives[k // 2]
    return ("u", a) if k % 2 == 0 else ("v", a)


def _unit(alg, k: int, c):
    v = alg.zero()
    v[k] = c
    return v


def t_vec(alg, j: int, c=ONE):
    return _unit(alg, j, c)


def u_vec(alg, a, c=ONE):
    return _unit(alg, alg.u_index(a), c)


def v_vec(alg, a, c=ONE):
    return _unit(alg, alg.v_index(a), c)
