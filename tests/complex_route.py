"""Reference construction of the compact structure table and of sigma through
the complex Chevalley basis.

Each compact basis vector is expanded into h_j and x_a, bracketed there with
Scalar products that carry I, and mapped back.  It is the long way round to
the closed forms in ltskit.chevalley and ltskit.spaces._sigma_columns, kept
only so the tests can compare the two constructions exactly.
"""

from fractions import Fraction

from compact_basis import basis_label
from ltskit.chevalley import _add, _neg
from ltskit.roots import pairing
from ltskit.scalars import I, ZERO, rat


def complex_expand(alg, k: int) -> dict:
    """Compact basis vector as {('h', j) | ('x', root): Scalar}."""
    kind, a = basis_label(alg, k)
    if kind == "t":
        return {("h", a): I}
    if kind == "u":
        return {("x", a): rat(1), ("x", _neg(a)): rat(-1)}
    return {("x", a): I, ("x", _neg(a)): I}


def complex_bracket(alg, ex: dict, ey: dict) -> dict:
    out: dict = {}

    def acc(key, val):
        if key in out:
            out[key] = out[key] + val
        else:
            out[key] = val

    for kx, cx in ex.items():
        for ky, cy in ey.items():
            c = cx * cy
            if kx[0] == "h" and ky[0] == "h":
                continue
            if kx[0] == "h" and ky[0] == "x":
                acc(ky, c * rat(pairing(ky[1], kx[1], alg.rs.cartan)))
            elif kx[0] == "x" and ky[0] == "h":
                acc(kx, -c * rat(pairing(kx[1], ky[1], alg.rs.cartan)))
            else:
                a, b = kx[1], ky[1]
                s = _add(a, b)
                if all(x == 0 for x in s):
                    co = alg._coroot.get(a)
                    sign = 1
                    if co is None:
                        co = alg._coroot[_neg(a)]
                        sign = -1
                    for j, m in enumerate(co):
                        if m:
                            acc(("h", j), c * rat(sign * m))
                elif s in alg.roots:
                    acc(("x", s), c * rat(alg.n_constant(a, b)))
    return {k: v for k, v in out.items() if not v.is_zero()}


def complex_to_compact(alg, e: dict) -> dict[int, Fraction]:
    out: dict = {}

    def acc(idx, val):
        out[idx] = out.get(idx, ZERO) + val

    for key, c in e.items():
        if key[0] == "h":
            acc(key[1], c * (-I))  # t_j has index j
        else:
            g = key[1]
            if sum(g) > 0:
                acc(alg.u_index(g), c * rat(Fraction(1, 2)))
                acc(alg.v_index(g), c * (-I) * rat(Fraction(1, 2)))
            else:
                gp = _neg(g)
                acc(alg.u_index(gp), c * rat(Fraction(-1, 2)))
                acc(alg.v_index(gp), c * (-I) * rat(Fraction(1, 2)))
    result: dict[int, Fraction] = {}
    for idx, val in out.items():
        if val.is_zero():
            continue
        result[idx] = val.rational_value()  # real form: must be rational
    return result


def compact_table(alg) -> list[dict]:
    """alg.table built by bracketing the complex expansions of each pair."""
    expands = [complex_expand(alg, k) for k in range(alg.dim)]
    table: list[dict] = [{} for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            res = complex_to_compact(
                alg, complex_bracket(alg, expands[i], expands[j]))
            if res:
                terms = sorted(res.items())
                table[i][j] = tuple((k, rat(c)) for k, c in terms)
                table[j][i] = tuple((k, rat(-c)) for k, c in terms)
    return table


def involution_matrix(alg, sig, phases) -> list[list[Fraction]]:
    """sigma on the compact basis, from sigma(h_j) = h_{sigma(alpha_j)} and
    sigma(x_a) = phases[a] x_{sigma(a)} (columns = images), for Scalar
    phases on every root; the lift's signs e_a enter as rat(e_a)."""
    cols = []
    for k in range(alg.dim):
        out: dict = {}
        for key, coef in complex_expand(alg, k).items():
            if key[0] == "h":
                img = sig(tuple(int(i == key[1]) for i in range(alg.rank)))
                if sum(img) > 0:
                    co, sign = alg._coroot[img], 1
                else:
                    co, sign = alg._coroot[_neg(img)], -1
                for j, m in enumerate(co):
                    if m:
                        kk = ("h", j)
                        out[kk] = out.get(kk, ZERO) + coef * rat(sign * m)
            else:
                a = key[1]
                kk = ("x", sig(a))
                out[kk] = out.get(kk, ZERO) + coef * phases[a]
        cols.append(complex_to_compact(alg, out))
    mat = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
    for k, col in enumerate(cols):
        for i, val in col.items():
            mat[i][k] = val
    return mat
