"""Complex simple Lie algebra from a root system, and its compact real form.

Structure constants N_{a,b} are fixed by the extraspecial-pair convention:
positive roots carry the enumeration order of the root system; for each
non-simple positive root g the minimal ordered pair (e,h) with e+h = g gets
N_{e,h} = p+1 > 0, and every other constant follows from the standard
relations

    N_{b,a} = -N_{a,b},      N_{-a,-b} = -N_{a,b},
    N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)   for a+b+c = 0,

together with the four-root relation applied to (e, h, -a, -b).

The compact real form has the ordered basis

    t_j = i h_j  (j over simple roots),   u_a = x_a - x_{-a},
    v_a = i(x_a + x_{-a})                 (a over positive roots),

on which all structure constants are rational.  They are tabulated sparsely
once per algebra, as ready Scalar coefficients for both orders of each basis
pair, and the Killing form is kept as sparse Scalar rows; bracket and killing
multiply by them directly.  Elements are plain Scalar coordinate vectors over
this basis.

An algebra is read only after __init__, so one instance can be shared by
every model over the same root system (spaces.SpaceModel does).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .linalg import Vec
from .roots import Root, RootSystem
from .scalars import I, Scalar, ZERO, rat


class SignSolveFailure(RuntimeError):
    pass


class AlgebraMismatch(ValueError):
    pass


def _neg(r: Root) -> Root:
    return tuple(-x for x in r)


def _add(r: Root, s: Root) -> Root:
    return tuple(a + b for a, b in zip(r, s))


def _sub(r: Root, s: Root) -> Root:
    return tuple(a - b for a, b in zip(r, s))


def is_negative_definite(gram: list[list[Fraction]]) -> bool:
    """Exact Cholesky-style definiteness check on a rational Gram matrix."""
    n = len(gram)
    m = [[-Fraction(x) for x in row] for row in gram]
    for i in range(n):
        if m[i][i] <= 0:
            return False
        for j in range(i + 1, n):
            if m[j][i]:
                fac = m[j][i] / m[i][i]
                for k in range(i, n):
                    m[j][k] -= fac * m[i][k]
    return True


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self.positives = rs.positives
        self.pos_index = {r: k for k, r in enumerate(self.positives)}
        self.roots = frozenset(rs.all_roots())
        self.dim = self.rank + 2 * len(self.positives)
        self._nsq = {r: rs.inner_rational(r, r) for r in self.roots}
        self._n_special = self._build_special_constants()
        self._coroot = {a: self._coroot_coeffs(a) for a in self.positives}
        self.table = self._build_compact_table()
        self._killing = self._build_killing_gram()

    # -- structure constants ----------------------------------------------

    def _string_down(self, beta: Root, alpha: Root) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        cur = _sub(beta, alpha)
        while cur in self.roots:
            p += 1
            cur = _sub(cur, alpha)
        return p

    def _build_special_constants(self) -> dict[tuple[Root, Root], int]:
        order = self.pos_index
        # group sums: for each non-simple positive g, its ordered pairs
        pairs_by_sum: dict[Root, list[tuple[Root, Root]]] = {}
        for a in self.positives:
            for b in self.positives:
                if order[a] < order[b]:
                    g = _add(a, b)
                    if g in self.roots:
                        pairs_by_sum.setdefault(g, []).append((a, b))
        n: dict[tuple[Root, Root], int] = {}
        for g in sorted(pairs_by_sum, key=lambda r: (sum(r), self.pos_index[r])):
            pairs = sorted(pairs_by_sum[g], key=lambda p: order[p[0]])
            e, h = pairs[0]  # extraspecial pair of g
            n[(e, h)] = self._string_down(h, e) + 1
            for a, b in pairs[1:]:
                val = self._special_from_four_root(a, b, e, h, g, n)
                num = Fraction(val)
                if num.denominator != 1 or num == 0:
                    raise SignSolveFailure(f"non-integer constant at {a}+{b}")
                n[(a, b)] = int(num)
        return n

    def _special_from_four_root(self, a, b, e, h, g, n) -> Fraction:
        # four-root relation on (e, h, -a, -b) with e+h = a+b = g
        total = Fraction(0)
        d1 = _sub(h, a)
        if d1 in self.roots:
            total += (Fraction(self._n_mixed(h, _neg(a), n))
                      * self._n_mixed(e, _neg(b), n) / self._nsq[d1])
        d2 = _sub(e, a)
        if d2 in self.roots:
            total += (Fraction(self._n_mixed(_neg(a), e, n))
                      * self._n_mixed(h, _neg(b), n) / self._nsq[d2])
        return self._nsq[g] * total / n[(e, h)]

    def _n_pos(self, a: Root, b: Root, n) -> int:
        if self.pos_index[a] < self.pos_index[b]:
            return n[(a, b)]
        return -n[(b, a)]

    def _n_mixed(self, x: Root, y: Root, n) -> Fraction:
        """N_{x,y} for any roots with x+y a root, from the special table."""
        xp, yp = sum(x) > 0, sum(y) > 0
        if xp and yp:
            return Fraction(self._n_pos(x, y, n))
        if not xp and not yp:
            return -self._n_mixed(_neg(x), _neg(y), n)
        if xp:  # y negative
            b = _neg(y)
            d = _sub(x, b)
            if sum(d) > 0:
                # zero-sum triple (x, -b, -d) gives
                # N_{x,-b} = (d,d)/(x,x) * N_{-b,-d} = -(d,d)/(x,x) * N_{b,d}
                return -self._nsq[d] / self._nsq[x] * self._n_pos(b, d, n)
            # e = b - x positive; chaining the same identities gives
            # N_{x,-b} = (e,e)/(b,b) * N_{e,x}
            e = _neg(d)
            return self._nsq[e] / self._nsq[b] * self._n_pos(e, x, n)
        return -self._n_mixed(y, x, n)

    def n_constant(self, x: Root, y: Root) -> int:
        """N_{x,y} for roots with x+y a root."""
        if _add(x, y) not in self.roots:
            raise ValueError("x+y is not a root")
        val = self._n_mixed(x, y, self._n_special)
        assert val.denominator == 1
        return int(val)

    def _coroot_coeffs(self, a: Root) -> tuple[Fraction, ...]:
        # a_vee = sum_i m_i (a_i,a_i)/(a,a) * a_i_vee
        gg = self._nsq[a]
        out = tuple(Fraction(m) * self.rs.gram[i][i] / gg
                    for i, m in enumerate(a))
        assert all(c.denominator == 1 for c in out)
        return out

    # -- compact basis -----------------------------------------------------

    def basis_label(self, k: int):
        if k < self.rank:
            return ("t", k)
        k -= self.rank
        a = self.positives[k // 2]
        return ("u", a) if k % 2 == 0 else ("v", a)

    def t_index(self, j: int) -> int:
        return j

    def u_index(self, a: Root) -> int:
        return self.rank + 2 * self.pos_index[a]

    def v_index(self, a: Root) -> int:
        return self.rank + 2 * self.pos_index[a] + 1

    def _complex_expand(self, k: int) -> dict:
        """Compact basis vector as {('h', j) | ('x', root): Scalar}."""
        kind, a = self.basis_label(k)
        if kind == "t":
            return {("h", a): I}
        if kind == "u":
            return {("x", a): rat(1), ("x", _neg(a)): rat(-1)}
        return {("x", a): I, ("x", _neg(a)): I}

    def _complex_bracket(self, ex: dict, ey: dict) -> dict:
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
                    acc(ky, c * rat(self._pairing(ky[1], kx[1])))
                elif kx[0] == "x" and ky[0] == "h":
                    acc(kx, -c * rat(self._pairing(kx[1], ky[1])))
                else:
                    a, b = kx[1], ky[1]
                    s = _add(a, b)
                    if all(x == 0 for x in s):
                        co = self._coroot.get(a)
                        sign = 1
                        if co is None:
                            co = self._coroot[_neg(a)]
                            sign = -1
                        for j, m in enumerate(co):
                            if m:
                                acc(("h", j), c * rat(sign * m))
                    elif s in self.roots:
                        acc(("x", s), c * rat(self.n_constant(a, b)))
        return {k: v for k, v in out.items() if not v.is_zero()}

    def _pairing(self, beta: Root, i: int) -> int:
        return sum(b * self.rs.cartan[j][i] for j, b in enumerate(beta))

    def _complex_to_compact(self, e: dict) -> dict[int, Fraction]:
        out: dict[int, Scalar] = {}

        def acc(idx, val):
            out[idx] = out.get(idx, ZERO) + val

        for key, c in e.items():
            if key[0] == "h":
                acc(self.t_index(key[1]), c * (-I))
            else:
                g = key[1]
                if sum(g) > 0:
                    acc(self.u_index(g), c * rat(Fraction(1, 2)))
                    acc(self.v_index(g), c * (-I) * rat(Fraction(1, 2)))
                else:
                    gp = _neg(g)
                    acc(self.u_index(gp), c * rat(Fraction(-1, 2)))
                    acc(self.v_index(gp), c * (-I) * rat(Fraction(1, 2)))
        result: dict[int, Fraction] = {}
        for idx, val in out.items():
            if val.is_zero():
                continue
            result[idx] = val.rational_value()  # real form: must be rational
        return result

    def _build_compact_table(self) -> list[dict[int, tuple[tuple[int, Scalar], ...]]]:
        expands = [self._complex_expand(k) for k in range(self.dim)]
        table: list[dict[int, tuple[tuple[int, Scalar], ...]]] = [
            {} for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                res = self._complex_to_compact(
                    self._complex_bracket(expands[i], expands[j]))
                if res:
                    terms = sorted(res.items())
                    table[i][j] = tuple((k, rat(c)) for k, c in terms)
                    table[j][i] = tuple((k, rat(-c)) for k, c in terms)
        return table

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraMismatch("element size does not match the algebra")
        out = [ZERO] * self.dim
        ys = [(j, c) for j, c in enumerate(y) if c]
        for i, ci in enumerate(x):
            if not ci:
                continue
            row = self.table[i]
            for j, cj in ys:
                terms = row.get(j)
                if terms:
                    c = ci * cj
                    for k, f in terms:
                        out[k] = out[k] + c * f
        return out

    # -- Killing form ------------------------------------------------------

    def _build_killing_gram(self) -> list[list[tuple[int, Scalar]]]:
        """Sparse rows of the Gram matrix: (j, kappa(b_i, b_j)) for nonzero
        entries.  With ad_i[k] = [b_i, b_k], kappa(b_i, b_j) is the trace of
        ad_i ad_j, summed over the table's terms."""
        dim, ad = self.dim, self.table
        gram: list[list[tuple[int, Scalar]]] = [[] for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                tr = ZERO
                for k, ent in ad[j].items():
                    for l, c in ent:
                        for m, d in ad[i].get(l, ()):
                            if m == k:
                                tr = tr + c * d
                if tr:
                    gram[i].append((j, tr))
                    if j != i:
                        gram[j].append((i, tr))
        for row in gram:
            row.sort()
        return gram

    def killing_gram(self) -> list[list[Fraction]]:
        gram = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(self._killing):
            for j, c in row:
                gram[i][j] = c.rational_value()
        return gram

    def killing(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraMismatch("element size does not match the algebra")
        total = ZERO
        for i, ci in enumerate(x):
            if ci:
                for j, k in self._killing[i]:
                    if y[j]:
                        total = total + ci * y[j] * k
        return total

    # -- element helpers ---------------------------------------------------

    def zero(self) -> Vec:
        return [ZERO] * self.dim

    def basis_vec(self, k: int) -> Vec:
        v = self.zero()
        v[k] = rat(1)
        return v

    def u_vec(self, a: Root, c: Scalar | None = None) -> Vec:
        v = self.zero()
        v[self.u_index(a)] = c if c is not None else rat(1)
        return v

    def v_vec(self, a: Root, c: Scalar | None = None) -> Vec:
        v = self.zero()
        v[self.v_index(a)] = c if c is not None else rat(1)
        return v

    def t_vec(self, j: int, c: Scalar | None = None) -> Vec:
        v = self.zero()
        v[j] = c if c is not None else rat(1)
        return v

    def check_jacobi_exhaustive(self) -> int:
        """Number of basis triples violating Jacobi (expected 0).

        Only distinct i < j < k triples are checked; all other triples
        vanish identically by bilinearity and antisymmetry.
        """
        dim, ad = self.dim, self.table
        bad = 0
        for i in range(dim):
            adi = ad[i]
            for j in range(i + 1, dim):
                adj = ad[j]
                bij = adi.get(j, ())
                for k in range(j + 1, dim):
                    acc: dict[int, Scalar] = {}
                    for l, c in bij:  # [[i,j],k] = -[k,[i,j]]
                        for m, d in ad[k].get(l, ()):
                            acc[m] = acc.get(m, ZERO) - c * d
                    for l, c in adj.get(k, ()):  # [[j,k],i] = -[i,[j,k]]
                        for m, d in adi.get(l, ()):
                            acc[m] = acc.get(m, ZERO) - c * d
                    for l, c in adi.get(k, ()):  # [[k,i],j] = [j,[i,k]]
                        for m, d in adj.get(l, ()):
                            acc[m] = acc.get(m, ZERO) + c * d
                    if any(acc.values()):
                        bad += 1
        return bad
