"""Complex simple Lie algebra from a root system, and its compact real form.

Structure constants N_{a,b} are fixed by the extraspecial-pair convention:
positive roots carry the enumeration order of the root system; for each
non-simple positive root g the minimal ordered pair (e,h) with e+h = g gets
N_{e,h} = p+1 > 0, and every other constant follows from the standard
relations

    N_{b,a} = -N_{a,b},      N_{-a,-b} = -N_{a,b},
    N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)   for a+b+c = 0,

together with the four-root relation applied to (e, h, -a, -b).  __init__
tabulates N_{x,y} for every ordered pair of roots with x+y a root in one
pass over the positive sums g, in height order.  For each g it writes the
extraspecial N_{e,h}; it solves every other pair a+b = g by the four-root
relation, in Fractions, reading only sums of lower height; and it writes
each pair's reversed and negative entries and its mixed ones,

    N_{g,-a} = N_{a,-g} = -(c,c)/(g,g) N_{a,c}    for a+c = g,

as an exact integer division of the norms over their common denominator.
n_constant reads that table.

The compact real form has the ordered basis

    t_j = i h_j  (j over simple roots),   u_a = x_a - x_{-a},
    v_a = i(x_a + x_{-a})                 (a over positive roots).

With [h_j, x_b] = p x_b for p = <b, alpha_j^vee>, [x_a, x_{-a}] = h_a =
sum_j co_j h_j (co the coroot coefficients) and [x_a, x_b] = N_{a,b} x_{a+b},
its brackets are, for positive roots a != b, d = a - b, |d| = +-d positive,
and s = -1 if d > 0, s = +1 if d < 0:

    [t_j, u_b] = p v_b,                [t_j, v_b] = -p u_b,
    [u_a, v_a] = 2 sum_j co_j t_j,
    [u_a, u_b] =  N_{a,b} u_{a+b} + s N_{a,-b} u_{|d|},
    [v_a, v_b] = -N_{a,b} u_{a+b} + s N_{a,-b} u_{|d|},
    [u_a, v_b] =  N_{a,b} v_{a+b} +   N_{a,-b} v_{|d|},
    [v_a, u_b] =  N_{a,b} v_{a+b} -   N_{b,-a} v_{|d|},

where a term is present only when its root exists.  They follow from
N_{-a,-b} = -N_{a,b} and h_{-a} = -h_a, which make x_g and x_{-g} appear in
each bracket exactly in the combinations u_g and v_g.  A bracket with an odd
number of factors i lands on t or v, one with an even number on u (i*i = -1),
so every constant is +-p, +-N or 2 co: all integers.  The table is written
down from these forms once per algebra, as ready Scalar coefficients for both
orders of each basis pair.

The Killing form is written down in closed form too, with p_a(j) =
<a, alpha_j^vee>:

    kappa(t_i, t_j) = -2 sum_{a>0} p_a(i) p_a(j),
    kappa(u_a, u_a) = kappa(v_a, v_a) = sum_{i,j} co_i co_j kappa(t_i, t_j),

and every other pair is 0.  ad t_i ad t_j multiplies u_b and v_b by
-p_b(i) p_b(j), which gives the first line.  The second is kappa of
1/2 [u_a, v_a] = sum_j co_j t_j = i h_a with itself: kappa(u_a, u_a) =
-2 kappa(x_a, x_{-a}), and invariance gives kappa(h_a, h_a) =
kappa(x_a, x_{-a}) a(h_a) = 2 kappa(x_a, x_{-a}).  u_a and v_a span the sum of
the t-weight spaces of a and -a, and kappa(X, Y) = 0 unless the weights of
X and Y add to 0, so t is orthogonal to every u, v, and u_a, v_a are
orthogonal to u_b, v_b for b != a.  Invariance of kappa under ad t_j gives
0 = kappa([t_j, u_a], u_a) + kappa(u_a, [t_j, u_a]) = 2 p_a(j) kappa(v_a, u_a),
so u_a and v_a are orthogonal to each other.  killing_gram traces
ad_i ad_j over the table instead, as a runtime check of this form.  The
form is kept as sparse Scalar rows, and bracket and killing multiply by the
table and the rows directly.  Elements are plain Scalar coordinate vectors
over this basis.  bracket_terms is the one bracket kernel: it takes both
operands as their nonzero (index, entry) terms (linalg.nonzeros) and
returns the bracket in the same increasing, zero-free form, so a chain of
brackets never scans a dense vector.  bracket is a wrapper that takes the
terms of two dense vectors and writes the same sums into a dense vector.

An algebra is read only after __init__, so one instance can be shared by
every model over the same root system (spaces.SpaceModel does).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .linalg import Terms, Vec, nonzeros
from .roots import Root, RootSystem, pairing
from .scalars import Scalar, ZERO, rat


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


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.rank = rs.rank
        self.positives = rs.positives
        self.pos_index = {r: k for k, r in enumerate(self.positives)}
        self.roots = frozenset(rs.all_roots())
        self.dim = self.rank + 2 * len(self.positives)
        self._nsq = self._norms_sq()
        self._n_table = self._build_n_table()
        self._coroot = {a: self._coroot_coeffs(a) for a in self.positives}
        self.table = self._build_table()
        self._killing = self._build_killing_gram()

    def _norms_sq(self) -> dict[Root, Fraction]:
        """(a, a) for every root, from its integer coordinates and the Gram
        matrix over a common denominator; -a shares the value of a."""
        gram = self.rs.gram
        den = lcm(*(x.denominator for row in gram for x in row))
        g = [[x.numerator * (den // x.denominator) for x in row]
             for row in gram]
        out: dict[Root, Fraction] = {}
        for a in self.positives:
            num = sum(ai * aj * g[i][j] for i, ai in enumerate(a) if ai
                      for j, aj in enumerate(a) if aj)
            out[a] = out[_neg(a)] = Fraction(num, den)
        return out

    # -- structure constants ----------------------------------------------

    def _build_n_table(self) -> dict[tuple[Root, Root], int]:
        """N_{x,y} for every ordered pair of roots with x+y a root, in one
        pass over the positive sums g in height order (module docstring).
        The four-root relation reads only sums of lower height, which the
        pass has written already.  Positive pairs come first, in the
        enumeration order of (x, y)."""
        order = self.pos_index
        den = lcm(*(q.denominator for q in self._nsq.values()))
        w = {a: int(q * den) for a, q in self._nsq.items()}
        by_sum: dict[Root, list[tuple[Root, Root]]] = {}
        for a in self.positives:
            for b in self.positives[order[a] + 1:]:
                g = _add(a, b)
                if g in order:
                    by_sum.setdefault(g, []).append((a, b))
        n: dict[tuple[Root, Root], int] = {}
        for g in self.positives:  # height-layered: lower sums come first
            pairs = by_sum.get(g, ())
            for k, (a, b) in enumerate(pairs):
                if k == 0:  # the extraspecial pair (e, h): N = p + 1
                    e, h = a, b
                    v, d = 1, _sub(h, e)
                    while d in self.roots:
                        v, d = v + 1, _sub(d, e)
                else:  # the four-root relation on (e, h, -a, -b)
                    total = Fraction(0)
                    for x, y, s in ((h, e, 1), (e, h, -1)):
                        d = _sub(x, a)
                        if d in self.roots:
                            total += Fraction(
                                s * n[(x, _neg(a))] * n[(y, _neg(b))], w[d])
                    q = total * w[g] / n[(e, h)]
                    if q.denominator != 1 or q == 0:
                        raise SignSolveFailure(
                            f"non-integer constant at {a}+{b}")
                    v = int(q)
                for x, c, nxc in ((a, b, v), (b, a, -v)):
                    n[(x, c)], n[(_neg(x), _neg(c))] = nxc, -nxc
                    # N_{g,-x} = N_{x,-g} = -(c,c)/(g,g) N_{x,c}
                    m, rem = divmod(-w[c] * nxc, w[g])
                    if rem:
                        raise SignSolveFailure(
                            f"non-integer constant at {x}+{c}")
                    n[(g, _neg(x))] = n[(x, _neg(g))] = m
                    n[(_neg(x), g)] = n[(_neg(g), x)] = -m
        table = {k: n[k] for k in sorted(
            (k for k in n if sum(k[0]) > 0 < sum(k[1])),
            key=lambda k: (order[k[0]], order[k[1]]))}
        table.update(n)
        return table

    def n_constant(self, x: Root, y: Root) -> int:
        """N_{x,y} for roots with x+y a root."""
        try:
            return self._n_table[(x, y)]
        except KeyError:
            raise ValueError("x+y is not a root") from None

    def _coroot_coeffs(self, a: Root) -> tuple[Fraction, ...]:
        # a_vee = sum_i m_i (a_i,a_i)/(a,a) * a_i_vee
        gg = self._nsq[a]
        out = tuple(Fraction(m) * self.rs.gram[i][i] / gg
                    for i, m in enumerate(a))
        assert all(c.denominator == 1 for c in out)
        return out

    # -- compact basis -----------------------------------------------------

    def u_index(self, a: Root) -> int:
        return self.rank + 2 * self.pos_index[a]

    def v_index(self, a: Root) -> int:
        return self.rank + 2 * self.pos_index[a] + 1

    def _build_table(self) -> list[dict[int, tuple[tuple[int, Scalar], ...]]]:
        """The compact structure constants from their closed forms (module
        docstring): entry [i][j] lists the sorted (k, c) with c != 0 in
        [b_i, b_j] = sum c b_k, and entry [j][i] its negation.  Pairs of
        roots are taken with a before b in the height-layered order of the
        positives, so a - b is never a positive root (u_index would fail
        on a negative e)."""
        table: list[dict[int, tuple[tuple[int, Scalar], ...]]] = [
            {} for _ in range(self.dim)]
        scalar: dict[int, Scalar] = {}  # the few distinct constants, shared

        def put(i: int, j: int, terms: list[tuple[int, int]]) -> None:
            terms = sorted(t for t in terms if t[1])
            if not terms:
                return
            for _, c in terms:
                if c not in scalar:
                    scalar[c], scalar[-c] = rat(c), rat(-c)
            table[i][j] = tuple([(k, scalar[c]) for k, c in terms])
            table[j][i] = tuple([(k, scalar[-c]) for k, c in terms])

        n, known = self.n_constant, self._n_table
        r, pos = self.rank, self.positives
        for ia, a in enumerate(pos):
            ua, va = r + 2 * ia, r + 2 * ia + 1
            for j in range(r):
                p = pairing(a, j, self.rs.cartan)
                put(j, ua, [(va, p)])
                put(j, va, [(ua, -p)])
            put(ua, va, [(j, 2 * m) for j, m in enumerate(self._coroot[a])])
            neg_a = _neg(a)
            for ib in range(ia + 1, len(pos)):
                b = pos[ib]
                # a+b, b-a are roots exactly when N_{a,b}, N_{b,-a} exist
                summed, differ = (a, b) in known, (b, neg_a) in known
                if not (summed or differ):
                    continue
                ub, vb = r + 2 * ib, r + 2 * ib + 1
                uu, vv, uv, vu = [], [], [], []
                if summed:
                    g = _add(a, b)
                    ug, vg = self.u_index(g), self.v_index(g)
                    nab = n(a, b)
                    uu.append((ug, nab))
                    vv.append((ug, -nab))
                    uv.append((vg, nab))
                    vu.append((vg, nab))
                if differ:  # d = a - b < 0, so |d| = e = b - a and s = +1
                    e = _sub(b, a)
                    ue, ve = self.u_index(e), self.v_index(e)
                    n_amb, n_bma = n(a, _neg(b)), n(b, neg_a)
                    uu.append((ue, n_amb))
                    vv.append((ue, n_amb))
                    uv.append((ve, n_amb))
                    vu.append((ve, -n_bma))
                put(ua, ub, uu)
                put(va, vb, vv)
                put(ua, vb, uv)
                put(va, ub, vu)
        return table

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise AlgebraMismatch("element size does not match the algebra")
        out = [ZERO] * self.dim
        for k, c in self._bracket_sums(nonzeros(x), nonzeros(y)).items():
            out[k] = c
        return out

    def bracket_terms(self, xs: Sequence[tuple[int, Scalar]],
                      ys: Sequence[tuple[int, Scalar]]) -> Terms:
        """[x, y] for operands given by their nonzero terms (linalg.nonzeros),
        in the same form: nonzeros of the dense bracket, found by
        zero-testing only the entries the table touched.  A caller that
        brackets one vector many times takes its terms once, and one
        bracket's result is the next one's operand as it stands."""
        return [(k, c) for k, c in sorted(self._bracket_sums(xs, ys).items())
                if c]

    def _bracket_sums(self, xs: Sequence[tuple[int, Scalar]],
                      ys: Sequence[tuple[int, Scalar]]) -> dict[int, Scalar]:
        """The entries of [x, y] that the table touches, zeros included."""
        out: dict[int, Scalar] = {}
        table = self.table
        for i, ci in xs:
            row = table[i]
            for j, cj in ys:
                terms = row.get(j)
                if terms:
                    c = ci * cj
                    for k, f in terms:
                        prev = out.get(k)
                        out[k] = c * f if prev is None else prev + c * f
        return out

    # -- Killing form ------------------------------------------------------

    def _build_killing_gram(self) -> list[list[tuple[int, Scalar]]]:
        """Sparse rows of the Gram matrix, (j, kappa(b_i, b_j)) for nonzero
        entries, from the closed form in the module docstring."""
        r = self.rank
        pairings = [[pairing(a, i, self.rs.cartan) for i in range(r)]
                    for a in self.positives]
        tt = [[-2 * sum(p[i] * p[j] for p in pairings) for j in range(r)]
              for i in range(r)]
        gram = [[(j, rat(c)) for j, c in enumerate(row) if c] for row in tt]
        for a in self.positives:  # u_a, v_a rows in basis order
            co = [int(m) for m in self._coroot[a]]
            c = rat(sum(ci * cj * tt[i][j] for i, ci in enumerate(co) if ci
                        for j, cj in enumerate(co) if cj))
            gram.append([(self.u_index(a), c)])
            gram.append([(self.v_index(a), c)])
        return gram

    def killing_gram(self) -> list[list[Fraction]]:
        """The dense Gram matrix as the trace of ad_i ad_j over the table,
        with ad_i[k] = [b_i, b_k]: the generic definition, computed afresh
        as a check of the closed form (killing_mismatch)."""
        dim, ad = self.dim, self.table
        gram = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                tr = ZERO
                for k, ent in ad[j].items():
                    for l, c in ent:
                        for m, d in ad[i].get(l, ()):
                            if m == k:
                                tr = tr + c * d
                gram[i][j] = gram[j][i] = tr.rational_value()
        return gram

    def killing_mismatch(self, gram: list[list[Fraction]]
                         ) -> tuple[int, int] | None:
        """The first (i, j), row by row, where gram differs from the closed
        form, or None when they agree."""
        for i, row in enumerate(self._killing):
            closed = dict(row)
            for j, g in enumerate(gram[i]):
                if g != closed.get(j, ZERO).rational_value():
                    return i, j
        return None

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
