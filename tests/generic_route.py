"""Reference constructions by the generic definitions: the structure
constants in two stages, first the special constants N_{a,b} (a before b),
whose four-root solves read mixed constants through a chain of Fraction
ratios, then every other entry from them; the Killing form as the trace of
ad_i ad_j over the structure table; k, m as the kernels of
the dense matrices sigma - id and sigma + id, with sigma the dense matrix of
the complex route; each restricted-root dual solved against its own Gram
matrix of a; chart vectors as dense projections (v -+ sigma v)/2 of the
roots of the published orbit tables; a chart's
map as whole dense vectors scaled and added slot by slot; the flat-torus
rotation as one solve for the coordinates in the basis of a and the chart
vectors; the centre of k as the kernel of its brackets with every k row at
once; the bracket as a scan of both dense operands; the dimensions of the
restricted-root spaces of an LTS from the rank of the ambient images
ad(h_i)ad(h_j)b, all dim g entries of each; the intersection of two spans
from the relations among all their rows at once; kernels by a reduced
echelon form built with whole-row updates; definiteness by the signs of
the leading principal minors, each a determinant expanded along its first
row; the Cayley number
systems as frozen dataclasses of ``Fraction`` coordinates, each result
built through the validating constructor: ``CNum`` and ``Quaternion``,
``Octonion`` as a pair of quaternions, and ``Cx``, which adjoins a central
unit I to a ``CNum``, a ``Quaternion`` or an ``Octonion`` by the pair
formulas; and the orthogonal model of SO(10)/U(5) on rows of ``Fraction``s,
compared entry by entry.

ltskit.chevalley writes every N in one height-ordered pass and the Killing
form down in closed form, and brackets nonzero terms only; ltskit.spaces
writes k, m and the chart vectors from sigma's sparse signed columns, shares
one Gram matrix between the duals, stops the centre solve early and maps a
chart by one combine over its nonzero coordinates; ltskit.catalog turns each
chart coordinate, read as an inner product, by a power of exp(i pi/6);
ltskit.linalg reads definiteness off LDL^T pivots and solves kernels and
relations on terms through Span; ltskit.lts solves the root spaces in the
subspace's own coordinates and intersects by remainders modulo a Span; ltskit.cayley_dickson stores a CNum, and an element of any
of its five rings as one ``CDNum`` whose product reads a (k, sign) table,
and ltskit.matrix_groups a matrix of the orthogonal model, as integers over
one reduced denominator.  These are the long way round, kept only so the
tests can compare the two exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from compact_basis import u_vec, v_vec
from complex_route import involution_matrix
from ltskit.chevalley import (
    ChevalleyAlgebra, SignSolveFailure, _add, _neg, _sub,
)
from ltskit.linalg import (
    Span, combine, coordinates, kernel, nonzeros, relations, solve, vec_add,
    vec_is_zero, vec_scale, vec_sub,
)
from ltskit.lts import SubRoot, _root_candidates
from ltskit.matrices import (
    identity, mat_map, mat_mul, mat_neg, mat_transpose,
)
from ltskit.matrix_groups import _from_half_blocks, _half_blocks
from ltskit.roots import RootSystem
from ltskit.scalars import I, ONE, Scalar, ZERO, rat, scalar_sign, sqrt
from ltskit.spaces import SPACES, Chart, NotHermitian, SpaceData, SpaceModel

# The published orbit tables of sigma: restricted label -> the orbits
# {alpha_a, -alpha_b} as (a, b), 1-based in the positive-root enumeration,
# in chart coordinate order; and the roots sigma fixes.  SpaceModel derives
# both from sigma; the tests hold the derivation to these.
SIGMA_ORBITS = {
    "EIII": {
        "l1": [(1, 21), (6, 18), (7, 16), (11, 12)],
        "2l1": [(23, 23)],
        "l2": [(17, 31), (20, 30), (22, 28), (24, 27)],
        "2l2": [(36, 36)],
        "l3": [(2, 25), (8, 19), (13, 14)],
        "l4": [(26, 35), (29, 34), (32, 33)],
    },
    "EIV": {
        "l1": [(1, 30), (7, 27), (12, 22), (17, 18)],
        "l2": [(6, 31), (11, 28), (16, 24), (20, 21)],
        "l3": [(23, 36), (26, 35), (29, 34), (32, 33)],
    },
}

SIGMA_FIXED = {
    "EIII": [3, 4, 5, 9, 10, 15],
    "EIV": [2, 3, 4, 5, 8, 9, 10, 13, 14, 15, 19, 25],
}

# G2/SO(4), a rank-2 space the package ships no record for: sigma is the
# Chevalley involution, so every root is its own orbit (k, k) and the
# restricted roots are the roots of G2, each of multiplicity 1
G2SO4 = SpaceData("G2SO4", "G2", {1: -1, 2: -2},
                  {f"l{k}": k for k in range(1, 7)}, frozenset(), "1",
                  (("l4",), ("l2",)))


def string_down(alg, beta, alpha) -> int:
    """Largest p with beta - p*alpha a root."""
    p = 0
    cur = _sub(beta, alpha)
    while cur in alg.roots:
        p += 1
        cur = _sub(cur, alpha)
    return p


def special_constants(alg) -> dict:
    """N_{a,b} for positive a before b with a+b a root: p+1 on each sum's
    extraspecial pair, the four-root relation on the others."""
    order = alg.pos_index
    pairs_by_sum: dict = {}
    for a in alg.positives:
        for b in alg.positives:
            if order[a] < order[b]:
                g = _add(a, b)
                if g in alg.roots:
                    pairs_by_sum.setdefault(g, []).append((a, b))
    n: dict = {}
    for g in sorted(pairs_by_sum, key=lambda r: (sum(r), order[r])):
        pairs = sorted(pairs_by_sum[g], key=lambda p: order[p[0]])
        e, h = pairs[0]  # extraspecial pair of g
        n[(e, h)] = string_down(alg, h, e) + 1
        for a, b in pairs[1:]:
            # four-root relation on (e, h, -a, -b) with e+h = a+b = g
            total = Fraction(0)
            d1 = _sub(h, a)
            if d1 in alg.roots:
                total += (n_mixed(alg, n, h, _neg(a))
                          * n_mixed(alg, n, e, _neg(b)) / alg._nsq[d1])
            d2 = _sub(e, a)
            if d2 in alg.roots:
                total += (n_mixed(alg, n, _neg(a), e)
                          * n_mixed(alg, n, h, _neg(b)) / alg._nsq[d2])
            num = alg._nsq[g] * total / n[(e, h)]
            if num.denominator != 1 or num == 0:
                raise SignSolveFailure(f"non-integer constant at {a}+{b}")
            n[(a, b)] = int(num)
    return n


def _n_pos(alg, n, a, b) -> int:
    if alg.pos_index[a] < alg.pos_index[b]:
        return n[(a, b)]
    return -n[(b, a)]


def n_mixed(alg, n, x, y) -> Fraction:
    """N_{x,y} for any roots with x+y a root, from the special table n."""
    xp, yp = sum(x) > 0, sum(y) > 0
    if xp and yp:
        return Fraction(_n_pos(alg, n, x, y))
    if not xp and not yp:
        return -n_mixed(alg, n, _neg(x), _neg(y))
    if xp:  # y negative
        b = _neg(y)
        d = _sub(x, b)
        if sum(d) > 0:
            # zero-sum triple (x, -b, -d) gives
            # N_{x,-b} = (d,d)/(x,x) * N_{-b,-d} = -(d,d)/(x,x) * N_{b,d}
            return -alg._nsq[d] / alg._nsq[x] * _n_pos(alg, n, b, d)
        # e = b - x positive; chaining the same identities gives
        # N_{x,-b} = (e,e)/(b,b) * N_{e,x}
        e = _neg(d)
        return alg._nsq[e] / alg._nsq[b] * _n_pos(alg, n, e, x)
    return -n_mixed(alg, n, y, x)


def reference_n_table(alg) -> dict:
    """N_{x,y} for every ordered pair of roots with x+y a root, from the
    special constants: each positive pair a + c = g gives the mixed pairs
    (g, -a) and (a, -g), both -(c,c)/(g,g) N_{a,c}.  Positive pairs come
    first, in the enumeration order of (x, y)."""
    order, n = alg.pos_index, special_constants(alg)
    den = lcm(*(q.denominator for q in alg._nsq.values()))
    w = {a: int(q * den) for a, q in alg._nsq.items()}
    pos = dict(n)
    pos.update({(b, a): -v for (a, b), v in n.items()})
    table = dict(sorted(pos.items(),
                        key=lambda kv: (order[kv[0][0]], order[kv[0][1]])))
    mixed: dict = {}
    for (a, c), v in table.items():
        g = _add(a, c)
        val, rem = divmod(-w[c] * v, w[g])
        if rem:
            raise SignSolveFailure(f"non-integer constant at {a}+{c}")
        mixed[(g, _neg(a))] = mixed[(a, _neg(g))] = val
    table.update({(_neg(x), _neg(y)): -v for (x, y), v in pos.items()})
    table.update(mixed)
    table.update({(y, x): -v for (x, y), v in mixed.items()})
    return table


def trace_killing(alg) -> list[list[tuple]]:
    """Sparse rows (j, kappa(b_i, b_j)) of the Gram matrix, with
    ad_i[k] = [b_i, b_k] and kappa(b_i, b_j) the trace of ad_i ad_j."""
    dim, ad = alg.dim, alg.table
    gram: list[list[tuple]] = [[] for _ in range(dim)]
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


def dense_bracket(alg, x, y) -> list:
    """[x, y] by scanning every entry of both dense operands."""
    out = [ZERO] * alg.dim
    ys = [(j, c) for j, c in enumerate(y) if c]
    for i, ci in enumerate(x):
        if not ci:
            continue
        row = alg.table[i]
        for j, cj in ys:
            terms = row.get(j)
            if terms:
                c = ci * cj
                for k, f in terms:
                    out[k] = out[k] + c * f
    return out


def dense_sub_restricted_roots(S, flat) -> list:
    """Restricted roots of the LTS flat pair (S, flat): for each candidate
    alpha, the joint kernel on S of ad(h_i)ad(h_j) + alpha(h_i)alpha(h_j) id,
    whose dimension is dim S less the rank of the dense ambient images of
    the basis, all len(pairs) * dim g entries of each."""
    alg, hs = S.space.alg, flat.basis
    pairs = [(i, i) for i in range(len(hs))]
    if len(hs) == 2:
        pairs.append((0, 1))
    shared = []
    for b in S.basis:
        ad_b = [dense_bracket(alg, h, b) for h in hs]
        shared.append([dense_bracket(alg, hs[i], ad_b[j]) for i, j in pairs])
    out = []
    for vals, labels in _root_candidates(S.space, hs).items():
        shifts = [vals[i] * vals[j] for i, j in pairs]
        images = [[x + c * y if y else x for img, c in zip(imgs, shifts)
                   for x, y in zip(img, b)]
                  for imgs, b in zip(shared, S.basis)]
        mult = S.dim - Span(images).dim
        if mult:
            out.append(SubRoot(values=vals, mult=mult, labels=tuple(labels)))
    return out


def dense_intersect_spans(rows1, rows2) -> list:
    """Basis of span(rows1) intersect span(rows2), in reduced echelon form,
    from the relations among all the rows together: one equation per
    ambient coordinate, in len(rows1) + len(rows2) unknowns."""
    if not rows1 or not rows2:
        return []
    n = len(rows1)
    return Span(combine(c[:n], rows1)
                for c in dense_relations(rows1 + rows2)).basis()


def dense_relations(vectors) -> list:
    """relations of dense vectors, handed over as all their nonzero
    terms."""
    return relations([nonzeros(v) for v in vectors])


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


def dense_kernel(rows, n_cols) -> list:
    """Right kernel of the dense n_cols-column rows from dense_echelon: one
    vector per non-pivot column, its pivot entries the negated row
    entries in that column."""
    echelon, pivots = dense_echelon(rows)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [ZERO] * n_cols
        v[free] = ONE
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def dense_chart_map(chart, *coeffs) -> list:
    """The chart's real-linear map slot by slot: Re(c) U + Im(c) V scaled
    and added as whole dense vectors, zero coordinates included."""
    if len(coeffs) != len(chart.pairs):
        raise ValueError(f"chart {chart.label} takes {len(chart.pairs)} "
                         "coordinates")
    out = None
    for c, (u, v) in zip(coeffs, chart.pairs):
        if not isinstance(c, Scalar):
            c = rat(Fraction(c))
        re_ = (c + c.conj_i()) * rat(Fraction(1, 2))
        im_ = (c - c.conj_i()) * rat(Fraction(1, 2)) * (-I)
        if v is None:
            if not im_.is_zero():
                raise ValueError(f"chart {chart.label} takes real coordinates")
            term = vec_scale(re_, u)
        else:
            term = vec_add(vec_scale(re_, u), vec_scale(im_, v))
        out = term if out is None else vec_add(out, term)
    return out


# cos and sin of k*pi/6
_PHASES = {
    0: (ONE, ZERO), 1: (sqrt(3) * rat(1, 2), rat(1, 2)),
    2: (rat(1, 2), sqrt(3) * rat(1, 2)), 3: (ZERO, ONE),
    4: (-rat(1, 2), sqrt(3) * rat(1, 2)), 5: (-sqrt(3) * rat(1, 2), rat(1, 2)),
    6: (-ONE, ZERO), 7: (-sqrt(3) * rat(1, 2), -rat(1, 2)),
    8: (-rat(1, 2), -sqrt(3) * rat(1, 2)), 9: (ZERO, -ONE),
    10: (rat(1, 2), -sqrt(3) * rat(1, 2)),
    11: (sqrt(3) * rat(1, 2), -rat(1, 2)),
}


def solved_torus_rotate(sp, vec, n1, n2=0) -> list:
    """The flat-torus rotation by n1*pi/6 and n2*pi/6 on the two basic
    restricted roots, as one solve: vec's coordinates in the basis of a and
    every chart vector, recombined with the images of those vectors, each
    written from a tabulated phase cos + i sin."""
    basis = [list(av) for av in sp.a_basis]
    images = [list(av) for av in sp.a_basis]
    for root in sp.restricted.positives:
        m = int(root.coords[0] * n1 + root.coords[1] * n2)
        c, s = _PHASES[m % 12]
        p = c + I * s
        chart = sp.charts[root.label]
        for u, v in chart.pairs:
            basis.append(list(u))
            images.append(dense_chart_map(chart, p))
            if v is not None:
                basis.append(list(v))
                images.append(dense_chart_map(chart, I * p))
    return combine(coordinates(basis, vec), images)


def determinant(a) -> object:
    """det(a) by expansion along the first row."""
    if not a:
        return ONE
    return sum(((-1) ** j * a[0][j] * determinant([row[:j] + row[j + 1:]
                                                   for row in a[1:]])
                for j in range(len(a)) if a[0][j]), ZERO)


def minors_negative_definite(gram) -> bool:
    """Sylvester's criterion: (-1)^k det of every leading k x k block is
    positive."""
    return all(scalar_sign((-1) ** k * determinant([row[:k]
                                                    for row in gram[:k]])) > 0
               for k in range(1, len(gram) + 1))


def dense_sigma_kernels(sigma_matrix) -> tuple[list, list]:
    """(k_rows, m_rows): the kernels of the dense sigma - id and sigma + id."""
    dim = len(sigma_matrix)
    plus = [[rat(sigma_matrix[i][j] - (1 if i == j else 0))
             for j in range(dim)] for i in range(dim)]
    minus = [[rat(sigma_matrix[i][j] + (1 if i == j else 0))
              for j in range(dim)] for i in range(dim)]
    return (kernel(map(nonzeros, plus), dim),
            kernel(map(nonzeros, minus), dim))


class GenericRouteModel(SpaceModel):
    """An E6 space model built on the generic constructions: its own E6
    algebra with the traced Killing rows, k, m from the dense kernels of the
    complex route's sigma, per-label dual solves, dense chart projections
    over the published orbit tables and the full centre solve."""

    def __init__(self, name: str):
        self.data = SPACES[name]
        self.name = name
        self.alg = ChevalleyAlgebra(RootSystem.of_type("E6"))
        self.alg._killing = trace_killing(self.alg)
        self._build_sigma()
        self._finalize()

    def _build_sigma(self):
        super()._build_sigma()
        sigma = involution_matrix(self.alg, self.sigma_roots,
                                  {a: rat(e) for a, e in self.signs.items()})
        self.k_rows, self.m_rows = dense_sigma_kernels(sigma)

    def _solve_sharp(self, label, gram=None):
        # the Gram matrix of a_basis is rebuilt for every label
        rows = [[self.inner(za, zb) for zb in self.a_basis]
                for za in self.a_basis]
        target = [self._eval_form(label, za) for za in self.a_basis]
        return combine(solve(rows, target), self.a_basis)

    def _build_charts(self, which):
        alg = self.alg
        half = rat(Fraction(1, 2))
        if which == "M":
            def proj(v):
                return vec_scale(half, vec_sub(v, self.apply_sigma(v)))
        else:
            def proj(v):
                return vec_scale(half, vec_add(v, self.apply_sigma(v)))
        # the published orbit tables, not the ones derived from sigma
        flips = self.data.chart_flips
        charts = {}
        for label, orbits in SIGMA_ORBITS[self.name].items():
            pairs = []
            for slot, (a_idx, b_idx) in enumerate(orbits):
                a = alg.positives[a_idx - 1]
                u = proj(u_vec(alg, a))
                v = proj(v_vec(alg, a))
                if (label, slot) in flips:
                    u, v = vec_scale(-ONE, u), vec_scale(-ONE, v)
                if b_idx == a_idx:  # doubled root: one of u, v survives
                    cand = u if not vec_is_zero(u) else v
                    pairs.append((self._chart_scale(cand, label), None))
                else:
                    pairs.append((self._chart_scale(u, label),
                                  self._chart_scale(v, label)))
            charts[label] = Chart(label, pairs)
        return charts

    def _solve_j(self):
        # [X, b] = 0 for all 46 k rows at once, then the same scaling,
        # (ad j|m)^2 = -id check and sign convention as the model
        alg = self.alg
        gens = self._t_eigenspace(ONE) + [self.k_charts["2l1"].pairs[0][0],
                                          self.k_charts["2l2"].pairs[0][0]]
        ker = dense_relations([[x for b in self.k_rows
                                for x in alg.bracket(g, b)] for g in gens])
        if len(ker) != 1:
            raise NotHermitian(f"center of k has dimension {len(ker)}, not 1")
        j0 = combine(ker[0], gens)
        probe = self.charts["l1"].pairs[0][0]
        img = alg.bracket(j0, alg.bracket(j0, probe))
        pivot = next(i for i, x in enumerate(probe) if not x.is_zero())
        lam = img[pivot] / probe[pivot]
        if not vec_is_zero(vec_sub(img, vec_scale(lam, probe))):
            raise NotHermitian("ad(j)^2 does not preserve the probe line")
        q = (-lam).sqrt_if_expressible()
        if q is None or q.is_zero():
            raise NotHermitian("center element cannot be scaled to a "
                               "complex structure")
        j0 = vec_scale(q.inv(), j0)
        for x in self.m_rows:
            if alg.bracket(j0, alg.bracket(j0, x)) != vec_scale(rat(-1), x):
                raise NotHermitian("(ad j|m)^2 is not -id")
        val = self.inner(self.apply_J(self.charts["2l1"].pairs[0][0], j0),
                         self.sharp["l1"])
        if scalar_sign(val) > 0:
            j0 = vec_scale(rat(-1), j0)
        return j0


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational number, got {value!r}")


@dataclass(frozen=True, slots=True)
class CNum:
    """``re + I*im`` with two ``Fraction`` fields."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    def __add__(self, other):
        return CNum(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return CNum(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return CNum(-self.re, -self.im)

    def __mul__(self, other):
        return CNum(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero complex number")
        return CNum((self.re * other.re + self.im * other.im) / n,
                    (self.im * other.re - self.re * other.im) / n)

    def scale(self, r):
        r = _frac(r)
        return CNum(r * self.re, r * self.im)

    def conj(self):
        return CNum(self.re, -self.im)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def coords(self) -> tuple:
        return (self.re, self.im)

    def __str__(self) -> str:
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*I"


@dataclass(frozen=True)
class Quaternion:
    """``w + x*i + y*j + z*k`` with four ``Fraction`` fields."""

    w: Fraction = Fraction(0)
    x: Fraction = Fraction(0)
    y: Fraction = Fraction(0)
    z: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def __add__(self, other):
        return Quaternion(*(a + b for a, b in zip(self.coords(),
                                                  other.coords())))

    def __sub__(self, other):
        return Quaternion(*(a - b for a, b in zip(self.coords(),
                                                  other.coords())))

    def __neg__(self):
        return Quaternion(*(-a for a in self.coords()))

    def __mul__(self, other):
        a, b, c, d = self.coords()
        e, f, g, h = other.coords()
        return Quaternion(a * e - b * f - c * g - d * h,
                          a * f + b * e + c * h - d * g,
                          a * g - b * h + c * e + d * f,
                          a * h + b * g - c * f + d * e)

    def scale(self, r):
        r = _frac(r)
        return Quaternion(*(r * a for a in self.coords()))

    def conj(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> Fraction:
        return sum((a * a for a in self.coords()), Fraction(0))

    def inverse(self):
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero quaternion")
        return self.conj().scale(Fraction(1) / n)

    def is_unit(self) -> bool:
        return self.norm2() == 1

    def is_zero(self) -> bool:
        return self == Quaternion()

    def coords(self) -> tuple:
        return (self.w, self.x, self.y, self.z)

    def __str__(self) -> str:
        return f"({self.w}, {self.x}, {self.y}, {self.z})"


@dataclass(frozen=True)
class Octonion:
    """An octonion as a pair ``(a, b)`` of quaternions, ``a + b*e``, with
    the product ``x*y = (x1*y1 - conj(y2)*x2, x2*conj(y1) + y2*x1)``."""

    a: Quaternion = Quaternion()
    b: Quaternion = Quaternion()

    def __add__(self, other):
        return Octonion(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return Octonion(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return Octonion(-self.a, -self.b)

    def __mul__(self, other):
        x1, x2 = self.a, self.b
        y1, y2 = other.a, other.b
        return Octonion(x1 * y1 - y2.conj() * x2, x2 * y1.conj() + y2 * x1)

    def scale(self, r):
        return Octonion(self.a.scale(r), self.b.scale(r))

    def conj(self):
        return Octonion(self.a.conj(), -self.b)

    def norm2(self) -> Fraction:
        return self.a.norm2() + self.b.norm2()

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def coords(self) -> tuple:
        return self.a.coords() + self.b.coords()


def _dot(u, v) -> Fraction:
    return sum((p * q for p, q in zip(u.coords(), v.coords())), Fraction(0))


@dataclass(frozen=True)
class Cx:
    """``re + I*im`` over a base ring (``CNum`` over its own unit i,
    ``Quaternion`` or ``Octonion``) with a central unit I, I**2 = -1."""

    re: object
    im: object

    def __add__(self, other):
        return Cx(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Cx(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return Cx(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return Cx(a * c - b * d, a * d + b * c)

    def conj(self):
        """Conjugation of the base ring, extended I-linearly."""
        return Cx(self.re.conj(), self.im.conj())

    def conj_I(self):
        return Cx(self.re, -self.im)

    def times_I(self):
        return Cx(-self.im, self.re)

    def scale(self, c):
        """Multiplication by a rational, or by a ``CNum`` over I."""
        if not isinstance(c, CNum):
            return Cx(self.re.scale(c), self.im.scale(c))
        re, im = self.re, self.im
        return Cx(re.scale(c.re) - im.scale(c.im),
                  re.scale(c.im) + im.scale(c.re))

    def norm2(self) -> CNum:
        """(re, re) - (im, im) + 2*I*(re, im) for the coordinate dot
        product (,) of the base ring."""
        re, im = self.re, self.im
        return CNum(_dot(re, re) - _dot(im, im), 2 * _dot(re, im))

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def coords(self) -> tuple:
        """Complex coordinates (over I) along the basis of the base ring."""
        return tuple(CNum(s, o) for s, o in zip(self.re.coords(),
                                                self.im.coords()))

    def scalar_value(self) -> CNum:
        value, *rest = self.coords()
        if not all(c.is_zero() for c in rest):
            raise ValueError(f"not a scalar: {self}")
        return value


# -- the orthogonal model of SO(10)/U(5) on Fraction rows ------------------


def is_orthogonal(g) -> bool:
    return mat_mul(mat_transpose(g), g) == identity(len(g), Fraction(1))


def orthogonal_sigma(g):
    """[[A, C], [B, D]] -> [[D, -B], [-C, A]]."""
    A, C, B, D = _half_blocks(g)
    return _from_half_blocks(D, mat_neg(B), mat_neg(C), A)


def unitary_member(g) -> bool:
    """Orthogonal with block form [[A, -B], [B, A]]."""
    if not is_orthogonal(g):
        return False
    A, C, B, D = _half_blocks(g)
    return A == D and C == mat_neg(B)


def is_skew(A) -> bool:
    return mat_transpose(A) == mat_neg(A)


def tangent_member(X) -> bool:
    """Block form [[A, B], [B, -A]] with A, B skew."""
    A, C, B, D = _half_blocks(X)
    return is_skew(A) and is_skew(B) and C == B and D == mat_neg(A)


def complex_to_real10(U) -> list:
    """[[A, -B], [B, A]] for the complex matrix A + iB, from re and im."""
    A = mat_map(lambda c: c.re, U)
    B = mat_map(lambda c: c.im, U)
    return _from_half_blocks(A, mat_neg(B), B, A)


def cartan_map(g) -> list:
    """The Cartan map sigma(g) g**-1 of the so10 instance, g**-1 = g**T."""
    return mat_mul(orthogonal_sigma(g), mat_transpose(g))
