"""Symmetric-space models: involution, splitting, restricted roots, charts.

Each model is built from one SpaceData record in SPACES, and from nothing
else that names its space:

  EIII      E6 / (U(1) x Spin(10)),  restricted type BC2
  EIV       E6 / F4,                 restricted type A2
  G2group   the group G2 as (G2 x G2)/diag, tangent space identified with g2
  Sp2group  the group Sp(2) the same way, restricted type B2; its
            classification is the (Sp2) derived host of ltskit.catalog

sigma acts on the root system as the linear extension of its values on the
simple roots.  Two roots restrict to the same root of a exactly when their
alpha - sigma(alpha) agree (twice the restriction), so the orbit tables are
derived from sigma on integer root coordinates: walking the positive roots
in enumeration order, sigma(alpha_a) = alpha_a makes a a fixed root, and
sigma(alpha_a) = -alpha_b with a <= b puts the orbit (a, b) under the label
whose root has the same key.  On a group model every positive root is its
own orbit (k, None).  A root that falls under neither rule, one that sigma
maps to another positive root, say, or one whose key is no label's, makes
the build raise LiftFailure, naming the root.

The lift to the algebra is a sign e_a = +-1 per root with
sigma(x_a) = e_a x_{sigma(a)}: e = 1 on the simple roots, propagated through
the structure constants, and sigma is kept as the sparse signed columns this
gives on the compact basis.

k and m are the +1 and -1 eigenspaces of sigma, so sigma decides
membership: v lies in k when sigma v = v and in m when sigma v = -v, tested
on those columns.  Their bases are written down from the same columns with
no elimination over the whole algebra.  sigma maps t into t, and on the u/v
basis it is a signed permutation: column q holds the one entry w_{q->p} of
sigma(b_q) = w_{q->p} b_p, with w_{q->p} w_{p->q} = 1.  So
sigma - eig*id (eig = +-1) is block diagonal: the t block, whose kernel is
solved as a rank x rank system; a 1 x 1 block w - eig for each fixed
column, which is free exactly when w = eig and then gives b_q; and for each
pair p < q the rank-1 block with rows (-eig, w_{q->p}) and
(w_{p->q}, -eig), whose pivot is p and whose free column q gives
b_q + eig*w_{q->p} b_p.  Listing these in free-column order reproduces,
vector for vector, the basis that kernel() returns for the full matrix.
The chart vectors (b -+ sigma b)/2 of a u/v basis vector b are read from
the same single entry.

The centre of k, where the complex structure of EIII lives, is solved
inside the span of t-cap-k and the two doubled-root k-charts.  The
equations [sum c_g g, b] = 0 are added one k row b at a time, and the solve
stops as soon as they leave at most a line of solutions c.  That line
contains the centre, so it bounds it from above; the candidate on it is
then bracketed with every k row, and the centre is that line exactly when
all these brackets vanish (otherwise it is 0).  When they do, the
equations read so far span the same row space as the full system, so the
candidate is the one the full solve would give, entry for entry.

The metric is <X,Y> = -c * kappa(X,Y) with the rational factor c chosen so
that the shortest restricted root has length 1.

Restricted root spaces carry coordinate charts M_l(c_1, ..., c_r) /
K_l(c_1, ..., c_r): real-linear maps from complex tuples built from the
projections of the root-vector pairs (u_a, v_a) of the orbits, in the order
of the orbit tables.  The record's chart flips are slots whose vectors are
negated, fixed once so that the quoted curvature identities hold exactly;
sign-invariant consequences (norms, a-components, subspace membership) hold
either way.

The m basis (a_basis, then the chart vectors) is orthonormal, so chart
coordinates are inner products (chart_coords), and Chart.map, through
which the prototypes and witnesses write their vectors of m, is one
linalg.combine.  A geodesic prototype is r0 + tan(phi) e in the frame of
angle_frame, which isotropy_angle reads back; r0 and e are the normalized
sums of the duals of the record's two frame label tuples.  sigma is applied
one way, by _add_sigma over the nonzero entries of a vector (apply_sigma,
in_m).

In every space {H in a : Exp(pi*H) = o} is the Z-span of c*beta#/|beta#|^2
over the positive restricted roots, doubled ones included: c = 2 on EIII
and EIV (exp(H) in K), and c = 4 on a group model (exp(H) = e).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .chevalley import ChevalleyAlgebra, _add, _neg, _sub
from .linalg import (
    Span, Terms, Vec, combine, coordinates, kernel, nonzeros, solve, zeros,
)
from .roots import (
    RestrictedRoot, RestrictedRootSystem, Root, RootSystem, pairing,
)
from .scalars import I, ONE, Scalar, ZERO, parse_scalar, rat, scalar_sign


class LiftFailure(RuntimeError):
    pass


class NotInM(ValueError):
    pass


class NotHermitian(ValueError):
    pass


# -- space data ------------------------------------------------------------


class SpaceData(NamedTuple):
    """Everything a SpaceModel knows about its space, as an immutable record.

    root_type: the algebra, E6, G2 or B2.  sigma: the images of the simple
    roots, as signed 1-based indices into the positive-root enumeration, or
    None for a group model, whose symmetry swaps its two factors.  labels:
    the positive restricted roots in order, each with the 1-based index of a
    positive root restricting to it, which keys its orbits (module
    docstring).  chart_flips: the chart slots (label, orbit position) whose
    vectors are negated.  reference_metric_ratio: the published curvature
    coefficients hold for the duals sharp / ratio (charts unchanged), taken
    in a rescaled copy of the metric.  angle_frame: two label tuples whose
    summed duals, scaled to unit length, are the rays phi = 0 and pi/2.
    hermitian: the centre of k holds a complex structure J.
    """
    name: str
    root_type: str
    sigma: dict[int, int] | None
    labels: dict[str, int]
    chart_flips: frozenset[tuple[str, int]]
    reference_metric_ratio: str
    angle_frame: tuple[tuple[str, ...], tuple[str, ...]]
    hermitian: bool = False


SPACES = {data.name: data for data in (
    SpaceData(
        "EIII", "E6", {1: -21, 2: -25, 3: 3, 4: 4, 5: 5, 6: -18},
        {"l1": 1, "2l1": 23, "l2": 17, "2l2": 36, "l3": 2, "l4": 26},
        frozenset({("2l1", 0), ("2l2", 0), ("l3", 0), ("l3", 1), ("l3", 2),
                   ("l4", 0), ("l4", 1), ("l4", 2)}),
        "8", (("l2",), ("l1",)), hermitian=True),
    SpaceData(
        "EIV", "E6", {1: -30, 2: 2, 3: 3, 4: 4, 5: 5, 6: -31},
        {"l1": 1, "l2": 6, "l3": 23}, frozenset({("l3", 2), ("l3", 3)}),
        "2*sqrt(2)", (("l1", "l3"), ("l2",))),
    SpaceData(
        "G2group", "G2", None, {f"l{k}": k for k in range(1, 7)},
        frozenset({("l3", 0), ("l5", 0)}), "1", (("l4",), ("l2",))),
    SpaceData(
        "Sp2group", "B2", None, {f"l{k}": k for k in range(1, 5)},
        frozenset(), "1", (("l4",), ("l2",))),
)}
# views of SPACES: the space names, and each space's labels in order
SPACE_NAMES = tuple(SPACES)
RESTRICTED_LABELS = {name: list(d.labels) for name, d in SPACES.items()}


def _simple_root(rs: RootSystem, j: int) -> Root:
    return tuple(1 if k == j else 0 for k in range(rs.rank))


class RootInvolution:
    """sigma as a signed permutation of the root set: the linear extension
    of its values on the simple roots, tabulated once on every root."""

    def __init__(self, rs: RootSystem, on_simple: dict[int, int]):
        self.rs = rs
        # column j = coords of sigma(alpha_j)
        cols = []
        for j in range(rs.rank):
            img = on_simple[j + 1]
            root = rs.positives[abs(img) - 1]
            cols.append(tuple((1 if img > 0 else -1) * x for x in root))
        self._images: dict[Root, Root] = {}
        for r in rs.all_roots():
            out = [0] * rs.rank
            for j, m in enumerate(r):
                if m:
                    for k, x in enumerate(cols[j]):
                        out[k] += m * x
            self._images[r] = tuple(out)
        for r, img in self._images.items():
            if self._images.get(img) != r:
                raise LiftFailure("root involution table is inconsistent")

    def __call__(self, r: Root) -> Root:
        return self._images[r]


def _signed(r: Root) -> tuple[int, Root]:
    """(s, g) with r = s*g, s = +-1 and g a positive root."""
    return (1, r) if sum(r) > 0 else (-1, _neg(r))


def _sigma_orbits(alg: ChevalleyAlgebra, sig: RootInvolution,
                  labels: dict[str, int]) -> tuple[
                      dict[str, list[tuple[int, int]]], list[int]]:
    """The orbit tables and the fixed roots of sigma (module docstring), as
    1-based indices into the positive-root enumeration.  A root's key is
    alpha - sigma(alpha), in integer root coordinates; a positive root that
    falls under neither rule raises LiftFailure."""
    positives = alg.positives
    orbits: dict[str, list[tuple[int, int]]] = {label: [] for label in labels}
    by_key = {_sub(positives[k - 1], sig(positives[k - 1])): orbits[label]
              for label, k in labels.items()}
    fixed = []
    for a, root in enumerate(positives, 1):
        img = sig(root)
        if img == root:
            fixed.append(a)
            continue
        b = alg.pos_index.get(_neg(img), -1) + 1  # 0 unless sigma(alpha) < 0
        orbit = by_key.get(_sub(root, img)) if b else None
        if orbit is None:
            raise LiftFailure(f"the positive root {root} is not fixed by "
                              "sigma and restricts to no label's root")
        if a <= b:
            orbit.append((a, b))
    return orbits, fixed


def lift_involution(alg: ChevalleyAlgebra, sig: RootInvolution) -> dict[Root, int]:
    """Signs e_a = +-1 with sigma(x_a) = e_a x_{sigma(a)} an involutive
    automorphism, and e_{-a} = e_a.

    e = 1 on the simple roots.  Every other positive root g = alpha_i + b
    gets e_g = e_{alpha_i} e_b N_{sigma(alpha_i),sigma(b)} / N_{alpha_i,b},
    in height order; a root involution preserves |N|, so each value is +-1.
    """
    rs = alg.rs
    simples = [_simple_root(rs, j) for j in range(rs.rank)]
    e: dict[Root, int] = {}
    for g in rs.positives:  # enumerated in height order
        if sum(g) == 1:
            e[g] = 1
            continue
        a = next(s for s in simples if _add(g, _neg(s)) in alg.pos_index)
        b = _add(g, _neg(a))
        n, n_sig = alg.n_constant(a, b), alg.n_constant(sig(a), sig(b))
        if abs(n) != abs(n_sig):
            raise LiftFailure(f"sigma changes |N| on the pair {a}, {b}, so "
                              f"the sign at the root {g} is not +-1")
        e[g] = e[a] * e[b] * (1 if n == n_sig else -1)
    e.update({_neg(a): v for a, v in e.items()})
    for a in rs.positives:
        if e[a] * e[sig(a)] != 1:
            raise LiftFailure(f"e_a e_sigma(a) = -1 at the root {a}: "
                              "the lift is not an involution")
    for a, b in alg._n_table:  # positive pairs first, in enumeration order
        if sum(a) > 0 < sum(b) and (alg.n_constant(a, b) * e[_add(a, b)]
                                    != e[a] * e[b]
                                    * alg.n_constant(sig(a), sig(b))):
            raise LiftFailure(f"the lift is not an automorphism on the "
                              f"pair {a}, {b}")
    return e


def _sigma_columns(alg: ChevalleyAlgebra, sig: RootInvolution,
                   signs: dict[Root, int]) -> list[list[tuple[int, Scalar]]]:
    """sigma on the compact basis as sparse columns: column k lists the
    (row, entry) pairs of sigma(b_k).

    sigma(h_j) = h_{sigma(alpha_j)} and sigma(x_a) = e_a x_{sigma(a)} give,
    writing sigma(a) = s*g with s = +-1 and g > 0,

        t_j -> s * (coroot of g) in t-coordinates, for a = alpha_j;
        u_a -> s e_a u_g,    v_a -> e_a v_g.
    """
    cols: list[list[tuple[int, Scalar]]] = []
    for j in range(alg.rank):
        s, g = _signed(sig(_simple_root(alg.rs, j)))
        cols.append([(i, rat(s * m)) for i, m in enumerate(alg._coroot[g]) if m])
    for a in alg.positives:
        s, g = _signed(sig(a))
        cols.append([(alg.u_index(g), rat(s * signs[a]))])
        cols.append([(alg.v_index(g), rat(signs[a]))])
    return cols


@dataclass
class Chart:
    """Coordinate chart for one restricted root space (or its k-mirror).

    pairs[r] = (U_r, V_r): ambient coordinate vectors; the chart maps a
    complex tuple (c_1, ..., c_len) to sum Re(c_r) U_r + Im(c_r) V_r.  For
    the one-dimensional doubled-root charts V_r is absent and the argument
    is real.
    """
    label: str
    pairs: list[tuple[Vec, Vec | None]]

    @property
    def arity(self) -> int:
        return len(self.pairs)

    def map(self, *coeffs) -> Vec:
        if len(coeffs) != len(self.pairs):
            raise ValueError(f"chart {self.label} takes {len(self.pairs)} coordinates")
        reals: list[Scalar] = []
        for c, (_, v) in zip(coeffs, self.pairs):
            c = c if isinstance(c, Scalar) else rat(c)
            re_, im_ = (c + c.conj_i()) / 2, (c.conj_i() - c) * I / 2
            if v is None and im_:
                raise ValueError(f"chart {self.label} takes real coordinates")
            reals += (re_,) if v is None else (re_, im_)
        return combine(reals, self.basis_vectors())

    def basis_vectors(self) -> list[Vec]:
        return [w for pair in self.pairs for w in pair if w is not None]


ANGLE_NAMES = {
    Fraction(0): "0",
    Fraction(1, 3): "pi/6",
    Fraction(1): "pi/4",
    Fraction(3): "pi/3",
    Fraction(1, 4): "arctan(1/2)",
    Fraction(1, 9): "arctan(1/3)",
    Fraction(1, 27): "arctan(1/(3*sqrt(3)))",
}


@dataclass(frozen=True)
class AngleDescriptor:
    tan_sq: Scalar
    name: str | None

    def __str__(self) -> str:
        return self.name if self.name else f"arctan(sqrt({self.tan_sq}))"


@lru_cache(maxsize=None)
def algebra(root_type: str) -> ChevalleyAlgebra:
    """The one (read-only) algebra of a root-system type, shared by every
    model built on it: EIII and EIV use the same E6 table and Killing form."""
    return ChevalleyAlgebra(RootSystem.of_type(root_type))


class SpaceModel:
    """One symmetric-space model with exact algebraic data."""

    def __init__(self, data: SpaceData):
        self.data = data
        self.name = data.name
        self.alg = algebra(data.root_type)
        self._build_sigma()
        self._finalize()

    # -- construction ------------------------------------------------------

    def _build_sigma(self):
        """sigma on the roots and the algebra, k, m, a and the orbit tables;
        on a group model m is the whole algebra and a is t."""
        alg, data = self.alg, self.data
        if data.sigma is None:
            self.sigma_roots = self.signs = None
            self.k_rows = []
            self.m_rows = [alg.basis_vec(k) for k in range(alg.dim)]
            self.a_basis = [alg.basis_vec(j) for j in range(alg.rank)]
            self._orbit_tables = {label: [(k, None)]
                                  for label, k in data.labels.items()}
            self._fixed = []
            return
        self.sigma_roots = RootInvolution(alg.rs, data.sigma)
        self.signs = lift_involution(alg, self.sigma_roots)
        self._sigma_cols = _sigma_columns(alg, self.sigma_roots, self.signs)
        # eigenspace split over the rationals: k = ker(sigma - id),
        # m = ker(sigma + id)
        self.k_rows = self._eigenvectors(ONE)
        self.m_rows = self._eigenvectors(-ONE)
        # a = (-1)-eigenspace of sigma inside the Cartan part
        self.a_basis = self._t_eigenspace(-ONE)
        self._orbit_tables, self._fixed = _sigma_orbits(
            alg, self.sigma_roots, data.labels)

    def _finalize(self):
        alg, data = self.alg, self.data
        # restricted root forms on a: for Z = sum z_j t_j in a,
        # lam(Z) = sum_j z_j <alpha, alpha_j^vee> for a root restricting to lam
        self._forms: dict[str, tuple[int, ...]] = {}
        for label, k in data.labels.items():
            rep = alg.positives[k - 1]
            self._forms[label] = tuple(pairing(rep, j, alg.rs.cartan)
                                       for j in range(alg.rank))
        # metric scale: <.,.> = -c*kappa, c fixed by the shortest root
        self._metric_c = Fraction(1)
        gram = self._a_gram()
        shortest = min(self.norm_sq(self._solve_sharp(label, gram))
                       .rational_value() for label in self._forms)
        self._metric_c = shortest
        self.a_basis = self._orthonormalize(self.a_basis)
        self.a_span = Span(self.a_basis)
        gram = self._a_gram()
        self.sharp = {label: self._solve_sharp(label, gram)
                      for label in self._forms}
        self.restricted = self._build_restricted()
        self.charts = self._build_charts("M")
        self.k_charts = (None if self.sigma_roots is None
                         else self._build_charts("K"))
        self._m_basis_ordered = [
            *self.a_basis, *(v for label in data.labels
                             for v in self.charts[label].basis_vectors())]
        self._j_vec = self._frame = None

    def _eigenvectors(self, eig: Scalar) -> list[Vec]:
        """Basis of ker(sigma - eig*id), vector for vector the one `kernel`
        returns (module docstring): the t part, then one vector per fixed
        or paired u/v column, in column order."""
        r, dim = self.alg.rank, self.alg.dim
        out = self._t_eigenspace(eig)
        for q in range(r, dim):
            (p, w), = self._sigma_cols[q]
            if p > q or (p == q and w != eig):
                continue  # a pivot column of sigma - eig*id
            v = zeros(dim)
            v[q] = ONE
            if p < q:
                v[p] = eig * w
            out.append(v)
        return out

    def _t_eigenspace(self, eig: Scalar) -> list[Vec]:
        """Basis of {h in t : sigma(h) = eig*h}, as ambient vectors."""
        r = self.alg.rank
        block = [{} for _ in range(r)]  # the rows of sigma - eig*id on t
        for k in range(r):
            for i, w in self._sigma_cols[k]:
                block[i][k] = w
            block[k][k] = block[k].get(k, ZERO) - eig
        return [v + zeros(self.alg.dim - r)
                for v in kernel([row.items() for row in block], r)]

    def _orthonormalize(self, vecs: list[Vec]) -> list[Vec]:
        """Gram-Schmidt with radical normalization in the space metric; out
        is exactly orthonormal, so v's components are inner products."""
        out: list[Vec] = []
        for v in vecs:
            w = combine([ONE, *(-self.inner(v, u) for u in out)], [v, *out])
            q = self.norm_sq(w).sqrt_if_expressible()
            if q is None:
                raise LiftFailure("basis norm has no radical square root")
            out.append(combine([q.inv()], [w]))
        return out

    def _eval_form(self, label: str, z: Sequence[Scalar]) -> Scalar:
        f = self._forms[label]
        total = ZERO
        for j, coef in enumerate(f):
            if coef:
                total = total + z[j] * rat(coef)
        return total

    def inner(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
        return -self.alg.killing(x, y) * rat(self._metric_c)

    def norm_sq(self, x: Sequence[Scalar]) -> Scalar:
        return self.inner(x, x)

    def _a_gram(self) -> list[Vec]:
        return [[self.inner(za, zb) for zb in self.a_basis]
                for za in self.a_basis]

    def _solve_sharp(self, label: str, gram: list[Vec]) -> Vec:
        """lam_sharp in a with <lam_sharp, Z> = lam(Z) for all Z in a, given
        the Gram matrix of a_basis."""
        target = [self._eval_form(label, za) for za in self.a_basis]
        coeffs = solve(gram, target)
        assert coeffs is not None
        return combine(coeffs, self.a_basis)

    def _build_restricted(self) -> RestrictedRootSystem:
        # each form over the forms l1, l2 of RestrictedRoot.coords on a,
        # read off their duals: the duals lie in a and those two are
        # independent, so the ambient system has one solution
        base_sharps = [self.sharp["l1"], self.sharp["l2"]]
        positives = []
        for lbl in self.data.labels:
            coords = tuple(c.rational_value() for c in
                           coordinates(base_sharps, self.sharp[lbl]))
            mult = sum(1 if b_idx == a_idx else 2
                       for a_idx, b_idx in self._orbit_tables[lbl])
            positives.append(RestrictedRoot(lbl, coords, mult))
        return RestrictedRootSystem(self._classify_kind(positives), positives)

    def unit_lattice(self) -> list[tuple[Fraction, Fraction]]:
        """Z-basis of {H in a : Exp(pi*H) = o} (module docstring) over the
        (l1#, l2#) of RestrictedRoot.coords: Euclid on the first coordinate,
        then on the second, reduces the c*beta#/|beta#|^2 to two vectors."""
        c = 4 if self.sigma_roots is None else 2
        rows = [tuple(c * x / self.norm_sq(self.sharp[r.label])
                      .rational_value() for x in r.coords)
                for r in self.restricted.positives]
        basis = []
        for col in (0, 1):
            pivot = (0, 0)
            for i, v in enumerate(rows):
                while v[col]:
                    q = v[col] // pivot[col] if pivot[col] else 0
                    v = tuple(a - q * b for a, b in zip(v, pivot))
                    pivot, v = (v, pivot) if v[col] else (pivot, v)
                rows[i] = v
            basis.append(pivot)
        return basis

    def _classify_kind(self, positives) -> str:
        coords = {tuple(r.coords) for r in positives}
        doubled = any(tuple(2 * c for c in r.coords) in coords for r in positives)
        if doubled:
            return "BC2"
        if len(positives) == 3:
            return "A2"
        if len(positives) == 6:
            return "G2"
        return "B2"

    # -- charts ------------------------------------------------------------

    def _add_sigma(self, terms: Terms,
                   acc: dict[int, Scalar]) -> dict[int, Scalar]:
        """acc + sigma v, in place, for the vector v with these nonzero
        terms: sigma's sparse columns summed over them only.  The one
        routine that applies sigma."""
        for k, c in terms:
            for i, w in self._sigma_cols[k]:
                acc[i] = acc.get(i, ZERO) + w * c
        return acc

    def apply_sigma(self, v: Vec) -> Vec:
        if self.sigma_roots is None:
            raise LiftFailure("the group model has no ambient involution")
        out = zeros(self.alg.dim)
        for i, x in self._add_sigma(nonzeros(v), {}).items():
            out[i] = x
        return out

    def _chart_vector(self, k: int, which: str, flip: bool) -> Vec:
        """(b_k - sigma b_k)/2 for "M", (b_k + sigma b_k)/2 for "K", negated
        when flip: written from sigma's one entry in the u/v column k.  On
        a group model, +-b_k."""
        s = -ONE if flip else ONE
        v = zeros(self.alg.dim)
        if self.sigma_roots is None:
            v[k] = s
            return v
        (i, w), = self._sigma_cols[k]
        half = s * rat(1, 2)
        v[k] = half
        v[i] = v[i] + (w if which == "K" else -w) * half
        return v

    def _build_charts(self, which: str) -> dict[str, Chart]:
        alg = self.alg
        flips = self.data.chart_flips
        charts: dict[str, Chart] = {}
        for label in self.data.labels:
            pairs = []
            for slot, (a_idx, b_idx) in enumerate(self._orbit_tables[label]):
                a = alg.positives[a_idx - 1]
                flip = (label, slot) in flips
                u = self._chart_vector(alg.u_index(a), which, flip)
                v = self._chart_vector(alg.v_index(a), which, flip)
                if b_idx == a_idx:  # doubled root: one of u, v survives
                    cand = u if any(u) else v
                    pairs.append((self._chart_scale(cand, label), None))
                else:
                    pairs.append((self._chart_scale(u, label),
                                  self._chart_scale(v, label)))
            charts[label] = Chart(label, pairs)
        return charts

    def _chart_scale(self, v: Vec, label: str) -> Vec:
        """Normalize a chart vector to unit length (radical scale allowed),
        multiplying only its nonzero entries."""
        q = self.norm_sq(v)
        s = q.sqrt_if_expressible()
        if s is None:
            raise LiftFailure(f"chart vector norm {q} has no radical square root")
        inv = s.inv()
        return [x * inv if x else x for x in v]

    def m_basis(self) -> list[Vec]:
        return self._m_basis_ordered

    def in_m(self, v: Sequence[Scalar]) -> bool:
        """sigma v = -v; on a group model, where m is the whole algebra,
        every vector of its length."""
        return len(v) == self.alg.dim and self.terms_in_m(nonzeros(v))

    def terms_in_m(self, terms: Terms) -> bool:
        """in_m for a vector of the algebra's length, given by its terms: v +
        sigma v is held on the union of the supports of v and sigma v."""
        if self.sigma_roots is None:
            return True
        return not any(self._add_sigma(terms, dict(terms)).values())

    # -- geometry ----------------------------------------------------------

    def curvature(self, x: Vec, y: Vec, z: Vec) -> Vec:
        for v in (x, y, z):
            if not self.in_m(v):
                raise NotInM("curvature arguments must lie in m")
        return combine([-ONE], [self.alg.bracket(self.alg.bracket(x, y), z)])

    def chart_coords(self, v: Vec, label: str) -> list[Scalar]:
        """Complex chart coordinates of the m_label-component of v."""
        return [self.inner(v, u) + (ZERO if w is None
                                    else I * self.inner(v, w))
                for u, w in self.charts[label].pairs]

    def validate_involution(self) -> bool:
        """sigma^2 = id and automorphism property on all basis pairs."""
        if self.sigma_roots is None:
            return True
        alg, dim = self.alg, self.alg.dim
        cols = [[ZERO] * dim for _ in range(dim)]
        for k in range(dim):
            for i, w in self._sigma_cols[k]:
                cols[k][i] = w
        for k in range(dim):
            img = self.apply_sigma(cols[k])
            img[k] = img[k] - rat(1)
            if any(img):
                return False
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = self.apply_sigma(
                    alg.bracket(alg.basis_vec(i), alg.basis_vec(j)))
                rhs = alg.bracket(cols[i], cols[j])
                if lhs != rhs:
                    return False
        return True

    # -- complex structure (EIII) ------------------------------------------

    def complex_structure(self):
        """j in the 1-dim center of k with (ad j|m)^2 = -id, and its action.

        The sign is fixed so that J maps the first doubled-root chart vector
        to a negative multiple of the first restricted root dual.
        """
        if not self.data.hermitian:
            raise NotHermitian("only the Hermitian model carries J")
        if self._j_vec is None:
            self._j_vec = self._solve_j()
        return self._j_vec

    def _solve_j(self) -> Vec:
        alg = self.alg
        # the center of k sits inside the centralizer of the k-part of the
        # Cartan algebra: t \cap k plus the doubled-root k charts
        gens = self._t_eigenspace(ONE) + [self.k_charts["2l1"].pairs[0][0],
                     self.k_charts["2l2"].pairs[0][0]]
        # [sum c_g g, b] = 0 for the k rows b, one row at a time, until the
        # solutions c form at most a line, which bounds the centre
        eqs = Span()
        for b in self.k_rows:
            images = [alg.bracket(g, b) for g in gens]
            for eq in zip(*images):
                if any(eq):
                    eqs.add(eq)
            if eqs.dim >= len(gens) - 1:
                break
        if eqs.dim != len(gens) - 1:
            raise NotHermitian(f"center of k has dimension "
                               f"{len(gens) - eqs.dim}, not 1")
        j0 = combine(kernel(eqs.basis_terms(), len(gens))[0], gens)
        # the candidate spans the centre only if it commutes with all of k
        if any(any(alg.bracket(j0, b)) for b in self.k_rows):
            raise NotHermitian("center of k has dimension 0, not 1")
        # scale: (ad j|m)^2 = -id
        probe = self.charts["l1"].pairs[0][0]
        img = alg.bracket(j0, alg.bracket(j0, probe))
        pivot = next(i for i, x in enumerate(probe) if not x.is_zero())
        lam = img[pivot] / probe[pivot]
        if img != combine([lam], [probe]):
            raise NotHermitian("ad(j)^2 does not preserve the probe line")
        q = (-lam).sqrt_if_expressible()
        if q is None or q.is_zero():
            raise NotHermitian("center element cannot be scaled to a complex structure")
        j0 = combine([q.inv()], [j0])
        for x in self.m_rows:
            if alg.bracket(j0, alg.bracket(j0, x)) != combine([-ONE], [x]):
                raise NotHermitian("(ad j|m)^2 is not -id")
        # sign convention: <J(M_{2l1}(1)), l1_sharp> < 0
        val = self.inner(self.apply_J(self.charts["2l1"].pairs[0][0], j0),
                         self.sharp["l1"])
        if scalar_sign(val) > 0:
            j0 = combine([-ONE], [j0])
        return j0

    def apply_J(self, v: Vec, j: Vec | None = None) -> Vec:
        if j is None:
            j = self.complex_structure()
        if not self.in_m(v):
            raise NotInM("J acts on m only")
        return self.alg.bracket(j, v)

    def reference_sharp(self, label: str) -> Vec:
        """Restricted-root dual in the normalization of the quoted identities."""
        ratio = parse_scalar(self.data.reference_metric_ratio)
        return combine([ratio.inv()], [self.sharp[label]])

    # -- isotropy angle ----------------------------------------------------

    def angle_frame(self) -> tuple[Vec, Vec]:
        """Unit vectors (r0, e): phi = 0 ray and its orthogonal complement,
        the sums of the duals of the record's two label tuples, scaled."""
        if self._frame is None:
            sums = [combine([ONE] * len(labels),
                            [self.sharp[label] for label in labels])
                    for labels in self.data.angle_frame]
            self._frame = tuple(combine(
                [self.norm_sq(v).sqrt_if_expressible().inv()], [v])
                for v in sums)
        return self._frame

    def weyl_reduce(self, v: Vec) -> Vec:
        """Reflect v in restricted roots until it lies in the closed chamber."""
        sharps = [self.sharp[r.label] for r in self.restricted.positives]
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > 100:
                raise RuntimeError("Weyl reduction failed to stabilize")
            for h in sharps:
                ip = self.inner(v, h)
                if not ip.is_zero() and scalar_sign(ip) < 0:
                    c = rat(2) * ip / self.norm_sq(h)
                    v = combine([ONE, -c], [v, h])
                    changed = True
        return v

    def isotropy_angle(self, v: Vec) -> AngleDescriptor:
        if not any(v):
            raise ValueError("isotropy angle of the zero vector")
        if not self.a_span.contains(v):
            raise NotInM("isotropy angle takes a vector in the flat a")
        w = self.weyl_reduce(v)
        r0, e = self.angle_frame()
        num = self.inner(w, e)
        den = self.inner(w, r0)
        tan_sq = (num * num) / (den * den)
        name = None
        if tan_sq.is_rational():
            name = ANGLE_NAMES.get(tan_sq.rational_value())
        return AngleDescriptor(tan_sq=tan_sq, name=name)


@lru_cache(maxsize=None)
def build_space(name: str) -> SpaceModel:
    if name not in SPACES:
        raise ValueError(f"unknown space {name!r}")
    return SpaceModel(SPACES[name])
