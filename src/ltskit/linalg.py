"""Exact linear algebra over the scalar field.

Vectors are dense lists of Scalar, matrices are lists of rows.  Span is the
one Gauss-Jordan elimination: it keeps the reduced row echelon form of the
rows added so far, which is unique, so every result below is independent of
the order in which rows arrive.  Each stored row carries its support (its
nonzero columns), and reducing a vector against a row, or a row against a
new one, updates only those columns in place; the vectors are mostly zeros,
and a - f*0 would leave the others unchanged anyway.  kernel and solve read
the pivots and rows of a Span built from their input rows; its dim is the
rank of its rows.  basis hands out the stored rows themselves, and coords
gives a vector's coordinates in them, so a system over a subspace can be
solved in its dim coordinates.  nonzeros gives the support-with-entries form of any vector,
which the sparse bracket kernel (chevalley.bracket_terms) takes as operands.

Beside them sit three helpers for the matrix whose columns are a list of
vectors: combine (the matrix times a coefficient vector), relations (its
kernel) and coordinates (one solution of a system with it).  Callers state
"which combination of these vectors" through them instead of building a
transposed coordinate system by hand.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .scalars import Scalar, ZERO, ONE

Vec = list[Scalar]
Mat = list[list[Scalar]]


def zeros(n: int) -> Vec:
    return [ZERO] * n


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
    return [a + b for a, b in zip(u, v)]


def vec_sub(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
    return [a - b for a, b in zip(u, v)]


def vec_scale(c: Scalar, v: Sequence[Scalar]) -> Vec:
    return [c * a for a in v]


def vec_is_zero(v: Sequence[Scalar]) -> bool:
    return not any(v)


def nonzeros(v: Sequence[Scalar]) -> list[tuple[int, Scalar]]:
    """The support of v with its entries: the (k, v[k]) with v[k] != 0, in
    increasing k."""
    return [(k, c) for k, c in enumerate(v) if c]


def kernel(rows: Sequence[Sequence[Scalar]]) -> list[Vec]:
    """Basis of the right kernel of the matrix with the given rows: one
    vector per non-pivot column of the reduced echelon form."""
    if not rows:
        return []
    n_cols = len(rows[0])
    echelon = Span(rows)
    basis: list[Vec] = []
    for free in range(n_cols):
        if free in echelon._pivots:
            continue
        v = zeros(n_cols)
        v[free] = ONE
        for row, pc in zip(echelon._rows, echelon._pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def solve(rows: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> Vec | None:
    """One solution x of rows.x = target, or None when inconsistent."""
    if not rows:
        return [] if vec_is_zero(target) else None
    n_cols = len(rows[0])
    echelon = Span([list(r) + [t] for r, t in zip(rows, target)])
    if echelon._pivots and echelon._pivots[-1] == n_cols:
        return None
    x = zeros(n_cols)
    for row, pc in zip(echelon._rows, echelon._pivots):
        x[pc] = row[n_cols]
    return x


# -- the matrix whose columns are the given vectors -------------------------


def combine(coeffs: Sequence[Scalar | int],
            vectors: Sequence[Sequence[Scalar]]) -> Vec:
    """sum_i coeffs[i] * vectors[i]; the list of vectors must not be empty."""
    out = zeros(len(vectors[0]))
    for c, v in zip(coeffs, vectors):
        if c:
            out = [a + c * b for a, b in zip(out, v)]
    return out


def relations(vectors: Sequence[Sequence[Scalar]]) -> list[Vec]:
    """Basis of the coefficient vectors c with combine(c, vectors) = 0."""
    rows = [list(r) for r in zip(*vectors) if not vec_is_zero(r)]
    if not rows:
        n = len(vectors)
        return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    return kernel(rows)


def coordinates(vectors: Sequence[Sequence[Scalar]],
                v: Sequence[Scalar]) -> Vec | None:
    """Coefficients c with combine(c, vectors) = v, or None if v is outside
    their span."""
    return solve([list(r) for r in zip(*vectors)], v)


class Span:
    """Row space with exact membership tests, built incrementally.

    Each stored row is kept with its support, the increasing list of its
    nonzero columns, and a row operation touches only those columns."""

    def __init__(self, vectors: Sequence[Sequence[Scalar]] = ()):
        self._rows: Mat = []
        self._pivots: list[int] = []
        self._supports: list[list[int]] = []
        for v in vectors:
            self.add(v)

    def add(self, v: Sequence[Scalar]) -> bool:
        """Reduce v against the span; add the remainder.  True if dim grew."""
        w = self._reduce(list(v))
        support = [k for k, x in enumerate(w) if x]
        if not support:
            return False
        c = support[0]
        inv = w[c].inv()
        for k in support:
            w[k] = w[k] * inv
        # keep rows fully reduced against each other
        for row, sup in zip(self._rows, self._supports):
            f = row[c]
            if f:
                for k in support:
                    row[k] = row[k] - f * w[k]
                sup[:] = [k for k in sorted(set(sup).union(support)) if row[k]]
        pos = bisect_left(self._pivots, c)
        self._rows.insert(pos, w)
        self._pivots.insert(pos, c)
        self._supports.insert(pos, support)
        return True

    def _reduce(self, v: Vec) -> Vec:
        """Subtract the stored rows from v in place; v's pivot entries end 0."""
        for row, pc, sup in zip(self._rows, self._pivots, self._supports):
            f = v[pc]
            if f:
                for k in sup:
                    v[k] = v[k] - f * row[k]
        return v

    def contains(self, v: Sequence[Scalar]) -> bool:
        return vec_is_zero(self._reduce(list(v)))

    def coords(self, v: Sequence[Scalar]) -> Vec | None:
        """Coefficients of v in the stored reduced basis, or None."""
        w = list(v)
        coeffs = [w[pc] for pc in self._pivots]
        self._reduce(w)
        return coeffs if vec_is_zero(w) else None

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> Mat:
        """The stored rows, in pivot order, not copies: a later add changes
        them in place, and a caller must not change them."""
        return self._rows

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def __le__(self, other: "Span") -> bool:
        return all(other.contains(r) for r in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.dim == other.dim and self <= other
