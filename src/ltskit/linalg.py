"""Exact linear algebra over the scalar field.

Vectors are dense lists of Scalar, matrices are lists of rows.  The dense
list is the public form: every vector the package hands out (a Subspace
basis, a bracket, a rotation, chart coordinates) is one, and the benchmark
harness reads them as such.  A vector that is mostly zeros also has a terms
form: the increasing list of its nonzero (index, entry) pairs, which
nonzeros returns and the bracket kernel chevalley.bracket_terms takes and
returns.  The terms form is that of the hot loops, so a chain of brackets
and membership tests never scans a zero.

Span is the one Gauss-Jordan elimination: it keeps the reduced row echelon
form of the rows added so far, which is unique, so every result below is
independent of the order in which rows arrive.  In that form the
coefficient of a stored row in a vector's reduction is the vector's own
entry at the row's pivot, so Span.remainder, the one reduction routine,
looks rows up by the pivots in the vector's support and touches only their
nonzero columns.  contains, coords and add are built on it, each in a terms
form (contains_terms, coords_terms, add_terms) and a dense one that takes
the nonzeros of its vector.  kernel and solve read the pivots and rows of a
Span built from their input rows; its dim is the rank of its rows.  basis
hands out the stored rows themselves, and coords gives a vector's
coordinates in them, so a system over a subspace can be solved in its dim
coordinates.

is_negative_definite decides the sign of a Gram matrix by its LDL^T
pivots.  Beside them sit helpers for the matrix whose columns are a list of
vectors: combine (the matrix times a coefficient vector), relations (its
kernel) and coordinates (one solution of a system with it), and on_support,
which writes sparse vectors densely over the union of their supports so
that relations sees no column of zeros.  Callers state "which combination
of these vectors" through them instead of building a transposed coordinate
system by hand.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from .scalars import Scalar, ZERO, ONE, scalar_sign

Vec = list[Scalar]
Mat = list[list[Scalar]]
Terms = Sequence[tuple[int, Scalar]]


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
    if len(rows) != len(target):
        raise ValueError(f"{len(rows)} equations but {len(target)} targets")
    if not rows:
        return []
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


def is_negative_definite(gram: Sequence[Sequence[Scalar]]) -> bool:
    """Whether the real symmetric Gram matrix is negative definite, by LDL^T
    without pivoting: it is exactly when every pivot is negative, each sign
    decided exactly by scalar_sign."""
    m = [list(row) for row in gram]
    n = len(m)
    for i in range(n):
        d = m[i][i]
        if scalar_sign(d) >= 0:
            return False
        for j in range(i + 1, n):
            if m[j][i]:
                f = m[j][i] / d
                for k in range(i + 1, n):
                    m[j][k] = m[j][k] - f * m[i][k]
    return True


def relations(vectors: Sequence[Sequence[Scalar]]) -> list[Vec]:
    """Basis of the coefficient vectors c with combine(c, vectors) = 0."""
    rows = [list(r) for r in zip(*vectors) if not vec_is_zero(r)]
    if not rows:
        n = len(vectors)
        return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    return kernel(rows)


def on_support(vectors: Sequence[dict[int, Scalar]]) -> Mat:
    """Sparse vectors, given as index -> entry maps, as dense vectors over
    the sorted union of their indices: the columns left out are zero in
    every vector, so the relations are the same."""
    cols = sorted(set().union(*vectors))
    return [[v.get(k, ZERO) for k in cols] for v in vectors]


def coordinates(vectors: Sequence[Sequence[Scalar]],
                v: Sequence[Scalar]) -> Vec | None:
    """Coefficients c with combine(c, vectors) = v, or None if v is outside
    their span."""
    return solve([list(r) for r in zip(*vectors)], v)


class Span:
    """Row space with exact membership tests, built incrementally.

    The stored rows are in reduced row echelon form, so the coefficient of
    each row in a vector's reduction is the vector's own entry at that row's
    pivot.  Beside its dense form each row is kept, by pivot, as its moves:
    the negated nonzero entries off its pivot.  remainder, the one reduction
    routine, adds c * moves[p] for each term (p, c) of a vector at a pivot p
    and so touches only those rows and only their columns.  width is the
    length of the dense rows: that of the first dense vector added, or given
    for a span that is fed terms only."""

    def __init__(self, vectors: Sequence[Sequence[Scalar]] = (),
                 width: int | None = None):
        self.width = width
        self._rows: Mat = []
        self._pivots: list[int] = []
        self._moves: dict[int, Terms] = {}
        for v in vectors:
            self.add(v)

    def remainder(self, terms: Terms) -> dict[int, Scalar]:
        """The vector with these nonzero terms (increasing or not) minus the
        stored rows at its pivots.  Its pivot entries end exactly 0 and are
        left out, so the dict holds the other columns it touched; its
        values, zeros included, are the only entries left to zero-test."""
        moves = self._moves
        out: dict[int, Scalar] = {}
        for k, c in terms:
            move = moves.get(k)
            if move is None:
                prev = out.get(k)
                out[k] = c if prev is None else prev + c
                continue
            for j, x in move:
                prev = out.get(j)
                out[j] = c * x if prev is None else prev + c * x
        return out

    def contains_terms(self, terms: Terms) -> bool:
        return not any(self.remainder(terms).values())

    def coords_terms(self, terms: Terms) -> Vec | None:
        """Coefficients in the stored reduced basis of the vector with these
        terms, or None if it lies outside the span."""
        if any(self.remainder(terms).values()):
            return None
        at = dict(terms)
        return [at.get(p, ZERO) for p in self._pivots]

    def add_terms(self, terms: Terms) -> bool:
        """Reduce the vector against the span; add the remainder.  True if
        dim grew."""
        w = sorted((k, x) for k, x in self.remainder(terms).items() if x)
        if not w:
            return False
        c, lead = w[0]
        inv = lead.inv()
        w = [(k, x * inv) for k, x in w]
        cols = {k for k, _ in w}
        # keep rows fully reduced against each other
        for row, p in zip(self._rows, self._pivots):
            f = row[c]
            if f:
                for k, x in w:
                    row[k] = row[k] - f * x
                touched = cols.union(k for k, _ in self._moves[p])
                self._moves[p] = [(k, -row[k]) for k in sorted(touched)
                                  if k != p and row[k]]
        row = zeros(self.width)
        for k, x in w:
            row[k] = x
        pos = bisect_left(self._pivots, c)
        self._rows.insert(pos, row)
        self._pivots.insert(pos, c)
        self._moves[c] = [(k, -x) for k, x in w[1:]]
        return True

    def add(self, v: Sequence[Scalar]) -> bool:
        if self.width is None:
            self.width = len(v)
        return self.add_terms(nonzeros(v))

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.contains_terms(nonzeros(v))

    def coords(self, v: Sequence[Scalar]) -> Vec | None:
        return self.coords_terms(nonzeros(v))

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        """The pivot column of each stored row, in order, not a copy."""
        return self._pivots

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
