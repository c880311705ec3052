"""Exact linear algebra over the scalar field.

Vectors are dense lists of Scalar, matrices are lists of rows.  The dense
list is the public form: every vector the package hands out (a Subspace
basis, a bracket, a rotation, chart coordinates) is one, and the benchmark
harness reads them as such.  A vector that is mostly zeros also has a terms
form: (index, entry) pairs, which nonzeros returns in increasing index
without zeros, and which chevalley.bracket_terms takes and returns.  It is
the form of the hot loops, so a chain of brackets and membership tests
never scans a zero.  Where this module takes terms, they may come in any
order and hold zero entries, and entries at a repeated index add up, so a
Span.remainder dict is passed on as it stands.

Span is the one elimination.  It keeps the reduced row echelon form of
the rows added so far, which is unique, so every result below is
independent of the order in which rows arrive, and it keeps each row once,
in the sparse form its docstring describes.  Span.remainder is the one
reduction routine; contains and add are built on it, each in a terms form
(contains_terms, add_terms) and a dense one.  basis writes the rows out as
fresh dense lists and basis_terms as terms, and a vector v of the span is
combine([v[p] for p in pivots], basis()).

The linear systems are eliminations in a Span too.  kernel takes its rows
as terms over a given number of columns and reads each kernel vector off
the reduced rows; relations, the kernel of the matrix whose columns are
the given vectors, writes that matrix's rows from the vectors' terms;
solve (and coordinates through it) reads its solution off the rows at the
target column; and is_negative_definite adds a Gram matrix's rows in order
and decides the sign of each pivot.  combine is the matrix times a
coefficient vector, over the vectors' nonzero entries (combine_terms for
vectors given as terms).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

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


def kernel(rows: Iterable[Terms], n_cols: int) -> list[Vec]:
    """Basis of the right kernel of the n_cols-column matrix with these rows
    in the terms form: one vector per non-pivot column of the reduced
    echelon form, its pivot entries read off the rows' moves."""
    echelon = Span(width=n_cols)
    for row in rows:
        echelon.add_terms(row)
    moves = echelon._moves
    basis = {k: zeros(n_cols) for k in range(n_cols) if k not in moves}
    for k, v in basis.items():
        v[k] = ONE
    for p, move in moves.items():
        for k, x in move.items():
            basis[k][p] = x
    return list(basis.values())


def solve(rows: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> Vec | None:
    """One solution x of rows.x = target, or None when inconsistent."""
    if len(rows) != len(target):
        raise ValueError(f"{len(rows)} equations but {len(target)} targets")
    if not rows:
        return []
    n_cols = len(rows[0])
    moves = Span([list(r) + [t] for r, t in zip(rows, target)])._moves
    if n_cols in moves:
        return None
    x = zeros(n_cols)
    for p, move in moves.items():
        x[p] = -move.get(n_cols, ZERO)
    return x


# -- the matrix whose columns are the given vectors -------------------------


def combine(coeffs: Sequence[Scalar | int],
            vectors: Sequence[Sequence[Scalar]]) -> Vec:
    """sum_i coeffs[i] * vectors[i]; the list of vectors must not be empty.
    Only the nonzero entries of a vector with a nonzero coefficient are
    scaled and added."""
    return combine_terms(coeffs, [nonzeros(v) if c else ()
                                  for c, v in zip(coeffs, vectors)],
                         len(vectors[0]))


def combine_terms(coeffs: Sequence[Scalar | int], vectors: Sequence[Terms],
                  width: int) -> Vec:
    """combine for vectors in the terms form, written out in width
    entries."""
    out = zeros(width)
    for c, v in zip(coeffs, vectors):
        if c:
            for k, x in v:
                out[k] = out[k] + c * x
    return out


def is_negative_definite(gram: Sequence[Sequence[Scalar]]) -> bool:
    """Whether the real symmetric Gram matrix is negative definite.  Its rows
    go into a Span in order; while rows 0..i-1 hold pivots 0..i-1, row i's
    remainder is zero before column i, and its entry there is the LDL^T
    pivot.  The matrix is negative definite exactly when every pivot is
    negative, each sign decided exactly by scalar_sign."""
    span = Span(width=len(gram))
    for i, row in enumerate(gram):
        rest = span.remainder(nonzeros(row))
        if scalar_sign(rest.get(i, ZERO)) >= 0:
            return False
        span.add_terms(rest.items())
    return True


def relations(vectors: Sequence[Terms]) -> list[Vec]:
    """Basis of the coefficient vectors c with sum_i c_i vectors[i] = 0, for
    vectors in the terms form: the kernel of the matrix with these columns,
    whose rows are written here directly, one per index that the vectors'
    terms name.  With no such index every c is a relation."""
    rows: dict[int, list[tuple[int, Scalar]]] = {}
    for i, v in enumerate(vectors):
        for k, c in v:
            rows.setdefault(k, []).append((i, c))
    return kernel(rows.values(), len(vectors))


def coordinates(vectors: Sequence[Sequence[Scalar]],
                v: Sequence[Scalar]) -> Vec | None:
    """Coefficients c with combine(c, vectors) = v, or None if v is outside
    their span."""
    return solve([list(r) for r in zip(*vectors)], v)


class Span:
    """Row space with exact membership tests, built incrementally.

    The stored rows are in reduced row echelon form, so the coefficient of
    each row in a vector's reduction is the vector's own entry at that row's
    pivot.  Each row is kept once, by pivot, as its moves: a {column:
    entry} dict of the negated nonzero entries off its pivot, whose entry is
    1.  remainder, the one reduction routine, adds c * moves[p] for each
    term (p, c) of a vector at a pivot p and so touches only those rows and
    only their columns.  width is the length of the dense rows that basis
    writes: that of the first dense vector added, or given for a span that
    is fed terms only."""

    def __init__(self, vectors: Sequence[Sequence[Scalar]] = (),
                 width: int | None = None):
        self.width = width
        self._pivots: list[int] = []
        self._moves: dict[int, dict[int, Scalar]] = {}
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
            for j, x in move.items():
                prev = out.get(j)
                out[j] = c * x if prev is None else prev + c * x
        return out

    def contains_terms(self, terms: Terms) -> bool:
        return not any(self.remainder(terms).values())

    def add_terms(self, terms: Terms) -> bool:
        """Reduce the vector against the span; add the remainder.  True if
        dim grew."""
        rest = {k: x for k, x in self.remainder(terms).items() if x}
        if not rest:
            return False
        c = min(rest)
        inv = -rest.pop(c).inv()
        new = {k: x * inv for k, x in rest.items()}
        # keep rows fully reduced against each other: a row whose moves
        # hold f at c takes f times the new row's moves
        for move in self._moves.values():
            f = move.pop(c, None)
            if f is not None:
                for k, x in new.items():
                    y = move.get(k)
                    y = f * x if y is None else y + f * x
                    if y:
                        move[k] = y
                    else:
                        del move[k]
        self._pivots.insert(bisect_left(self._pivots, c), c)
        self._moves[c] = new
        return True

    def add(self, v: Sequence[Scalar]) -> bool:
        if self.width is None:
            self.width = len(v)
        return self.add_terms(nonzeros(v))

    def contains(self, v: Sequence[Scalar]) -> bool:
        return self.contains_terms(nonzeros(v))

    @property
    def dim(self) -> int:
        return len(self._pivots)

    @property
    def pivots(self) -> list[int]:
        """The pivot column of each stored row, in order, not a copy."""
        return self._pivots

    def basis(self) -> Mat:
        """The stored rows in pivot order, written out at width: fresh
        lists, so a caller may change them without changing the span."""
        out = []
        for p in self._pivots:
            row = zeros(self.width)
            row[p] = ONE
            for k, x in self._moves[p].items():
                row[k] = -x
            out.append(row)
        return out

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def basis_terms(self) -> list[list[tuple[int, Scalar]]]:
        """The stored rows in the terms form, in pivot order, each in
        increasing index: its pivot entry 1, then its negated moves."""
        moves = self._moves
        return [[(p, ONE), *((k, -x) for k, x in sorted(moves[p].items()))]
                for p in self._pivots]

    def __le__(self, other: "Span") -> bool:
        return all(other.contains_terms(t) for t in self.basis_terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Span):
            return NotImplemented
        return self.dim == other.dim and self <= other
