"""Finite root systems: Cartan data, ordered positive roots, Gram matrix.

Roots are integer coordinate tuples over the simple roots.  Positive roots
are enumerated by closing the simple roots under root strings, height level
by height level; inside each new height the fresh roots appear in the order
(simple index ascending, parent root order) in which the closure discovers
them.  This ordering is part of the package's data contract (the rank-2 and
E6 conformance tables in the test suite pin it down).

Note on E6 numbering: the six simple roots are numbered 1,3,4,5,6 along the
chain with node 2 attached below node 4, i.e. NOT in Bourbaki order.  The
Cartan matrix below encodes that choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Root = tuple[int, ...]


class NotFiniteType(ValueError):
    pass


CARTAN_MATRICES: dict[str, list[list[int]]] = {
    "A2": [[2, -1], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],  # first root short, second long
    "F4": [[2, -1, 0, 0],
           [-1, 2, -1, 0],
           [0, -2, 2, -1],
           [0, 0, -1, 2]],
    # chain 1-3-4-5-6 with node 2 hanging off node 4
    "E6": [[2, 0, -1, 0, 0, 0],
           [0, 2, 0, -1, 0, 0],
           [-1, 0, 2, -1, 0, 0],
           [0, -1, -1, 2, -1, 0],
           [0, 0, 0, -1, 2, -1],
           [0, 0, 0, 0, -1, 2]],
}

# |positive roots| per type, checked against the enumeration by of_type
_POSITIVE_COUNTS = {"A2": 3, "G2": 6, "F4": 24, "E6": 36}


def pairing(beta: Root, i: int, cartan: Sequence[Sequence[int]]) -> int:
    """<beta, alpha_i^vee> = sum_j beta_j C[j][i], the eigenvalue of h_i on
    x_beta."""
    return sum(b * cartan[j][i] for j, b in enumerate(beta))


def enumerate_positive_roots(cartan: Sequence[Sequence[int]]) -> list[Root]:
    """All positive roots, in height-layered discovery order."""
    n = len(cartan)
    bound = 4 * n * n + 16  # generous for the finite types we admit
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    found: set[Root] = set(simple)
    ordered: list[Root] = list(simple)
    layer = list(simple)
    while layer:
        new: list[Root] = []
        for i in range(n):
            for beta in layer:
                p = 0
                lower = list(beta)
                lower[i] -= 1
                while tuple(lower) in found:
                    p += 1
                    lower[i] -= 1
                if p - pairing(beta, i, cartan) > 0:
                    higher = list(beta)
                    higher[i] += 1
                    cand = tuple(higher)
                    if cand not in found:
                        found.add(cand)
                        new.append(cand)
        ordered.extend(new)
        layer = new
        if len(found) > bound:
            raise NotFiniteType("root closure exceeded the finite-type bound")
    return ordered


def _symmetrizer(cartan: Sequence[Sequence[int]]) -> list[Fraction]:
    """d_i with d_i*C[i][j] = d_j*C[j][i]; normalized so min d = 1."""
    n = len(cartan)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * Fraction(cartan[j][i], cartan[i][j])
                stack.append(j)
    if any(x is None for x in d):
        raise NotFiniteType("disconnected Cartan matrix")
    m = min(x for x in d)  # type: ignore[type-var]
    return [x / m for x in d]  # type: ignore[operator]


class RootSystem:
    """Cartan data with ordered positive roots and a rational Gram matrix.

    gram[i][j] is (alpha_i, alpha_j) for simple roots, with the shortest
    simple root normalized to squared length 2.
    """

    def __init__(self, cartan: Sequence[Sequence[int]]):
        self.cartan = [list(row) for row in cartan]
        self.rank = len(self.cartan)
        self.positives = enumerate_positive_roots(self.cartan)
        d = _symmetrizer(self.cartan)
        # (alpha_i, alpha_j) = d_j * C[i][j]; symmetric by choice of d
        self.gram: list[list[Fraction]] = [
            [d[j] * self.cartan[i][j] for j in range(self.rank)]
            for i in range(self.rank)]

    @classmethod
    def of_type(cls, name: str) -> "RootSystem":
        if name not in CARTAN_MATRICES:
            raise ValueError(f"unknown root system type {name!r}")
        rs = cls(CARTAN_MATRICES[name])
        assert len(rs.positives) == _POSITIVE_COUNTS[name]
        return rs

    # -- queries -----------------------------------------------------------

    def all_roots(self) -> list[Root]:
        return self.positives + [tuple(-x for x in r) for r in self.positives]


@dataclass(frozen=True)
class RestrictedRoot:
    """A restricted root: label, coordinates over (l1, l2), multiplicity."""
    label: str
    coords: tuple[Fraction, ...]
    mult: int


@dataclass
class RestrictedRootSystem:
    """Rank-2 restricted system: its type and positive roots."""
    kind: str  # A2 | B2 | BC2 | G2
    positives: list[RestrictedRoot]

    def by_label(self, label: str) -> RestrictedRoot:
        for r in self.positives:
            if r.label == label:
                return r
        raise KeyError(label)

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "roots": [{"label": r.label,
                       "coords": [str(c) for c in r.coords],
                       "multiplicity": r.mult} for r in self.positives],
        }
