"""Reference constructions by the generic definitions: the Killing form as
the trace of ad_i ad_j over the structure table, and k, m as the kernels of
the dense matrices sigma - id and sigma + id, with sigma the dense matrix of
the complex route.

ltskit.chevalley writes the Killing form down in closed form and
ltskit.spaces writes sigma -+ id from sigma's sparse signed columns; these
are the long way round, kept only so the tests can compare the two exactly.
"""

from complex_route import involution_matrix
from ltskit.chevalley import ChevalleyAlgebra
from ltskit.linalg import kernel
from ltskit.roots import RootSystem
from ltskit.scalars import ZERO, rat
from ltskit.spaces import SpaceModel


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


def dense_sigma_kernels(sigma_matrix) -> tuple[list, list]:
    """(k_rows, m_rows): the kernels of the dense sigma - id and sigma + id."""
    dim = len(sigma_matrix)
    plus = [[rat(sigma_matrix[i][j] - (1 if i == j else 0))
             for j in range(dim)] for i in range(dim)]
    minus = [[rat(sigma_matrix[i][j] + (1 if i == j else 0))
              for j in range(dim)] for i in range(dim)]
    return kernel(plus), kernel(minus)


class GenericRouteModel(SpaceModel):
    """An E6 space model built on the generic constructions: its own E6
    algebra with the traced Killing rows, and k, m from the dense kernels
    of the complex route's sigma."""

    def __init__(self, name: str):
        self.name = name
        self.alg = ChevalleyAlgebra(RootSystem.of_type("E6"))
        self.alg._killing = trace_killing(self.alg)
        self._build_e6_model()
        self._finalize()

    def _build_e6_model(self):
        super()._build_e6_model()
        sigma = involution_matrix(self.alg, self.sigma_roots,
                                  {a: rat(e) for a, e in self.signs.items()})
        self.k_rows, self.m_rows = dense_sigma_kernels(sigma)
