"""Seeded inputs: subspace files for the ``lts check`` seed check of
``selfcheck.py`` and exact group elements for the ``models`` workload.

Two kinds of subspace file, written in the chart syntax that
``ltskit lts check`` reads:

* every G2group catalog prototype, moved by the flat-torus isometry
  ``torus_rotate`` with seeded angles.  The rotation brings in sqrt(3) and
  other radical entries but is an isometry fixing the flat, so the file must
  keep the catalog row's dim, rank, multiplicities and angle;
* random spans of EIII chart vectors with small rational coefficients,
  redrawn in the rare case that one is bracket-closed, so the check exits 1
  early with a failing triple.

The group elements are exact: products of plane rotations with Pythagorean
cosines and sines, and unit phases, so unitarity holds with no rounding.

The same seed gives byte-identical files and equal group elements.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from ltskit import catalog, lts
from ltskit.cayley import C_ONE, C_ZERO, CNum, PYTHAGOREAN_QUATERNIONS, Q_ONE, \
    Q_ZERO, Quaternion
from ltskit.scalars import I, rat
from ltskit.spaces import RESTRICTED_LABELS, build_space

SPANS_PER_PASS = 12
SPAN_DIM = (3, 5)
COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Case:
    """One input file.  ``row`` is the catalog row a rotated prototype must
    reproduce; it is None for a non-closed span."""

    path: str
    label: str
    row: catalog.ExpectedRow | None


def vector_text(sp, v) -> str:
    """Chart syntax for an m-vector: its flat part as ``a(...)`` and one
    ``M[label](...)`` term per restricted root space it meets."""
    terms = []
    flat = [sp.inner(v, list(z)) for z in sp.a_basis]
    if any(not c.is_zero() for c in flat):
        terms.append("a(" + ", ".join(map(str, flat)) + ")")
    for label in RESTRICTED_LABELS[sp.name]:
        coords = sp.chart_coords(v, label)
        if any(not c.is_zero() for c in coords):
            terms.append(f"M[{label}](" + ", ".join(map(str, coords)) + ")")
    return " + ".join(terms)


def _file_text(sp, vectors) -> str:
    return "\n".join([f"space: {sp.name}"]
                     + [vector_text(sp, v) for v in vectors]) + "\n"


def _rotated_prototypes(rng: random.Random):
    sp = build_space("G2group")
    for row in catalog.expected_rows("G2group"):
        if row.opaque:
            continue
        n1, n2 = rng.randrange(12), rng.randrange(12)
        S = catalog.make_prototype(sp, row.label)
        vecs = [catalog.torus_rotate(sp, v, n1, n2) for v in S.basis]
        yield f"{row.label.text} rotated ({n1}, {n2})", row, _file_text(sp, vecs)


def _random_coord(rng: random.Random, real: bool):
    c = rat(rng.choice(COEFFS), rng.choice((1, 2)))
    if real or rng.random() < 0.5:
        return c
    return c + I * rat(rng.choice(COEFFS))


def _random_span_text(rng: random.Random, sp) -> str:
    lines = []
    for _ in range(rng.randint(*SPAN_DIM)):
        terms = []
        for label in rng.sample(RESTRICTED_LABELS[sp.name], 2):
            chart = sp.charts[label]
            real = chart.pairs[0][1] is None
            coords = ["0"] * chart.arity
            coords[rng.randrange(chart.arity)] = str(_random_coord(rng, real))
            terms.append(f"M[{label}](" + ", ".join(coords) + ")")
        lines.append(" + ".join(terms))
    return f"space: {sp.name}\n" + "\n".join(lines) + "\n"


def _random_spans(rng: random.Random):
    """Random EIII spans; the rare draw that happens to be bracket-closed
    is redrawn, so every file must fail closure."""
    sp = build_space("EIII")
    for k in range(SPANS_PER_PASS):
        text = _random_span_text(rng, sp)
        while lts.is_lts(lts.parse_subspace(text)):
            text = _random_span_text(rng, sp)
        yield f"EIII random span {k}", None, text


def generate(seed: int, out_dir: Path) -> list[Case]:
    """Write this seed's input files under ``out_dir``, in seeded order."""
    rng = random.Random(seed)
    made = list(_rotated_prototypes(rng)) + list(_random_spans(rng))
    rng.shuffle(made)
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("*.sub"):
        old.unlink()
    cases = []
    for k, (label, row, text) in enumerate(made):
        path = out_dir / f"{k:02d}.sub"
        path.write_text(text, encoding="utf-8")
        cases.append(Case(str(path), label, row))
    return cases


# -- exact group elements for the models workload ---------------------------

TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25))


def _cos_sin(rng: random.Random) -> tuple[Fraction, Fraction]:
    a, b, c = rng.choice(TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    return Fraction(a, c), Fraction(b, c)


def _identity(n: int, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _matmul(A, B, zero):
    n = len(A)
    return [[sum((A[i][t] * B[t][j] for t in range(n)), zero)
             for j in range(n)] for i in range(n)]


def _rotation(n, rng, one, zero, lift):
    p, q = rng.sample(range(n), 2)
    c, s = _cos_sin(rng)
    R = _identity(n, one, zero)
    R[p][p], R[q][q], R[p][q], R[q][p] = lift(c), lift(c), lift(-s), lift(s)
    return R


def unitary6(rng: random.Random):
    """An exact unitary 6x6 complex matrix: two plane rotations and a phase."""
    M = _matmul(_rotation(6, rng, C_ONE, C_ZERO, CNum),
                _rotation(6, rng, C_ONE, C_ZERO, CNum), C_ZERO)
    P = _identity(6, C_ONE, C_ZERO)
    c, s = _cos_sin(rng)
    k = rng.randrange(6)
    P[k][k] = CNum(c, s)
    return _matmul(M, P, C_ZERO)


def sp4(rng: random.Random):
    """An exact quaternionic unitary 4x4 matrix: a plane rotation times a
    diagonal unit quaternion."""
    R = _rotation(4, rng, Q_ONE, Q_ZERO, Quaternion)
    D = _identity(4, Q_ONE, Q_ZERO)
    k = rng.randrange(4)
    D[k][k] = rng.choice(PYTHAGOREAN_QUATERNIONS)
    return _matmul(R, D, Q_ZERO)


def apply(A, u) -> tuple:
    return tuple(sum((A[i][j] * u[j] for j in range(len(u))), C_ZERO)
                 for i in range(len(A)))


def orthonormal_plane(rng: random.Random) -> tuple[tuple, tuple]:
    """Two exactly orthonormal complex 6-vectors: columns of a unitary."""
    U = unitary6(rng)
    return tuple(r[0] for r in U), tuple(r[1] for r in U)
