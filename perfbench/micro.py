"""Per-layer microbenchmarks on operands taken from real prototypes.

Rational operands are the nonzero entries of EIII prototype vectors; radical
operands are the irrational entries of G2group prototypes moved by
``torus_rotate``.  Bracket and span timings use the EIII (DIII) prototype, the
largest row of the catalog sweep.  Each figure is the median over repeats of
the mean time per call.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

from ltskit import catalog
from ltskit.spaces import build_space

REPEATS = 7
PAIRS = 2000


def _per_call(fn, items, unit: float) -> float:
    samples = []
    for _ in range(REPEATS):
        t = perf_counter()
        for item in items:
            fn(item)
        samples.append((perf_counter() - t) / len(items) / unit)
    return median(samples)


def _operands():
    e3, g2 = build_space("EIII"), build_space("G2group")
    rational = [x for lbl in ("(DIII)", "(Q)")
                for v in catalog.make_prototype(e3, lbl).basis
                for x in v if not x.is_zero()]
    radical = [x for lbl in ("(G)", "(A2)", "(AI)")
               for v in catalog.make_prototype(g2, lbl).basis
               for x in catalog.torus_rotate(g2, v, 1, 2)
               if not x.is_zero() and not x.is_rational()]
    return rational, radical


def run() -> dict[str, float]:
    rng = random.Random(0)
    rational, radical = _operands()
    rat_pairs = [(rng.choice(rational), rng.choice(rational))
                 for _ in range(PAIRS)]
    rad_pairs = [(rng.choice(radical), rng.choice(radical))
                 for _ in range(PAIRS)]
    ns, us = 1e-9, 1e-6
    out = {
        "scalars.mul_rational_ns": _per_call(lambda p: p[0] * p[1], rat_pairs, ns),
        "scalars.add_rational_ns": _per_call(lambda p: p[0] + p[1], rat_pairs, ns),
        "scalars.mul_radical_ns": _per_call(lambda p: p[0] * p[1], rad_pairs, ns),
        "scalars.add_radical_ns": _per_call(lambda p: p[0] + p[1], rad_pairs, ns),
        "scalars.inv_radical_ns": _per_call(lambda p: p[0].inv(), rad_pairs[:200], ns),
    }
    S = catalog.make_prototype(build_space("EIII"), "(DIII)")
    alg, basis = S.space.alg, S.basis
    pairs = [(basis[i], basis[j]) for i in range(len(basis))
             for j in range(i + 1, len(basis))]
    out["chevalley.bracket_us"] = _per_call(
        lambda p: alg.bracket(p[0], p[1]), pairs, us)
    span = S.span()
    probes = [alg.bracket(alg.bracket(*rng.choice(pairs)), rng.choice(basis))
              for _ in range(100)]
    out["linalg.span_contains_us"] = _per_call(span.contains, probes, us)
    return out
