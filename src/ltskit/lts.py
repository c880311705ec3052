"""Lie triple system verification and reporting.

A subspace S of the tangent model m is a Lie triple system (LTS) when
[[S, S], S] is contained in S.  This module decides that property exactly and
derives the full structural report of a verified LTS:

  * dimension,
  * rank together with an explicit maximal flat (abelian certificate),
  * restricted roots of the pair (S, flat) with multiplicities,
  * isotropy angle of the flat direction (rank 1),
  * complex / totally-real classification in the Hermitian model.

Flats are found by seeded sampling: for pseudo-random combinations v of the
basis the centralizer N(v) = {w in S : [v, w] = 0} is computed; an abelian
centralizer is itself a maximal flat (every flat through v lies inside N(v)),
so the first abelian hit is accepted and certified to extend greedily, by
vectors of a and then of its centralizer in m, to an ambient Cartan
subspace.  The sampler prefers candidates inside the reference
maximal flat a so that restricted roots can be matched against the ambient
restricted root system; restricted-root reporting requires such a flat.

Subspace files use one vector per line in chart coordinates, e.g.

    space: EIII
    a(1, 0)
    M[l1](1, 0, 0, 0) + M[l2](i, 0, 0, 0)
    sharp[l2](1) + M[2l2](1/2)

with scalars in the exact literal grammar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .linalg import (
    Span, Vec, combine, relations, vec_add, vec_is_zero, vec_scale, zeros,
)
from .scalars import ParseError, Parser, Scalar
from .spaces import (
    AngleDescriptor, NotHermitian, NotInM, RESTRICTED_LABELS, SpaceModel,
    build_space, scalar_sign,
)


class FlatSearchInconclusive(RuntimeError):
    pass


class NotAFlat(ValueError):
    pass


class NoComplexStructure(ValueError):
    pass


class NotClosed(ValueError):
    pass


class NotQuarterTurnCompatible(ValueError):
    pass


SubspaceFormatError = ParseError


class Subspace:
    """A subspace of m, stored as a reduced row basis with exact membership."""

    def __init__(self, space: SpaceModel, vectors: list[Vec]):
        self.space = space
        span = Span()
        for v in vectors:
            if not space.in_m(v):
                raise NotInM("subspace vectors must lie in m")
            span.add(v)
        self._span = span
        self.basis = span.basis()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> Span:
        return self._span

    def contains(self, v: Vec) -> bool:
        return self._span.contains(v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.space is other.space and self._span == other._span


@dataclass(frozen=True)
class SubRoot:
    """A restricted root of (S, flat): values on the flat basis, multiplicity.

    values[i] = alpha(h_i) for the stored flat basis (h_1, ..., h_r), with the
    first nonzero value normalized positive.  labels lists the ambient
    restricted roots whose restriction to the flat is +-alpha.
    """
    values: tuple[Scalar, ...]
    mult: int
    labels: tuple[str, ...]


# -- closure ---------------------------------------------------------------


def closure_defect(S: Subspace) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k) with [[b_i, b_j], b_k] outside S, if any."""
    alg = S.space.alg
    n = S.dim
    for i in range(n):
        for j in range(i + 1, n):
            pair = alg.bracket(S.basis[i], S.basis[j])
            if vec_is_zero(pair):
                continue
            for k in range(n):
                if not S.contains(alg.bracket(pair, S.basis[k])):
                    return (i, j, k)
    return None


def is_lts(S: Subspace) -> bool:
    return closure_defect(S) is None


# -- flats and rank --------------------------------------------------------


def _operator_kernel(basis: list[Vec], operators) -> list[Vec]:
    """Vectors w in span(basis) with op(w) = 0 for every op (Vec -> Vec)."""
    if not basis:
        return []
    images = [[x for op in operators for x in op(b)] for b in basis]
    return [combine(c, basis) for c in relations(images)]


def _centralizer_in(S: Subspace, v: Vec) -> list[Vec]:
    alg = S.space.alg
    return _operator_kernel(S.basis, [lambda w: alg.bracket(v, w)])


def _pairwise_abelian(alg, vectors: list[Vec]) -> bool:
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if not vec_is_zero(alg.bracket(vectors[i], vectors[j])):
                return False
    return True


def intersect_spans(rows1: list[Vec], rows2: list[Vec]) -> list[Vec]:
    """Basis of span(rows1) intersect span(rows2), in reduced echelon form."""
    if not rows1 or not rows2:
        return []
    n = len(rows1)
    return Span(combine(c[:n], rows1)
                for c in relations(rows1 + rows2)).basis()


_FLAT_BUDGET = 24  # seeded samples of the full basis; half as many inside a


def rank_and_flat(S: Subspace, seed: int = 0) -> tuple[int, Subspace]:
    """Rank of the LTS S and an explicit maximal flat inside it.

    Deterministic schedule: the basis of S intersected with the reference
    flat a, then seeded combinations of that intersection, then seeded
    combinations of the full basis.  A candidate v is accepted when its
    centralizer N(v) in S is abelian; N(v) is then a maximal flat.  The flat
    is cross-checked to extend to an ambient Cartan subspace of m.
    """
    sp = S.space
    if S.dim == 0:
        return 0, Subspace(sp, [])
    alg = sp.alg
    a_meet = intersect_spans(sp.a_basis, S.basis)
    rng = random.Random(seed)

    def schedule():
        for v in a_meet:
            yield v
        for _ in range(_FLAT_BUDGET // 2):
            if not a_meet:
                break
            yield combine([rng.randint(-3, 3) for _ in a_meet], a_meet)
        for _ in range(_FLAT_BUDGET):
            yield combine([rng.randint(-3, 3) for _ in S.basis], S.basis)

    for v in schedule():
        if vec_is_zero(v):
            continue
        cand = _centralizer_in(S, v)
        if not _pairwise_abelian(alg, cand):
            continue
        flat = Subspace(sp, cand)
        _check_ambient_cartan_extension(sp, flat)
        return flat.dim, flat
    raise FlatSearchInconclusive(
        f"no abelian centralizer found in {_FLAT_BUDGET} seeded samples "
        f"(seed={seed})")


def _check_ambient_cartan_extension(sp: SpaceModel, flat: Subspace) -> None:
    """Certify that the flat extends to a maximal abelian subspace of m.

    The flat grows greedily by commuting basis vectors of a, then, only if
    still short of the rank, of its centralizer in m.  That is not a
    complete search: it may reject a flat that does extend.
    """
    alg = sp.alg
    if not _pairwise_abelian(alg, flat.basis):
        raise NotAFlat("claimed flat is not abelian")

    def centralizer():
        ads = [lambda w, h=h: alg.bracket(h, w) for h in flat.basis]
        yield from _operator_kernel(sp._m_span.basis(), ads)

    candidates = chain(sp.a_basis, centralizer())
    ext = Span(flat.basis)
    ext_rows = list(flat.basis)
    while len(ext_rows) < len(sp.a_basis):
        w = next(candidates, None)
        if w is None:
            raise NotAFlat(
                "flat does not extend to an ambient Cartan subspace")
        if all(vec_is_zero(alg.bracket(w, u)) for u in ext_rows) \
                and ext.add(w):
            ext_rows.append(w)


# -- restricted roots of (S, flat) -----------------------------------------


def sub_restricted_roots(S: Subspace, flat: Subspace) -> list[SubRoot]:
    """Restricted roots of the pair (S, flat) with exact multiplicities.

    The flat must lie inside the reference maximal flat a, so that candidate
    restrictions can be read off the ambient restricted roots.  For each
    candidate alpha, the root space is the joint kernel of
    ad(h_i)^2 + alpha(h_i)^2 id (and the cross operator
    ad(h_1)ad(h_2) + alpha(h_1)alpha(h_2) id in rank 2) on S; it is verified
    to equal the intersection of S with the matching ambient root spaces.
    """
    sp = S.space
    alg = sp.alg
    for h in flat.basis:
        if not S.contains(h):
            raise NotAFlat("flat is not contained in the subspace")
        if not sp.a_span.contains(h):
            raise NotAFlat("flat must lie in the reference maximal flat")
    if not _pairwise_abelian(alg, flat.basis):
        raise NotAFlat("flat is not abelian")
    hs = flat.basis
    # candidate restrictions from the ambient restricted roots
    buckets: dict[tuple[Scalar, ...], list[str]] = {}
    for label in RESTRICTED_LABELS[sp.name]:
        vals = tuple(sp.inner(sp.sharp[label], h) for h in hs)
        if all(v.is_zero() for v in vals):
            continue
        key = _normalize_sign(vals)
        buckets.setdefault(key, []).append(label)
    out: list[SubRoot] = []
    for vals, labels in buckets.items():
        ops = []
        for h, c in zip(hs, vals):
            ops.append(lambda w, h=h, c=c: vec_add(
                alg.bracket(h, alg.bracket(h, w)), vec_scale(c * c, w)))
        if len(hs) == 2:
            h1, h2 = hs
            c12 = vals[0] * vals[1]
            ops.append(lambda w, h1=h1, h2=h2, c12=c12: vec_add(
                alg.bracket(h1, alg.bracket(h2, w)), vec_scale(c12, w)))
        space_vecs = _operator_kernel(S.basis, ops)
        if not space_vecs:
            continue
        ambient = []
        for label in labels:
            ambient.extend(sp.charts[label].basis_vectors())
        meet = intersect_spans(ambient, S.basis)
        if Span(space_vecs) != Span(meet):
            raise NotAFlat(
                "root space does not match the ambient intersection; "
                "the input is not an LTS flat pair")
        out.append(SubRoot(values=vals, mult=len(space_vecs), labels=tuple(labels)))
    return out


def _normalize_sign(vals: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    for v in vals:
        if not v.is_zero():
            if scalar_sign(v) < 0:
                return tuple(-x for x in vals)
            return tuple(vals)
    return tuple(vals)


def decomposition_checks(S: Subspace, flat: Subspace,
                         roots: list[SubRoot]) -> dict[str, bool]:
    """Structural invariants of the root-space decomposition of an LTS."""
    sp = S.space
    checks: dict[str, bool] = {}
    checks["exhaustive"] = S.dim == flat.dim + sum(r.mult for r in roots)
    # if an ambient restricted root vanishes on the flat, S is orthogonal to
    # its root space
    ortho = True
    for label in RESTRICTED_LABELS[sp.name]:
        if all(sp.inner(sp.sharp[label], h).is_zero() for h in flat.basis):
            for u in sp.charts[label].basis_vectors():
                if any(not sp.inner(u, b).is_zero() for b in S.basis):
                    ortho = False
    checks["orthogonal_to_vanishing_roots"] = ortho
    # multiplicity bounds against the ambient multiplicities, and the
    # dual-in-flat constraint for roots restricted from a unique ambient root
    bounds = True
    elementary = True
    fspan = flat.span()
    for r in roots:
        ambient_mults = [sp.restricted.by_label(lbl).mult for lbl in r.labels]
        if r.mult > sum(ambient_mults):
            bounds = False
        if len(r.labels) == 2 and r.mult > min(ambient_mults):
            bounds = False
        if len(r.labels) == 1 and not fspan.contains(sp.sharp[r.labels[0]]):
            elementary = False
    checks["multiplicity_bounds"] = bounds
    checks["unique_restriction_duals_in_flat"] = elementary
    return checks


# -- complex structure classification --------------------------------------


def complexity_class(S: Subspace) -> str:
    """'complex' if J(S) = S, 'totally_real' if J(S) is orthogonal to S."""
    sp = S.space
    try:
        j = sp.complex_structure()
    except NotHermitian as exc:
        raise NoComplexStructure(str(exc)) from exc
    imgs = [sp.apply_J(b, j) for b in S.basis]
    if all(S.contains(w) for w in imgs):
        return "complex"
    if all(sp.inner(w, b).is_zero() for w in imgs for b in S.basis):
        return "totally_real"
    return "neither"


# -- construction from closed sets of restricted roots ---------------------


def lts_from_closed_subsystem(sp: SpaceModel, labels) -> Subspace:
    """The Lie triple system associated with a closed set of restricted roots.

    labels: iterable of restricted root labels, optionally '-'-prefixed; the
    set is symmetrized under negation and must be closed under addition
    inside the ambient restricted root system.  The result is the span of
    the root duals together with the root spaces of the positive members;
    closure guarantees the triple-bracket property.
    """
    known = {r.label: tuple(r.coords) for r in sp.restricted.positives}
    coords_to_label = {}
    for lbl, co in known.items():
        coords_to_label[co] = lbl
        coords_to_label[tuple(-c for c in co)] = "-" + lbl
    chosen: set[tuple[Fraction, ...]] = set()
    for name in labels:
        base = name[1:] if name.startswith("-") else name
        if base not in known:
            raise NotClosed(f"unknown restricted root label {name!r}")
        co = known[base]
        chosen.add(co)
        chosen.add(tuple(-c for c in co))
    for x in chosen:
        for y in chosen:
            s = tuple(a + b for a, b in zip(x, y))
            if s in coords_to_label and s not in chosen:
                raise NotClosed(
                    f"{coords_to_label[x]} + {coords_to_label[y]} = "
                    f"{coords_to_label[s]} is missing from the set")
    vectors = []
    for lbl, co in known.items():
        if co in chosen:
            vectors.append(list(sp.sharp[lbl]))
            vectors.extend(sp.charts[lbl].basis_vectors())
    return Subspace(sp, vectors)


# -- quarter-turn isotropy rotations ---------------------------------------


def isotropy_rotate(sp: SpaceModel, Z: Vec, v: Vec) -> Vec:
    """Exact Ad(exp((pi/2) Z)) v for Z acting with rotation speeds 0 and 1.

    Requires ad(Z)^3 v = -ad(Z) v, i.e. the minimal polynomial of ad(Z) on
    the cyclic subspace of v divides x(x^2 + 1); the quarter turn is then
    v_0 + ad(Z) v_1 where v = v_0 + v_1 splits into the speed-0 and speed-1
    parts.
    """
    if sp.k_rows and not sp._k_span.contains(Z):
        raise NotInM("rotation generator must lie in the isotropy algebra k")
    alg = sp.alg
    w1 = alg.bracket(Z, v)
    w2 = alg.bracket(Z, w1)
    w3 = alg.bracket(Z, w2)
    if not vec_is_zero(vec_add(w3, w1)):
        raise NotQuarterTurnCompatible(
            "ad(Z) does not act with rotation speeds 0 and 1 on this vector")
    return vec_add(v, vec_add(w1, w2))


# -- reports ---------------------------------------------------------------


@dataclass
class LtsReport:
    space: str
    is_lts: bool
    dim: int
    certificate: tuple[int, int, int] | None = None
    rank: int | None = None
    flat: Subspace | None = None
    restricted: list[SubRoot] | None = None
    isotropy_angle: AngleDescriptor | None = None
    complexity: str | None = None
    checks: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def as_json(self) -> dict:
        out = {
            "space": self.space,
            "is_lts": self.is_lts,
            "dim": self.dim,
        }
        if not self.is_lts:
            out["failing_triple"] = list(self.certificate) if self.certificate else None
            return out
        out["rank"] = self.rank
        if self.restricted is not None:
            out["restricted"] = [
                {"values": [str(v) for v in r.values],
                 "multiplicity": r.mult,
                 "ambient": list(r.labels)} for r in self.restricted]
        if self.isotropy_angle is not None:
            out["isotropy_angle"] = str(self.isotropy_angle)
        if self.complexity is not None:
            out["complexity"] = self.complexity
        if self.checks:
            out["checks"] = dict(self.checks)
        if self.notes:
            out["notes"] = list(self.notes)
        return out

    def as_markdown(self) -> str:
        data = self.as_json()
        lines = [f"# LTS report: {self.space}", ""]
        for key, val in data.items():
            if key == "space":
                continue
            if key == "restricted":
                lines.append("- restricted roots:")
                for r in val:
                    lines.append(
                        f"  - alpha = ({', '.join(r['values'])}) "
                        f"mult {r['multiplicity']} from {'+'.join(r['ambient'])}")
            else:
                lines.append(f"- {key}: {val}")
        return "\n".join(lines) + "\n"


def analyze(S: Subspace, seed: int = 0) -> LtsReport:
    """Full report for a subspace: closure, rank, roots, angle, complexity."""
    sp = S.space
    defect = closure_defect(S)
    if defect is not None:
        return LtsReport(space=sp.name, is_lts=False, dim=S.dim, certificate=defect)
    report = LtsReport(space=sp.name, is_lts=True, dim=S.dim)
    if S.dim == 0:
        report.rank = 0
        report.restricted = []
        return report
    rank, flat = rank_and_flat(S, seed=seed)
    report.rank = rank
    report.flat = flat
    if all(sp.a_span.contains(h) for h in flat.basis):
        report.restricted = sub_restricted_roots(S, flat)
        report.checks = decomposition_checks(S, flat, report.restricted)
        if rank == 1:
            report.isotropy_angle = sp.isotropy_angle(flat.basis[0])
    else:
        report.notes.append(
            "flat not inside the reference maximal flat; restricted data skipped")
    if sp.name == "EIII":
        report.complexity = complexity_class(S)
    return report


# -- subspace files --------------------------------------------------------


def parse_vector(sp: SpaceModel, line: str) -> Vec:
    """One m-vector, a sum of terms a(...), M[label](...), sharp[label](c)."""
    total = zeros(sp.alg.dim)
    for head, label, args in Parser(line).read(Parser.vector):
        if head == "a" and label is None and len(args) == len(sp.a_basis):
            vec = combine(args, sp.a_basis)
        elif head == "M" and label in sp.charts:
            vec = sp.charts[label].map(*args)
        elif head == "sharp" and label in sp.sharp and len(args) == 1:
            vec = vec_scale(args[0], sp.sharp[label])
        else:
            term = head if label is None else f"{head}[{label}]"
            raise SubspaceFormatError(
                f"no term {term} with {len(args)} coordinate(s) in {sp.name}")
        total = vec_add(total, vec)
    return total


def parse_subspace(text: str) -> Subspace:
    """Subspace file: a header line naming the space, then one vector per line."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise SubspaceFormatError("empty subspace file")
    header = lines[0]
    if header.lower().startswith("space:"):
        header = header.split(":", 1)[1].strip()
    sp = build_space(header)
    vectors = [parse_vector(sp, line) for line in lines[1:]]
    return Subspace(sp, vectors)
