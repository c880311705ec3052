"""Lie triple system verification and reporting.

A subspace S of the tangent model m is a Lie triple system (LTS) when
[[S, S], S] is contained in S.  This module decides that property exactly and
derives the full structural report of a verified LTS:

  * dimension,
  * rank, the dimension of a maximal flat (rank_and_flat returns the flat),
  * restricted roots of the pair (S, flat) with multiplicities,
  * isotropy angle of the flat direction (rank 1),
  * complex / totally-real classification in the Hermitian model.

Closure is decided pair by pair: S is an LTS exactly when every pair
bracket [b_i, b_j] lies in the normalizer N(S) = {z in g : [z, S] in S},
which the Jacobi identity makes a subalgebra.  A subspace K of N(S) collects
each pair bracket that passed its n triple tests and its brackets with the
pairs that passed before it, and a pair inside K passes by linearity with no
triple bracket.  A pair outside N(S) is never inside K, so the first failing
basis triple is the one the plain loop over all triples would name.

The vectors are mostly zeros, so the hot loops of closure, of the flat
search, of the restricted roots and of the complex-type test keep them in
the terms form of linalg (increasing nonzero (index, entry) pairs): a
Subspace reads its rows' terms off its span once, and those stages read
them there; a bracket from chevalley.bracket_terms is the next bracket's
operand as it stands, and membership, coordinates and K's growth go through
Span's one reduction routine on those terms, which zero-tests only the
entries it touched.  The flat search's candidates and centralizers are
terms too, written out as dense vectors only for the accepted flat.  The
linear systems hand brackets and remainders to linalg.relations as terms
too.  The root spaces are kernels solved in S's own coordinates (n per
operator for dim S = n), not in the ambient ones, and each is compared with
S's intersection with the ambient root spaces in those coordinates too.  An
intersection with S reduces each row modulo S and solves for the
combinations whose remainders cancel, one unknown per row.  For a root
space the meet never becomes dense: a combination of the ambient rows that
lies in S has as coordinates the same combination of the rows' entries at
S's pivots, n numbers each.  The root candidates of the reference flat a
are computed once per model, each distinct SubRoot is made once and each
distinct list of them is kept as one tuple, so kept reports share their
roots.

Flats are found by seeded sampling: for pseudo-random combinations v of the
basis the centralizer N(v) = {w in S : [v, w] = 0} is computed; an abelian
centralizer is itself a maximal flat (every flat through v lies inside N(v)),
so the first abelian hit is accepted and needs no further certificate.  The
sampler prefers candidates inside the reference maximal flat a so that
restricted roots can be matched against the ambient restricted root system;
restricted-root reporting requires such a flat.

Subspace files use one vector per line in chart coordinates, e.g.

    space: EIII
    a(1, 0)
    M[l1](1, 0, 0, 0) + M[l2](i, 0, 0, 0)
    sharp[l2](1) + M[2l2](1/2)

with scalars in the exact literal grammar.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .linalg import (
    Span, Terms, Vec, combine, combine_terms, combine_to_terms, nonzeros,
    relations,
)
from .scalars import ONE, ParseError, Parser, Scalar, scalar_sign
from .spaces import (
    AngleDescriptor, NotHermitian, NotInM, SpaceModel, build_space,
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


class Subspace:
    """A subspace of m, stored as a reduced row basis with exact membership.

    Each input vector's terms are taken once, for the test that it lies in
    m and for the span.  The span is complete when __init__ returns, so
    basis (the span's rows written out as dense lists) and terms (the same
    rows as terms) are read off it once.
    """

    __slots__ = ("space", "_span", "basis", "terms")

    def __init__(self, space: SpaceModel, vectors: list[Vec]):
        self.space = space
        width = space.alg.dim
        span = Span(width=width)
        for v in vectors:
            terms = nonzeros(v)
            if len(v) != width or not space.terms_in_m(terms):
                raise NotInM("subspace vectors must lie in m")
            span.add_terms(terms)
        self._span = span
        self.basis = span.basis()
        self.terms = span.basis_terms()

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


@dataclass(frozen=True, slots=True)
class SubRoot:
    """A restricted root of (S, flat): values on the flat basis, multiplicity.

    values[i] = alpha(h_i) for the stored flat basis (h_1, ..., h_r), with the
    first nonzero value normalized positive.  labels lists the ambient
    restricted roots whose restriction to the flat is +-alpha.
    """
    values: tuple[Scalar, ...]
    mult: int
    labels: tuple[str, ...]


# Roots are values, and a long run keeps many reports, so each distinct root
# is made once and shared, as report.shared_report shares Cayley rows.
_SHARED_ROOTS: dict = {}


def _shared_root(values: tuple[Scalar, ...], mult: int,
                 labels: tuple[str, ...]) -> SubRoot:
    """The one SubRoot with these values, multiplicity and labels."""
    key = (values, mult, labels)
    root = _SHARED_ROOTS.get(key)
    if root is None:
        root = _SHARED_ROOTS[key] = SubRoot(values, mult, labels)
    return root


# -- closure ---------------------------------------------------------------


def closure_defect(S: Subspace) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k) with [[b_i, b_j], b_k] outside S, if any.

    S is an LTS exactly when every pair bracket lies in the normalizer
    N(S) = {z : [z, S] in S}.  The pairs are visited in the order of the
    plain triple loop.  A pair p that passes its n triple tests lies in
    N(S); it joins K, and so does [p, q] for each pair q that passed before
    it, which lies in N(S) too, since [[p, q], s] = [p, [q, s]] - [q, [p, s]]
    (one level, no closure under brackets).  So K is a subspace of N(S), and
    a pair bracket in K passes by linearity and is not bracketed with any
    b_k.  The first pair that fails is outside N(S), hence outside K, and is
    tested with k in order: the certificate is the triple loop's, found
    with O(n^2 + m * n + m^2) brackets for the m pairs tested and passed,
    where the triple loop makes O(n^3).  A pair and its brackets join K
    only after it passed, so a FAIL does no elimination work beyond
    membership tests.  Every vector stays in the terms form: the nonzero
    terms of each b_k are taken once, a pair bracket from
    chevalley.bracket_terms is the operand of its n triple brackets as it
    stands, and K and S test and add those terms directly
    (Span.contains_terms, Span.add_terms).
    """
    alg = S.space.alg
    n = S.dim
    span = S.span()
    terms = S.terms
    K = Span(width=alg.dim)
    passed: list[Terms] = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = alg.bracket_terms(terms[i], terms[j])
            if K.contains_terms(pair):
                continue
            for k in range(n):
                if not span.contains_terms(alg.bracket_terms(pair, terms[k])):
                    return (i, j, k)
            K.add_terms(pair)
            for q in passed:
                K.add_terms(alg.bracket_terms(pair, q))
            passed.append(pair)
    return None


def is_lts(S: Subspace) -> bool:
    return closure_defect(S) is None


# -- flats and rank --------------------------------------------------------


def _centralizer_in(S: Subspace, v: Terms) -> list[Terms]:
    """Basis of N(v) = {w in S : [v, w] = 0}, for v and the basis both in
    the terms form."""
    alg = S.space.alg
    return [combine_to_terms(c, S.terms) for c in relations(
        [alg.bracket_terms(v, b) for b in S.terms])]


def _pairwise_abelian(alg, terms: list[Terms]) -> bool:
    """Whether the vectors with these terms commute pairwise."""
    return not any(alg.bracket_terms(terms[i], terms[j])
                   for i in range(len(terms))
                   for j in range(i + 1, len(terms)))


def intersect_spans(rows: list[Vec], span: Span) -> list[Vec]:
    """Basis of span(rows) intersect span, in reduced echelon form: the
    combinations of the rows whose remainders modulo span cancel, solved
    over len(rows) unknowns."""
    terms = [nonzeros(r) for r in rows]
    return Span(combine_terms(c, terms, len(rows[0]))
                for c in _meet_relations(terms, span)).basis()


def _meet_relations(rows: list[Terms], span: Span) -> list[Vec]:
    """Basis of the coefficient vectors c with sum_i c_i rows[i] in span,
    for rows in the terms form: the relations of their remainders."""
    return relations([span.remainder(t).items() for t in rows])


_FLAT_BUDGET = 24  # seeded samples of the full basis; half as many inside a


def rank_and_flat(S: Subspace, seed: int = 0) -> tuple[int, Subspace]:
    """Rank of the LTS S and an explicit maximal flat inside it.

    Deterministic schedule: the basis of S intersected with the reference
    flat a, then seeded combinations of that intersection, then seeded
    combinations of the full basis.  A candidate v is accepted when its
    centralizer N(v) in S is abelian; N(v) is then a maximal flat, since
    every flat through v lies inside N(v), and the rank is its dimension.
    """
    sp = S.space
    if S.dim == 0:
        return 0, Subspace(sp, [])
    alg = sp.alg
    a_meet = [nonzeros(v) for v in intersect_spans(sp.a_basis, S.span())]
    rng = random.Random(seed)

    def schedule():  # each candidate in the terms form
        yield from a_meet
        for _ in range(_FLAT_BUDGET // 2):
            if not a_meet:
                break
            yield combine_to_terms([rng.randint(-3, 3) for _ in a_meet],
                                   a_meet)
        for _ in range(_FLAT_BUDGET):
            yield combine_to_terms([rng.randint(-3, 3) for _ in S.terms],
                                   S.terms)

    for v in schedule():
        if not v:
            continue
        cand = _centralizer_in(S, v)
        if not _pairwise_abelian(alg, cand):
            continue
        flat = Subspace(sp, [combine_terms([ONE], [w], alg.dim)
                             for w in cand])
        return flat.dim, flat
    raise FlatSearchInconclusive(
        f"no abelian centralizer found in {_FLAT_BUDGET} seeded samples "
        f"(seed={seed})")


@cache
def _reference_candidates(sp: SpaceModel) -> tuple[
        tuple[tuple[Scalar, ...], tuple[str, ...]], ...]:
    """The items of _root_candidates on the reduced basis of a, once per
    model and immutable: the reports whose flat is a share its value and
    label tuples."""
    return tuple(_root_candidates(sp, sp.a_span.basis()).items())


# -- restricted roots of (S, flat) -----------------------------------------


def sub_restricted_roots(S: Subspace, flat: Subspace) -> list[SubRoot]:
    """Restricted roots of the pair (S, flat) with exact multiplicities.

    The flat must lie inside the reference maximal flat a, so that candidate
    restrictions can be read off the ambient restricted roots.  For each
    candidate alpha, the root space is the joint kernel of
    ad(h_i)^2 + alpha(h_i)^2 id (and the cross operator
    ad(h_1)ad(h_2) + alpha(h_1)alpha(h_2) id in rank 2) on S; it is verified
    to equal the intersection of S with the matching ambient root spaces,
    both taken in S's coordinates.

    For an LTS S and h in S, every image ad(h_i)ad(h_j)b lies in S.  The
    images of the basis are computed once, in the terms form; an image
    outside S raises NotAFlat naming it.  One inside has as coordinates in
    S its entries at S's pivots, which are kept as terms at q*n + k for the
    q-th pair (i, j) and the k-th coordinate (n = dim S).  A candidate adds
    its shifts only at q*n + r, for the image of b_r itself, and relations
    solves a kernel on at most len(pairs) * n equations instead of
    len(pairs) * dim g ambient entries.  Coordinates are injective on S, so
    the kernel, and the reduced basis that relations returns for it, is the
    one of the ambient system, and two subspaces of S are equal exactly when
    their coordinate spans are.  A flat inside a of a's dimension is a, and
    its basis is a's reduced one, so its candidates are read from a table
    computed once per model (_reference_candidates).
    """
    sp = S.space
    alg = sp.alg
    for h in flat.basis:
        if not S.contains(h):
            raise NotAFlat("flat is not contained in the subspace")
        if not sp.a_span.contains(h):
            raise NotAFlat("flat must lie in the reference maximal flat")
    if not _pairwise_abelian(alg, flat.terms):
        raise NotAFlat("flat is not abelian")
    hs = flat.basis
    candidates = (_reference_candidates(sp) if flat.dim == len(sp.a_basis)
                  else _root_candidates(sp, hs).items())
    pairs = [(i, i) for i in range(len(hs))]
    if len(hs) == 2:
        pairs.append((0, 1))
    h_terms = flat.terms
    span = S.span()
    n = S.dim
    # a vector of S has as coordinates its entries at S's pivots
    coord = {p: k for k, p in enumerate(span.pivots)}
    shared = []
    for r, b_terms in enumerate(S.terms):
        ad_b = [alg.bracket_terms(h, b_terms) for h in h_terms]
        row = []
        for q, (i, j) in enumerate(pairs):
            image = alg.bracket_terms(h_terms[i], ad_b[j])
            if not span.contains_terms(image):
                raise NotAFlat(
                    f"ad(h{i + 1})ad(h{j + 1}) of basis vector {r} is not in "
                    "the subspace; the input is not an LTS flat pair")
            row += [(q * n + coord[k], x) for k, x in image if k in coord]
        shared.append(row)
    out: list[SubRoot] = []
    for vals, labels in candidates:
        shifts = [vals[i] * vals[j] for i, j in pairs]
        space_coords = relations([
            row + [(q * n + r, shift) for q, shift in enumerate(shifts)]
            for r, row in enumerate(shared)])
        if not space_coords:
            continue
        ambient = [t for label in labels for t in _chart_terms(sp, label)]
        # so does a combination of the ambient rows that lies in S
        heads = [[(coord[k], x) for k, x in t if k in coord]
                 for t in ambient]
        meet = [combine_terms(c, heads, n)
                for c in _meet_relations(ambient, span)]
        if Span(space_coords) != Span(meet):
            raise NotAFlat(
                "root space does not match the ambient intersection; "
                "the input is not an LTS flat pair")
        out.append(_shared_root(vals, len(space_coords), labels))
    return out


@cache
def _chart_terms(sp: SpaceModel, label: str) -> tuple[Terms, ...]:
    """The basis vectors of the ambient root space of label, in the terms
    form, once per model."""
    return tuple(nonzeros(v) for v in sp.charts[label].basis_vectors())


def _root_candidates(sp: SpaceModel, hs: list[Vec]) -> dict[
        tuple[Scalar, ...], tuple[str, ...]]:
    """Candidate restrictions to span(hs) of the ambient restricted roots:
    sign-normalized values on hs, each with the labels restricting to it."""
    buckets: dict[tuple[Scalar, ...], tuple[str, ...]] = {}
    for label in sp.data.labels:
        vals = tuple(sp.inner(sp.sharp[label], h) for h in hs)
        if all(v.is_zero() for v in vals):
            continue
        key = _normalize_sign(vals)
        buckets[key] = buckets.get(key, ()) + (label,)
    return buckets


def _normalize_sign(vals: tuple[Scalar, ...]) -> tuple[Scalar, ...]:
    for v in vals:
        if not v.is_zero():
            if scalar_sign(v) < 0:
                return tuple(-x for x in vals)
            return tuple(vals)
    return tuple(vals)


# Each distinct verdict mapping of decomposition_checks, made once and shared
# read-only by the reports that hold it.
_SHARED_CHECKS: dict = {}


def decomposition_checks(S: Subspace, flat: Subspace,
                         roots: Sequence[SubRoot]) -> Mapping[str, bool]:
    """Structural invariants of the root-space decomposition of an LTS, as
    a shared read-only mapping from check name to verdict."""
    sp = S.space
    checks: dict[str, bool] = {}
    checks["exhaustive"] = S.dim == flat.dim + sum(r.mult for r in roots)
    # if an ambient restricted root vanishes on the flat, S is orthogonal to
    # its root space
    ortho = True
    for label in sp.data.labels:
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
    return _SHARED_CHECKS.setdefault(tuple(checks.items()),
                                     MappingProxyType(checks))


# -- complex structure classification --------------------------------------


def complexity_class(S: Subspace) -> str:
    """'complex' if J(S) = S, 'totally_real' if J(S) is orthogonal to S."""
    sp = S.space
    try:
        j = sp.complex_structure()
    except NotHermitian as exc:
        raise NoComplexStructure(str(exc)) from exc
    alg, span, j_terms = sp.alg, S.span(), nonzeros(j)
    imgs = [alg.bracket_terms(j_terms, b) for b in S.terms]
    if all(span.contains_terms(w) for w in imgs):
        return "complex"
    dense = [combine_terms([ONE], [w], alg.dim) for w in imgs]
    if all(sp.inner(w, b).is_zero() for w in dense for b in S.basis):
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
    if sp.k_rows and sp.apply_sigma(Z) != Z:
        raise NotInM("rotation generator must lie in the isotropy algebra k")
    alg = sp.alg
    w1 = alg.bracket(Z, v)
    w2 = alg.bracket(Z, w1)
    w3 = alg.bracket(Z, w2)
    if any(combine([ONE, ONE], [w3, w1])):
        raise NotQuarterTurnCompatible(
            "ad(Z) does not act with rotation speeds 0 and 1 on this vector")
    return combine([ONE, ONE, ONE], [v, w1, w2])


# -- reports ---------------------------------------------------------------


@dataclass(slots=True)
class LtsReport:
    space: str
    is_lts: bool
    dim: int
    certificate: tuple[int, int, int] | None = None
    rank: int | None = None
    restricted: tuple[SubRoot, ...] | None = None
    isotropy_angle: AngleDescriptor | None = None
    complexity: str | None = None
    checks: Mapping[str, bool] = field(default_factory=dict)
    notes: tuple[str, ...] = ()

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


# Each distinct root list of a report, kept as one tuple and shared by the
# reports that hold it, as _SHARED_CHECKS shares the verdicts.
_SHARED_RESTRICTED: dict = {}


def analyze(S: Subspace, seed: int = 0) -> LtsReport:
    """Full report for a subspace: closure, rank, roots, angle, complexity."""
    sp = S.space
    defect = closure_defect(S)
    if defect is not None:
        return LtsReport(space=sp.name, is_lts=False, dim=S.dim, certificate=defect)
    report = LtsReport(space=sp.name, is_lts=True, dim=S.dim)
    if S.dim == 0:
        report.rank = 0
        report.restricted = ()
        return report
    rank, flat = rank_and_flat(S, seed=seed)
    report.rank = rank
    if all(sp.a_span.contains(h) for h in flat.basis):
        roots = tuple(sub_restricted_roots(S, flat))
        report.restricted = _SHARED_RESTRICTED.setdefault(roots, roots)
        report.checks = decomposition_checks(S, flat, roots)
        if rank == 1:
            report.isotropy_angle = sp.isotropy_angle(flat.basis[0])
    else:
        report.notes = (
            "flat not inside the reference maximal flat; restricted data "
            "skipped",)
    if sp.data.hermitian:
        report.complexity = complexity_class(S)
    return report


# -- subspace files --------------------------------------------------------


def parse_vector(sp: SpaceModel, line: str) -> Vec:
    """One m-vector, a sum of terms a(...), M[label](...), sharp[label](c)."""
    coeffs: list[Scalar] = []
    vectors: list[Vec] = []
    for head, label, args in Parser(line).read(Parser.vector):
        if head == "a" and label is None and len(args) == len(sp.a_basis):
            cs, vs = args, sp.a_basis
        elif head == "M" and label in sp.charts:
            cs, vs = [ONE], [sp.charts[label].map(*args)]
        elif head == "sharp" and label in sp.sharp and len(args) == 1:
            cs, vs = args, [sp.sharp[label]]
        else:
            term = head if label is None else f"{head}[{label}]"
            raise ParseError(
                f"no term {term} with {len(args)} coordinate(s) in {sp.name}")
        coeffs += cs
        vectors += vs
    return combine(coeffs, vectors)


def parse_subspace(text: str) -> Subspace:
    """Subspace file: a header line naming the space, then one vector per line."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty subspace file")
    header = lines[0]
    if header.lower().startswith("space:"):
        header = header.split(":", 1)[1].strip()
    sp = build_space(header)
    vectors = [parse_vector(sp, line) for line in lines[1:]]
    return Subspace(sp, vectors)
