"""The benchmark's workloads: operation lists, traced layers and checks.

Each workload has two operation lists, both driven through public ``ltskit``
functions looked up on their module at call time (so a tracer's patches
apply):

* ``run_pass`` -- a short fixed list, repeated for the whole measuring
  window of an untraced run, so that one run holds many passes;
* ``run_profile`` -- the full user job the pass samples, run once under the
  tracer for the per-layer numbers.

Every output is checked after the timed region, so checking costs no
measured time and a traced run counts only the program's own calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from ltskit import catalog, cayley, cli, lts
from ltskit.spaces import build_space

import inputs
from tracer import Target

# Hand-written expected verdicts of the full sweeps: (space, sweep) -> PASS
# count and the labels reported SKIPPED.  No row may FAIL.
SWEEP_SPACES = ("G2group", "EIV", "EIII")
SWEEP_EXPECTED = {
    ("G2group", "classification"): (24, ()),
    ("G2group", "containments"): (20, ()),
    ("EIV", "classification"): (30, ()),
    ("EIV", "containments"): (26, ()),
    ("EIII", "classification"): (21, ("(Q, tau)", "(G2C6, tau)",
                                      "(G2H4, tau)")),
    ("EIII", "containments"): (19, ("(Q, tau) in (Q)",
                                    "(G2C6, tau) in (G2C6)",
                                    "(G2H4, tau) in (G2H4)")),
}
# The heaviest rank-2 rows of the E6 catalogs: (DIII) runs the closure loop
# at dim 20, (AII) the flat search and restricted roots at dim 14.
SWEEP_ROWS = (("EIII", "(DIII)"), ("EIV", "(AII)"))
MODELS_ROWS = 54
SUB_BATTERY_ROWS = {"so10": 15, "cartan so10": 6, "cartan su3": 6}


@dataclass
class Op:
    label: str
    seconds: float
    output: object
    case: object = None


def _timed(label: str, fn, *args, case=None, **kwargs) -> Op:
    t = perf_counter()
    out = fn(*args, **kwargs)
    return Op(label, perf_counter() - t, out, case)


class Sweep:
    """Pass: the two heaviest E6 catalog rows (make_prototype + analyze, the
    per-row work of verify_catalog).  Profile: verify_catalog and
    verify_containments for every space."""

    layers = [
        Target("ltskit.chevalley", "ChevalleyAlgebra.bracket",
               "chevalley.bracket"),
        Target("ltskit.linalg", "Span.contains", "linalg.span_contains"),
        Target("ltskit.linalg", "Span.add", "linalg.span_add"),
        Target("ltskit.linalg", "kernel", "linalg.kernel"),
        Target("ltskit.lts", "closure_defect", "lts.closure_defect"),
        Target("ltskit.lts", "rank_and_flat", "lts.rank_and_flat"),
        Target("ltskit.lts", "sub_restricted_roots", "lts.sub_restricted_roots"),
        Target("ltskit.lts", "decomposition_checks", "lts.decomposition_checks"),
        Target("ltskit.lts", "complexity_class", "lts.complexity_class"),
        Target("ltskit.catalog", "make_prototype", "catalog.make_prototype"),
        Target("ltskit.catalog", "verify_catalog", "catalog.verify_catalog",
               lambda a: f"catalog.verify_catalog.{a[0].name}"),
        Target("ltskit.catalog", "verify_containments",
               "catalog.verify_containments",
               lambda a: f"catalog.verify_containments.{a[0].name}"),
    ]

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.rows = {(sp, lbl): next(r for r in catalog.expected_rows(sp)
                                     if r.label.text == lbl)
                     for sp, lbl in SWEEP_ROWS}

    def _row(self, space: str, label: str):
        S = catalog.make_prototype(build_space(space), label)
        return S.dim, lts.analyze(S, seed=self.seed)

    def run_pass(self) -> list[Op]:
        return [_timed(f"{sp} {lbl}", self._row, sp, lbl, case=(sp, lbl))
                for sp, lbl in SWEEP_ROWS]

    def run_profile(self) -> list[Op]:
        return [_timed(f"{fn} {sp}", getattr(catalog, fn), build_space(sp),
                       seed=self.seed)
                for sp in SWEEP_SPACES
                for fn in ("verify_catalog", "verify_containments")]

    def check(self, op: Op) -> str | None:
        if op.case is not None:
            return self._check_row(op)
        rep = op.output
        passed, skipped = SWEEP_EXPECTED[(rep.space, rep.kind)]
        counts = rep.counts()
        got_skipped = tuple(r.label for r in rep.rows if r.status == "SKIPPED")
        if counts["PASS"] != passed or counts["FAIL"] or got_skipped != skipped:
            return f"{op.label}: counts {counts}, skipped {got_skipped}"
        return None

    def _check_row(self, op: Op) -> str | None:
        row = self.rows[op.case]
        dim, r = op.output
        mults = tuple(sorted(("+".join(x.labels), x.mult)
                             for x in r.restricted or ()))
        got = (r.is_lts, dim, r.rank,
               r.complexity if row.complexity else None,
               mults if row.sub_mults else None)
        want = (True, row.dim, row.rank, row.complexity, row.sub_mults)
        return None if got == want else f"{op.label}: got {got}, want {want}"

    def verdicts(self, op: Op) -> Counter:
        if op.case is not None:
            return Counter({f"{op.label} is_lts={op.output[1].is_lts}": 1})
        rep = op.output
        return Counter({f"{rep.space} {rep.kind} {k}": n
                        for k, n in rep.counts().items()})


class LtsCheck:
    """``lts check`` on seeded subspace files, in-process via ``cli.main``.
    Not a benchmark workload: ``selfcheck.py`` runs one pass per seed to
    check that verdicts do not depend on the seed."""

    def __init__(self, seed: int, work: Path):
        import jsonschema
        self.seed = seed
        self.cases = inputs.generate(seed, work / f"lts-check-{seed}")
        schema = json.loads(cli.schema_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self._rechecked: dict[tuple, bool] = {}

    def _check_file(self, path: str):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["lts", "check", path, "--format", "json",
                             "--seed", str(self.seed)])
        return code, buf.getvalue()

    def run_pass(self) -> list[Op]:
        return [_timed(c.label, self._check_file, c.path, case=c)
                for c in self.cases]

    run_profile = run_pass

    def check(self, op: Op) -> str | None:
        code, out = op.output
        try:
            doc = json.loads(out)
        except ValueError:
            return f"{op.label}: exit {code}, output is not JSON"
        errors = [e.message for e in self.validator.iter_errors(doc)]
        if errors:
            return f"{op.label}: schema: {errors[0]}"
        data, row = doc["data"], op.case.row
        if row is None:
            if code != 1 or doc["status"] != "FAIL" or data["is_lts"]:
                return f"{op.label}: expected exit 1 / FAIL, got {code}"
            return self._recheck_triple(op.case.path, data["failing_triple"])
        got = (code, doc["status"], data["dim"], data.get("rank"))
        if got != (0, "PASS", row.dim, row.rank):
            return (f"{op.label}: got {got}, catalog row says dim {row.dim}, "
                    f"rank {row.rank}")
        if row.sub_mults is not None:
            mults = {"+".join(r["ambient"]): r["multiplicity"]
                     for r in data.get("restricted", [])}
            if mults != dict(row.sub_mults):
                return f"{op.label}: multiplicities {mults}"
        if row.angle is not None and data.get("isotropy_angle") != row.angle:
            return f"{op.label}: angle {data.get('isotropy_angle')}"
        return None

    def _recheck_triple(self, path: str, triple) -> str | None:
        """[[b_i, b_j], b_k] must lie outside the subspace."""
        key = (path, tuple(triple or ()))
        if key not in self._rechecked:
            ok = False
            if triple and len(triple) == 3:
                S = lts.parse_subspace(Path(path).read_text(encoding="utf-8"))
                i, j, k = triple
                alg = S.space.alg
                ok = max(triple) < S.dim and not S.contains(alg.bracket(
                    alg.bracket(S.basis[i], S.basis[j]), S.basis[k]))
            self._rechecked[key] = ok
        if self._rechecked[key]:
            return None
        return f"{path}: failing triple {triple} is closed"

    def verdicts(self, op: Op) -> Counter:
        code, out = op.output
        return Counter({f"exit {code} {json.loads(out)['status']}": 1})


class Models:
    """Pass: the equivariance and variety checks of the Cayley/Jordan models
    on seeded exact group elements, plus the so(10) and Cartan-map
    sub-batteries.  Profile: the whole battery, ``verify_models(seed)``."""

    layers = [
        Target("ltskit.cayley", "mat_mul", "cayley.mat_mul"),
        Target("ltskit.cayley", "Phi_su6", "cayley.Phi_su6"),
        Target("ltskit.cayley", "f_su6_action", "cayley.f_su6_action"),
        Target("ltskit.cayley", "f_sp4_action", "cayley.f_sp4_action"),
        Target("ltskit.cayley", "embed_f1", "cayley.embed_f1"),
        Target("ltskit.cayley", "proj_member", "cayley.proj_member"),
        Target("ltskit.cayley", "so10_constructions", "cayley.so10_constructions"),
        Target("ltskit.cayley", "cartan_map_check", "cayley.cartan_map_check"),
    ]
    EQUIVARIANCE, SU6_ACTIONS, SP4_ACTIONS = 4, 2, 2

    def __init__(self, seed: int, work: Path):
        rng = random.Random(seed)
        self.seed = seed

        def su6_case():
            A = inputs.unitary6(rng)
            u1, u2 = inputs.orthonormal_plane(rng)
            return (cayley.cnum_matrix_to_bc(A), u1, u2,
                    inputs.apply(A, u1), inputs.apply(A, u2))

        self.equivariance = [su6_case() for _ in range(self.EQUIVARIANCE)]
        self.su6_actions = [(rng.choice(cayley.PYTHAGOREAN_QUATERNIONS),)
                            + su6_case()[:3] for _ in range(self.SU6_ACTIONS)]
        self.sp4_actions = [(inputs.sp4(rng),) + inputs.orthonormal_plane(rng)
                            for _ in range(self.SP4_ACTIONS)]

    @staticmethod
    def _equivariant(A, u1, u2, Au1, Au2) -> bool:
        image = cayley.f_su6_proj(cayley.Q_ONE, A, cayley.embed_f1(u1, u2))
        return image == cayley.embed_f1(Au1, Au2) and cayley.proj_member(image)

    @staticmethod
    def _su6_member(b, A, u1, u2) -> bool:
        return cayley.proj_member(
            cayley.f_su6_proj(b, A, cayley.embed_f1(u1, u2)))

    @staticmethod
    def _sp4_member(B, u1, u2) -> bool:
        return cayley.proj_member(
            cayley.f_sp4_proj(B, cayley.embed_f1(u1, u2)))

    def run_pass(self) -> list[Op]:
        ops = [_timed(f"su6 plane equivariance {k}", self._equivariant, *c)
               for k, c in enumerate(self.equivariance)]
        ops += [_timed(f"su6 action {k}", self._su6_member, *c)
                for k, c in enumerate(self.su6_actions)]
        ops += [_timed(f"sp4 action {k}", self._sp4_member, *c)
                for k, c in enumerate(self.sp4_actions)]
        ops.append(_timed("so10", cayley.so10_constructions))
        ops += [_timed(f"cartan {name}", cayley.cartan_map_check, name)
                for name in ("so10", "su3")]
        return ops

    def run_profile(self) -> list[Op]:
        return [_timed("verify_models", cayley.verify_models, seed=self.seed)]

    def check(self, op: Op) -> str | None:
        if isinstance(op.output, bool):
            return None if op.output else f"{op.label}: identity fails"
        rep, rows = op.output, SUB_BATTERY_ROWS.get(op.label, MODELS_ROWS)
        if rep.counts()["PASS"] != rows or len(rep.rows) != rows:
            return f"{op.label}: {len(rep.rows)} rows, {rep.counts()}"
        return None

    def verdicts(self, op: Op) -> Counter:
        if isinstance(op.output, bool):
            return Counter({f"{op.label.rsplit(' ', 1)[0]} {op.output}": 1})
        return Counter(op.output.counts())


WORKLOADS = {"sweep": Sweep, "models": Models}
