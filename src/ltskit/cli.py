"""Command-line front end: builds the space models, runs verification
sweeps, and emits deterministic reports in markdown or JSON.

Verbs
-----
  space info NAME                 dimensions, restricted roots, flat data
  space verify-foundations NAME   bracket laws, involution, restricted data
  catalog verify NAME             full classification sweep
  catalog containments NAME       containment-table sweep
  catalog derived NAME --host L   derived-space sweep inside one host
  lts check FILE                  analyze a subspace file
  curvature eval NAME --x --y --z exact curvature tensor evaluation
  geodesic length --H EXPR        closed-geodesic length in G2group's flat
  models verify [--samples FILE]  projective/orthogonal model battery

Exit codes: 0 when every requested check is PASS or SKIPPED, 1 when any
check FAILs, 2 on malformed input (unknown names, bad expressions or files).
JSON output is an envelope {command, status, data} validating against the
shipped schema (schemas/report.schema.json).

Each verb imports the sweep modules it runs (``catalog``, ``lts``, ``cayley``)
in its own body, so a cold command compiles and loads only those.
"""

from __future__ import annotations

import sys

from .linalg import Span, is_negative_definite
from .report import CatalogReport, ReportRow
from .scalars import ParseError, rat
from .spaces import SPACE_NAMES, NotHermitian, build_space

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


EXPECTED_KIND = {"EIII": "BC2", "EIV": "A2", "G2group": "G2", "Sp2group": "B2"}
EXPECTED_MULTS = {
    "EIII": {"l1": 8, "l2": 8, "l3": 6, "l4": 6, "2l1": 1, "2l2": 1},
    "EIV": {"l1": 8, "l2": 8, "l3": 8},
    "G2group": {lbl: 2 for lbl in ("l1", "l2", "l3", "l4", "l5", "l6")},
    "Sp2group": {lbl: 2 for lbl in ("l1", "l2", "l3", "l4")},
}


def schema_text() -> str:
    """The shipped JSON schema for report envelopes."""
    from importlib import resources
    return (resources.files("ltskit") / "schemas" /
            "report.schema.json").read_text()


# -- input helpers ---------------------------------------------------------


def _space_name(name: str) -> str:
    if name not in SPACE_NAMES:
        raise ParseError(
            f"unknown space {name!r}; choose from {', '.join(SPACE_NAMES)}")
    return name


def _space(name: str):
    return build_space(_space_name(name))


def _table_space(name: str):
    """The model of a space with a classification table; for a space whose
    table is a derived host, exit 2 naming that host."""
    from .catalog import _EXPECTED, derived_hosts
    space = _space_name(name)
    if space not in _EXPECTED:
        host = next(h for h, (p, _) in derived_hosts().items() if p == space)
        raise ParseError(f"{space} has no classification table; its table is "
                         f"the {host} host (catalog derived {space} --host "
                         f"'{host}')")
    return build_space(space)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


# -- foundations sweep -----------------------------------------------------


def verify_foundations(sp) -> CatalogReport:
    """Exhaustive algebra/involution/restricted-data checks for one space."""
    rep = CatalogReport(sp.name, "foundations")
    alg = sp.alg

    viol = alg.check_jacobi_exhaustive()
    rep.rows.append(ReportRow(
        "jacobi-exhaustive", "PASS" if viol == 0 else "FAIL",
        {"violations": 0}, {"violations": viol, "basis_dim": alg.dim},
        "all basis triples"))

    gram = alg.killing_gram()
    negdef = is_negative_definite([[rat(x) for x in row] for row in gram])
    differs = alg.killing_mismatch(gram)
    cert = "pivot signs of the Killing Gram matrix"
    if differs is not None:
        cert = f"trace of ad_i ad_j differs from the closed form at {differs}"
    rep.rows.append(ReportRow(
        "killing-negative-definite",
        "PASS" if negdef and differs is None else "FAIL",
        {"negative_definite": True}, {"negative_definite": negdef}, cert))

    if sp.sigma_roots is None:
        rep.rows.append(ReportRow(
            "involution-automorphism", "SKIPPED", {}, {},
            "group model: the symmetry is the algebra swap"))
    else:
        ok = sp.validate_involution()
        rep.rows.append(ReportRow(
            "involution-automorphism", "PASS" if ok else "FAIL",
            {"square_id_and_bracket_compatible": True},
            {"square_id_and_bracket_compatible": ok},
            "checked on all basis pairs"))

    kind = sp.restricted.kind
    rep.rows.append(ReportRow(
        "restricted-kind", "PASS" if kind == EXPECTED_KIND[sp.name] else "FAIL",
        {"kind": EXPECTED_KIND[sp.name]}, {"kind": kind}, ""))

    mults = {r.label: r.mult for r in sp.restricted.positives}
    rep.rows.append(ReportRow(
        "restricted-multiplicities",
        "PASS" if mults == EXPECTED_MULTS[sp.name] else "FAIL",
        {"mults": EXPECTED_MULTS[sp.name]}, {"mults": mults}, ""))

    chart_dims = {lbl: len(sp.charts[lbl].basis_vectors())
                  for lbl in sp.charts}
    rep.rows.append(ReportRow(
        "chart-dimensions",
        "PASS" if chart_dims == EXPECTED_MULTS[sp.name] else "FAIL",
        {"dims": EXPECTED_MULTS[sp.name]}, {"dims": chart_dims},
        "real chart dimensions equal multiplicities"))

    ortho = all(
        sp.inner(list(sp.a_basis[i]), list(sp.a_basis[j]))
        == (rat(1) if i == j else rat(0))
        for i in range(len(sp.a_basis)) for j in range(len(sp.a_basis)))
    rep.rows.append(ReportRow(
        "flat-orthonormal", "PASS" if ortho else "FAIL",
        {"orthonormal": True}, {"orthonormal": ortho},
        f"flat dimension {len(sp.a_basis)}"))

    # Jacobi-operator law: for h the dual of a restricted root lambda and
    # v in the lambda chart, R(h, v)h = <h, h>^2 v when lambda(h) = |h|^2.
    bad = 0
    for r in sp.restricted.positives:
        h = list(sp.sharp[r.label])
        lam_h = sp.norm_sq(h)  # lambda(h) = <lambda#, lambda#>
        for v in sp.charts[r.label].basis_vectors():
            got = sp.curvature(v, h, h)
            want = [lam_h * lam_h * c for c in v]
            if got != want:
                bad += 1
    rep.rows.append(ReportRow(
        "jacobi-operator-law", "PASS" if bad == 0 else "FAIL",
        {"failures": 0}, {"failures": bad},
        "R(v, h)h = lambda(h)^2 v on every chart basis vector"))

    rep.rows.append(_complex_structure_row(sp))
    return rep


def _complex_structure_row(sp) -> ReportRow:
    if not sp.data.hermitian:
        return ReportRow(
            "complex-structure", "SKIPPED", {}, {},
            "no invariant complex structure on this model")
    try:
        j = sp.complex_structure()
    except NotHermitian as exc:
        return ReportRow("complex-structure", "FAIL",
                         {"exists": True}, {"exists": False}, str(exc))
    checks = {}
    checks["square_minus_id"] = all(
        sp.apply_J(sp.apply_J(v, j), j) == [-c for c in v]
        for v in sp.m_basis())
    inv = {}
    for lbl in ("l1", "l2"):
        span = Span(sp.charts[lbl].basis_vectors())
        inv[lbl] = all(span.contains(sp.apply_J(v, j))
                       for v in sp.charts[lbl].basis_vectors())
    checks["chart_l1_l2_invariant"] = inv["l1"] and inv["l2"]
    doubled = Span(sp.charts["2l1"].basis_vectors()
                   + sp.charts["2l2"].basis_vectors())
    checks["flat_to_doubled"] = all(
        doubled.contains(sp.apply_J(list(v), j)) for v in sp.a_basis)
    checks["doubled_to_flat"] = all(
        sp.a_span.contains(sp.apply_J(v, j))
        for lbl in ("2l1", "2l2") for v in sp.charts[lbl].basis_vectors())
    l4 = Span(sp.charts["l4"].basis_vectors())
    l3 = Span(sp.charts["l3"].basis_vectors())
    checks["l3_to_l4"] = all(l4.contains(sp.apply_J(v, j))
                             for v in sp.charts["l3"].basis_vectors())
    checks["l4_to_l3"] = all(l3.contains(sp.apply_J(v, j))
                             for v in sp.charts["l4"].basis_vectors())
    ok = all(checks.values())
    return ReportRow(
        "complex-structure", "PASS" if ok else "FAIL",
        {k: True for k in checks}, checks,
        "center element unique up to sign, fixed by a sign convention")


# -- handlers --------------------------------------------------------------


def _emit_report(args, command: str, rep: CatalogReport) -> int:
    status = "PASS" if rep.ok else "FAIL"
    if args.format == "json":
        _print_json(command, status, rep.as_json())
    else:
        print(rep.as_markdown())
    return EXIT_OK if rep.ok else EXIT_FAIL


def _print_json(command: str, status: str, data: dict) -> None:
    import json
    print(json.dumps({"command": command, "status": status, "data": data},
                     indent=2, sort_keys=True))


def cmd_space_info(args) -> int:
    sp = _space(args.name)
    roots = sp.restricted.as_json()["roots"]
    data = {
        "name": sp.name,
        "ambient_dim": sp.alg.dim,
        "dim": len(sp.m_basis()),
        "rank": len(sp.a_basis),
        "restricted_kind": sp.restricted.kind,
        "restricted_roots": roots,
        "chart_labels": list(sp.charts),
        "reference_metric_ratio": sp.data.reference_metric_ratio,
    }
    if args.format == "json":
        _print_json("space info", "PASS", data)
    else:
        lines = [f"# {sp.name}", "",
                 f"- ambient algebra dimension: {data['ambient_dim']}",
                 f"- tangent dimension: {data['dim']}",
                 f"- rank: {data['rank']}",
                 f"- restricted root system: {data['restricted_kind']}",
                 f"- reference metric ratio: "
                 f"{data['reference_metric_ratio']}",
                 "", "| root | multiplicity | coordinates |", "|---|---|---|"]
        for r in roots:
            lines.append(f"| {r['label']} | {r['multiplicity']} "
                         f"| {', '.join(r['coords'])} |")
        print("\n".join(lines))
    return EXIT_OK


def cmd_space_verify(args) -> int:
    return _emit_report(args, "space verify-foundations",
                        verify_foundations(_space(args.name)))


def cmd_catalog_verify(args) -> int:
    from .catalog import verify_catalog
    return _emit_report(args, "catalog verify",
                        verify_catalog(_table_space(args.name),
                                       seed=args.seed))


def cmd_catalog_containments(args) -> int:
    from .catalog import verify_containments
    return _emit_report(args, "catalog containments",
                        verify_containments(_table_space(args.name),
                                            seed=args.seed))


def cmd_catalog_derived(args) -> int:
    from .catalog import derived_hosts, verify_derived
    space = _space_name(args.name)
    hosts = derived_hosts()
    if args.host not in hosts:
        raise ParseError(
            f"unknown host {args.host!r}; choose from {', '.join(sorted(hosts))}")
    parent, _rows = hosts[args.host]
    if parent != space:
        raise ParseError(
            f"host {args.host!r} belongs to space {parent}, not {space}")
    return _emit_report(args, "catalog derived",
                        verify_derived(args.host, seed=args.seed))


def cmd_lts_check(args) -> int:
    from .lts import analyze, parse_subspace
    text = _read_file(args.file)
    try:
        S = parse_subspace(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    rep = analyze(S, seed=args.seed)
    status = "PASS" if rep.is_lts else "FAIL"
    if args.format == "json":
        _print_json("lts check", status, rep.as_json())
    else:
        print(rep.as_markdown())
    return EXIT_OK if rep.is_lts else EXIT_FAIL


def cmd_curvature_eval(args) -> int:
    from .lts import parse_vector
    sp = _space(args.name)
    try:
        x, y, z = (parse_vector(sp, v) for v in (args.x, args.y, args.z))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    r = sp.curvature(x, y, z)
    a_coeffs = [str(sp.inner(r, list(v))) for v in sp.a_basis]
    charts = {}
    for lbl in sp.charts:
        coords = sp.chart_coords(r, lbl)
        if any(not c.is_zero() for c in coords):
            charts[lbl] = [str(c) for c in coords]
    data = {
        "space": sp.name,
        "x": args.x, "y": args.y, "z": args.z,
        "norm_sq": str(sp.norm_sq(r)),
        "is_zero": not any(r),
        "a_component": a_coeffs,
        "charts": charts,
    }
    if args.format == "json":
        _print_json("curvature eval", "PASS", data)
    else:
        lines = [f"# curvature R(x, y)z in {sp.name}", "",
                 f"- |R(x,y)z|^2 = {data['norm_sq']}",
                 f"- flat component coefficients: {a_coeffs}"]
        for lbl, coords in charts.items():
            lines.append(f"- chart {lbl}: {coords}")
        if not charts and all(c == "0" for c in a_coeffs):
            lines.append("- result is zero")
        print("\n".join(lines))
    return EXIT_OK


def cmd_geodesic_length(args) -> int:
    from .catalog import geodesic_length, parse_flat_vector
    sp = build_space("G2group")
    try:
        H = parse_flat_vector(sp, args.H)
        g = geodesic_length(sp, H)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    data = {"space": sp.name, "direction": args.H, "closed": g is not None}
    if g is not None:
        data["length"] = g.text
        data["coeff"] = str(g.coeff)
        data["radicand"] = g.radicand
    if args.format == "json":
        _print_json("geodesic length", "PASS", data)
    else:
        if g is None:
            print(f"geodesic along {args.H}: not closed "
                  "(irrational period ratio)")
        else:
            print(g.text)
    return EXIT_OK


def cmd_models_verify(args) -> int:
    from .cayley import NotUnit, parse_rational_matrix_file, verify_models
    from .matrix_groups import is_orthogonal
    extra = ()
    if args.samples:
        try:
            extra = tuple(parse_rational_matrix_file(_read_file(args.samples)))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        for k, g in enumerate(extra):
            if len(g) != 10 or any(len(row) != 10 for row in g) \
                    or not is_orthogonal(g):
                raise ParseError(
                    f"sample matrix {k} is not a 10x10 orthogonal matrix")
    try:
        rep = verify_models(seed=args.seed, extra_orthogonal_samples=extra)
    except (NotUnit, IndexError) as exc:
        raise ParseError(f"bad sample matrix: {exc}") from exc
    return _emit_report(args, "models verify", rep)


# -- argument parsing ------------------------------------------------------


def build_parser():
    """The ``ltskit`` argument parser."""
    import argparse
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("markdown", "json"),
                        default="markdown", help="report format")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the flat-search schedule (default: 0)")

    p = argparse.ArgumentParser(
        prog="ltskit",
        description="Exact verification reports for the built-in "
                    "symmetric-space models.")
    sub = p.add_subparsers(dest="verb", required=True)

    sp_p = sub.add_parser("space", help="model inspection and foundations")
    sp_sub = sp_p.add_subparsers(dest="action", required=True)
    q = sp_sub.add_parser("info", parents=[common],
                          help="dimensions, rank, restricted roots")
    q.add_argument("name")
    q.set_defaults(func=cmd_space_info)
    q = sp_sub.add_parser("verify-foundations", parents=[common],
                          help="bracket laws, involution, restricted data")
    q.add_argument("name")
    q.set_defaults(func=cmd_space_verify)

    cat_p = sub.add_parser("catalog", help="classification sweeps")
    cat_sub = cat_p.add_subparsers(dest="action", required=True)
    q = cat_sub.add_parser("verify", parents=[common],
                           help="rebuild and check every prototype")
    q.add_argument("name")
    q.set_defaults(func=cmd_catalog_verify)
    q = cat_sub.add_parser("containments", parents=[common],
                           help="containment-table sweep")
    q.add_argument("name")
    q.set_defaults(func=cmd_catalog_containments)
    q = cat_sub.add_parser("derived", parents=[common],
                           help="derived-space sweep inside one host")
    q.add_argument("name")
    q.add_argument("--host", required=True,
                   help="host label, e.g. '(DIII)'")
    q.set_defaults(func=cmd_catalog_derived)

    lts_p = sub.add_parser("lts", help="subspace analysis")
    lts_sub = lts_p.add_subparsers(dest="action", required=True)
    q = lts_sub.add_parser("check", parents=[common],
                           help="analyze a subspace file")
    q.add_argument("file")
    q.set_defaults(func=cmd_lts_check)

    cur_p = sub.add_parser("curvature", help="curvature tensor evaluation")
    cur_sub = cur_p.add_subparsers(dest="action", required=True)
    q = cur_sub.add_parser("eval", parents=[common],
                           help="evaluate R(x, y)z exactly")
    q.add_argument("name")
    for arg in ("--x", "--y", "--z"):
        q.add_argument(arg, required=True, help="tangent vector, e.g. "
                       "'M[l1](1, 0, 0, 0) - a(1/2, 0)' in EIII")
    q.set_defaults(func=cmd_curvature_eval)

    geo_p = sub.add_parser("geodesic", help="closed-geodesic metrology")
    geo_sub = geo_p.add_subparsers(dest="action", required=True)
    q = geo_sub.add_parser("length", parents=[common],
                           help="length of the closed geodesic along a "
                                "flat direction of G2group")
    q.add_argument("--H", required=True,
                   help="flat vector, e.g. '(9*l1 + 5*l2)/sqrt(21)'")
    q.set_defaults(func=cmd_geodesic_length)

    mod_p = sub.add_parser("models", help="projective/orthogonal models")
    mod_sub = mod_p.add_subparsers(dest="action", required=True)
    q = mod_sub.add_parser("verify", parents=[common],
                           help="run the exact model battery")
    q.add_argument("--samples",
                   help="text file of extra rational orthogonal matrices")
    q.set_defaults(func=cmd_models_verify)

    # each verb reports its own errors, with its own usage line
    for verbs in (sp_sub, cat_sub, lts_sub, cur_sub, geo_sub, mod_sub):
        for q in verbs.choices.values():
            q.set_defaults(parser=q)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # the verb's parser leaves arguments it does not know to this one,
        # whose usage line would name no verb
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        # argparse of Python 3.11 reads the option value "--" as [], not "--"
        if [] in vars(args).values():
            args.parser.error("'--' is not an option value")
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
