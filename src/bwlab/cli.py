"""Command-line frontend.

Every subcommand supports --json, emitting the same report schema the
verification sweep uses, so downstream tooling can consume any output
uniformly.  Informational commands report each printed fact as a check
whose expected and actual values coincide.

Exit codes: 0 all invoked checks pass, 1 at least one check failed,
2 malformed usage.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import bw, exlat, f2quad, gord, qser, srg, verify
from .verify import CheckResult


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


_SPACE_RE = re.compile(r"^([he])(\d+)$")


def _space(text: str):
    m = _SPACE_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"space must look like h5 or e4, got {text!r}")
    kind, half_dim = m.group(1), int(m.group(2))
    if half_dim < 1:
        raise argparse.ArgumentTypeError("space index must be >= 1")
    return (kind, half_dim)


def _load_space(args) -> f2quad.QuadSpace:
    if getattr(args, "file", None):
        return f2quad.read_form(args.file)
    kind, m = args.space
    return f2quad.hyperbolic(m) if kind == "h" else f2quad.elliptic(m)


_LATTICES = {"bw16": bw.bw16, "bw32": bw.bw32, "bw1": bw.bw1}


def _load_lattice(args) -> exlat.ScaledBasis:
    if getattr(args, "file", None):
        return exlat.read_lattice(args.file)
    return _LATTICES[args.lattice]()


def _info(check_id: str, location: str, value) -> CheckResult:
    text = str(value)
    return CheckResult(check_id, location, text, text, True, 0)


def _emit(args, report: dict, text_lines: list[str]) -> int:
    """Common output path: report JSON, optional --out report file, exit code."""
    report_out = getattr(args, "out", None)
    if report_out:
        with open(report_out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0 if report["pass"] else 1


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_verify_paper(args) -> int:
    report = verify.run_all(skip_slow=args.skip_slow)
    return _emit(args, report, [verify.render_text(report)])


def _lattice_label(args) -> str:
    return args.file if getattr(args, "file", None) else args.lattice


def _cmd_lattice_build(args) -> int:
    b = exlat.hnf_basis(_load_lattice(args))
    if args.lattice_out:
        exlat.write_lattice(b, args.lattice_out)
    name = _lattice_label(args)
    g = exlat.gram(b)
    facts = [
        _info(f"lattice.{name}.rank", "1.1", len(b.mat)),
        _info(f"lattice.{name}.den", "1.1", b.den),
        _info(f"lattice.{name}.frame-scale", "1.1", b.frame_scale),
        _info(f"lattice.{name}.det", "1.1", exlat.determinant(g)),
        _info(f"lattice.{name}.even", "1.1", exlat.is_even(g)),
    ]
    lines = [f"{r.id.split('.', 2)[-1]} = {r.actual}" for r in facts]
    if args.lattice_out:
        lines.append(f"wrote basis to {args.lattice_out}")
    return _emit(args, verify.make_report(facts), lines)


def _cmd_lattice_enumerate(args) -> int:
    b = _load_lattice(args)
    count = exlat.enumerate_norm(b, args.norm)
    name = _lattice_label(args)
    facts = [_info(f"lattice.{name}.norm-{args.norm}-count", "1.5", count)]
    if args.count_only:
        lines = [str(count)]
    else:
        lines = [f"{count} vectors of norm {args.norm}"]
    return _emit(args, verify.make_report(facts), lines)


def _cmd_lattice_invariants(args) -> int:
    b = exlat.hnf_basis(_load_lattice(args))
    g = exlat.gram(b)
    name = _lattice_label(args)
    inv = exlat.quotient_invariants(exlat.dual(b), b)
    facts = [
        _info(f"lattice.{name}.rank", "1.1", len(b.mat)),
        _info(f"lattice.{name}.det", "1.1", exlat.determinant(g)),
        _info(f"lattice.{name}.even", "1.1", exlat.is_even(g)),
        _info(f"lattice.{name}.dual-quotient", "1.1", inv),
        _info(f"lattice.{name}.min-norm", "1.5", exlat.minimum_norm(b)),
    ]
    lines = [f"{r.id.split('.', 2)[-1]} = {r.actual}" for r in facts]
    return _emit(args, verify.make_report(facts), lines)


def _space_label(args) -> str:
    return args.file if getattr(args, "file", None) else "".join(
        str(p) for p in args.space)


def _cmd_quad_singular_count(args) -> int:
    s = _load_space(args)
    count = f2quad.singular_count(s, include_zero=args.include_zero)
    facts = [_info(f"quad.{_space_label(args)}.singular-count", "1.5", count)]
    return _emit(args, verify.make_report(facts), [str(count)])


def _cmd_quad_tss(args) -> int:
    s = _load_space(args)
    basis = f2quad.totally_singular_subspace(s, args.k)
    value = "none" if basis is None else tuple(basis)
    facts = [_info(f"quad.{_space_label(args)}.tss-{args.k}", "2.8", value)]
    return _emit(args, verify.make_report(facts), [str(value)])


def _cmd_srg_perp(args) -> int:
    s = _load_space(args)
    g = srg.perp_graph(s)
    label = _space_label(args)
    if args.edges_out:
        srg.write_edges(g, args.edges_out)
    params = srg.srg_params(g)
    if isinstance(params, srg.NotStronglyRegular):
        fail = CheckResult(f"srg.{label}.params", "2.5",
                           "strongly regular", str(params), False, 0)
        return _emit(args, verify.make_report([fail]),
                     [f"not strongly regular: {params}"])
    tup = (params.v, params.k, params.lam, params.mu,
           params.r, params.s, params.f, params.g)
    facts = [_info(f"srg.{label}.params", "2.5", tup)]
    return _emit(args, verify.make_report(facts), [str(tup)])


def _cmd_srg_feasible(args) -> int:
    rows = srg.feasible_pairs(args.v, args.k)
    facts = [_info(f"srg.feasible.{args.v}-{args.k}", "2.6-2.7",
                   [(p.lam, p.mu, p.r, p.s, p.f, p.g) for p in rows])]
    lines = [f"(lam, mu, r, s, f, g) candidates for "
             f"v={args.v}, k={args.k}: {len(rows)}"]
    lines += [str((p.lam, p.mu, p.r, p.s, p.f, p.g)) for p in rows]
    return _emit(args, verify.make_report(facts), lines)


def _cmd_orders_e6(args) -> int:
    fi = gord.e6_order(args.q)
    facts = [_info(f"orders.e6-q{args.q}", "2.6-2.7", fi)]
    return _emit(args, verify.make_report(facts), [str(fi)])


def _cmd_orders_shape(args) -> int:
    fi = gord.shape_order(args.shape)
    facts = [_info(f"orders.shape.{args.shape}", "2.8", fi)]
    lines = [str(fi)]
    if args.sylow:
        part = gord.sylow_part(fi, args.sylow)
        facts.append(_info(f"orders.shape.{args.shape}.sylow-{args.sylow}",
                           "2.8", part))
        lines.append(f"{args.sylow}-part: {part}")
    return _emit(args, verify.make_report(facts), lines)


def _cmd_xrep_check(args) -> int:
    results = [verify.run_check(c) for c in verify._rep_checks()]
    lines = [f"[{'ok' if r.passed else 'FAIL'}] {r.id}: {r.actual}"
             for r in results]
    return _emit(args, verify.make_report(results), lines)


def _cmd_qseries_t1(args) -> int:
    series = qser.t1_series(args.terms)
    facts = [_info(f"series.t1.q^{e}", "intro", c)
             for e, c in series.terms()]
    lines = [f"q^{e}: {c}" for e, c in series.terms()]
    return _emit(args, verify.make_report(facts), lines)


# --------------------------------------------------------------------------
# parser assembly


def _add_json_out(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report schema on stdout")
    p.add_argument("--out", help="also write the JSON report to this path")


def _add_lattice_source(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", choices=sorted(_LATTICES),
                       help="built-in lattice name")
    group.add_argument("--file", help="lattice basis file")


def _add_space_source(p) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--space", type=_space,
                       help="h<m> hyperbolic or e<m> elliptic")
    group.add_argument("--file", help="form file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwlab",
        description="exact lattice, code, form, and series checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-paper", help="run the full check registry")
    p.add_argument("--skip-slow", action="store_true",
                   help="omit the rank-32 enumeration and 527-vertex checks")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="accepted and ignored: the search runs in one thread")
    _add_json_out(p)
    p.set_defaults(func=_cmd_verify_paper)

    lat = sub.add_parser("lattice", help="lattice constructions")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)

    p = lat_sub.add_parser("build", help="write a canonical basis")
    _add_lattice_source(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", dest="lattice_out", metavar="OUT",
                   help="write the lattice file here")
    p.set_defaults(func=_cmd_lattice_build)

    p = lat_sub.add_parser("enumerate", help="count vectors of one norm")
    _add_lattice_source(p)
    p.add_argument("--norm", type=_fraction, required=True)
    p.add_argument("--count-only", action="store_true",
                   help="print the bare count")
    _add_json_out(p)
    p.set_defaults(func=_cmd_lattice_enumerate)

    p = lat_sub.add_parser("invariants", help="det, parity, quotients")
    _add_lattice_source(p)
    _add_json_out(p)
    p.set_defaults(func=_cmd_lattice_invariants)

    quad = sub.add_parser("quad", help="quadratic spaces over GF(2)")
    quad_sub = quad.add_subparsers(dest="subcommand", required=True)

    p = quad_sub.add_parser("singular-count")
    _add_space_source(p)
    p.add_argument("--include-zero", action="store_true")
    _add_json_out(p)
    p.set_defaults(func=_cmd_quad_singular_count)

    p = quad_sub.add_parser("tss", help="find a totally singular subspace")
    _add_space_source(p)
    p.add_argument("--k", type=int, required=True)
    _add_json_out(p)
    p.set_defaults(func=_cmd_quad_tss)

    graph = sub.add_parser("srg", help="strongly regular graph checks")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)

    p = graph_sub.add_parser("perp", help="certify the perp graph")
    p.add_argument("--space", type=_space, required=True,
                   help="h<m> hyperbolic or e<m> elliptic")
    p.add_argument("--edges-out", help="write the edge list here")
    _add_json_out(p)
    p.set_defaults(func=_cmd_srg_perp)

    p = graph_sub.add_parser("feasible", help="parameter feasibility scan")
    p.add_argument("--v", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    _add_json_out(p)
    p.set_defaults(func=_cmd_srg_feasible)

    orders = sub.add_parser("orders", help="group order arithmetic")
    orders_sub = orders.add_subparsers(dest="subcommand", required=True)

    p = orders_sub.add_parser("e6")
    p.add_argument("--q", type=_positive_int, required=True)
    _add_json_out(p)
    p.set_defaults(func=_cmd_orders_e6)

    p = orders_sub.add_parser("shape")
    p.add_argument("--shape", required=True,
                   help="dotted shape like 2^{27}.E6(2)")
    p.add_argument("--sylow", type=_positive_int, default=None,
                   help="also print this prime's part")
    _add_json_out(p)
    p.set_defaults(func=_cmd_orders_shape)

    rep = sub.add_parser("xrep", help="extraspecial representation checks")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    p = rep_sub.add_parser("check")
    _add_json_out(p)
    p.set_defaults(func=_cmd_xrep_check)

    series = sub.add_parser("qseries", help="exact q-expansions")
    series_sub = series.add_subparsers(dest="subcommand", required=True)
    p = series_sub.add_parser("t1")
    p.add_argument("--terms", type=_positive_int, default=6)
    _add_json_out(p)
    p.set_defaults(func=_cmd_qseries_t1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
