"""Command-line frontend.

Every subcommand supports --json, emitting the same report schema the
verification sweep uses, so downstream tooling can consume any output
uniformly.  Informational commands report through one helper, _facts:
each printed fact becomes a check whose expected and actual values coincide.

Exit codes: 0 all invoked checks pass, 1 at least one check failed,
2 malformed usage.

Importing this module before numpy pins OpenBLAS to one thread
(OPENBLAS_NUM_THREADS=1).  Otherwise OpenBLAS starts a pool of idle
workers that spin on the other cores, about 0.14 s of CPU in every
process on a 2-core machine, and bwlab never gives them work: every
kernel is integer or bit arithmetic, and the one float LAPACK call is
a Cholesky of at most 32 x 32 in the tree search.  A value already in
the environment wins, so `OPENBLAS_NUM_THREADS=4 bwlab ...` overrides
the pin.  Code that imports other bwlab modules without this one, or
loads numpy first, keeps OpenBLAS's default.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import astuple
from fractions import Fraction

# OpenBLAS reads this once, when numpy loads it; see the module docstring.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bw, exlat, f2quad, gord, qser, srg, verify


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
    if not 1 <= half_dim <= f2quad.MAX_SWEEP_DIM // 2:
        raise argparse.ArgumentTypeError(
            f"space index must be from 1 to {f2quad.MAX_SWEEP_DIM // 2}")
    return (kind, half_dim)


def _load_space(args) -> tuple[str, f2quad.QuadSpace]:
    """The --file or --space form, with its label in check ids."""
    if args.file:
        return args.file, f2quad.read_form(args.file)
    kind, m = args.space
    space = f2quad.hyperbolic(m) if kind == "h" else f2quad.elliptic(m)
    return f"{kind}{m}", space


_LATTICES = {"bw16": bw.bw16, "bw32": bw.bw32, "bw1": bw.bw1}


def _load_lattice(args) -> tuple[str, exlat.ScaledBasis]:
    """The --file or --lattice basis, with its label in check ids."""
    if args.file:
        return args.file, exlat.read_lattice(args.file)
    return args.lattice, _LATTICES[args.lattice]()


def _emit(args, report: dict, text_lines: list[str]) -> int:
    """Common output path: report JSON, optional --out report file, exit code."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            print(line)
    return 0 if report["pass"] else 1


def _facts(args, prefix: str, facts, lines=None) -> int:
    """Report each informational (name, location, value) as the passing
    check prefix.name; print lines, or "name = value" per fact."""
    rows = [verify.result(f"{prefix}.{name}", loc, str(v), str(v))
            for name, loc, v in facts]
    if lines is None:
        lines = [f"{name} = {v}" for name, _, v in facts]
    return _emit(args, verify.make_report(rows), lines)


# --------------------------------------------------------------------------
# subcommand bodies


def _cmd_verify_paper(args) -> int:
    report = verify.run_all(skip_slow=args.skip_slow)
    return _emit(args, report, [verify.render_text(report)])


def _gram_facts(b: exlat.ScaledBasis) -> list[tuple]:
    """Rank, determinant and parity of b as (name, location, value)."""
    g = exlat.gram(b)
    return [("rank", "1.1", len(b.mat)),
            ("det", "1.1", exlat.determinant(g)),
            ("even", "1.1", exlat.is_even(g))]


def _cmd_lattice_build(args) -> int:
    label, b = _load_lattice(args)
    b = exlat.hnf_basis(b)
    if args.lattice_out:
        exlat.write_lattice(b, args.lattice_out)
    rank, det, even = _gram_facts(b)
    facts = [rank, ("den", "1.1", b.den),
             ("frame-scale", "1.1", b.frame_scale), det, even]
    lines = [f"{name} = {v}" for name, _, v in facts]
    if args.lattice_out:
        lines.append(f"wrote basis to {args.lattice_out}")
    return _facts(args, f"lattice.{label}", facts, lines)


def _cmd_lattice_enumerate(args) -> int:
    label, b = _load_lattice(args)
    count = exlat.enumerate_norm(b, args.norm)
    line = (str(count) if args.count_only
            else f"{count} vectors of norm {args.norm}")
    return _facts(args, f"lattice.{label}",
                  [(f"norm-{args.norm}-count", "1.5", count)], [line])


def _cmd_lattice_invariants(args) -> int:
    label, b = _load_lattice(args)
    b = exlat.hnf_basis(b)
    facts = _gram_facts(b) + [
        ("dual-quotient", "1.1", exlat.quotient_invariants(exlat.dual(b), b)),
        ("min-norm", "1.5", exlat.minimum_norm(b)),
    ]
    return _facts(args, f"lattice.{label}", facts)


def _cmd_quad_singular_count(args) -> int:
    label, s = _load_space(args)
    count = f2quad.singular_count(s, include_zero=args.include_zero)
    return _facts(args, f"quad.{label}", [("singular-count", "1.5", count)],
                  [str(count)])


def _cmd_quad_tss(args) -> int:
    label, s = _load_space(args)
    basis = f2quad.totally_singular_subspace(s, args.k)
    value = "none" if basis is None else tuple(basis)
    return _facts(args, f"quad.{label}", [(f"tss-{args.k}", "2.8", value)],
                  [str(value)])


def _cmd_srg_perp(args) -> int:
    label, s = _load_space(args)
    g = srg.perp_graph(s)
    if args.edges_out:
        srg.write_edges(g, args.edges_out)
    params = srg.srg_params(g)
    if isinstance(params, srg.NotStronglyRegular):
        fail = verify.result(f"srg.{label}.params", "2.5",
                             "strongly regular", str(params))
        return _emit(args, verify.make_report([fail]),
                     [f"not strongly regular: {params}"])
    tup = astuple(params)
    return _facts(args, f"srg.{label}", [("params", "2.5", tup)], [str(tup)])


def _cmd_srg_feasible(args) -> int:
    rows = [astuple(p)[2:] for p in srg.feasible_pairs(args.v, args.k)]
    lines = [f"(lam, mu, r, s, f, g) candidates for "
             f"v={args.v}, k={args.k}: {len(rows)}"]
    return _facts(args, "srg.feasible",
                  [(f"{args.v}-{args.k}", "2.6-2.7", rows)],
                  lines + [str(r) for r in rows])


def _cmd_orders_e6(args) -> int:
    fi = gord.e6_order(args.q)
    return _facts(args, "orders", [(f"e6-q{args.q}", "2.6-2.7", fi)],
                  [str(fi)])


def _cmd_orders_shape(args) -> int:
    fi = gord.shape_order(args.shape)
    facts, lines = [(args.shape, "2.8", fi)], [str(fi)]
    if args.sylow:
        part = gord.sylow_part(fi, args.sylow)
        facts.append((f"{args.shape}.sylow-{args.sylow}", "2.8", part))
        lines.append(f"{args.sylow}-part: {part}")
    return _facts(args, "orders.shape", facts, lines)


def _cmd_xrep_check(args) -> int:
    rows = [verify.run_check(c) for c in verify.checks()
            if c.id.startswith("rep.")]
    lines = [f"[{'ok' if r['pass'] else 'FAIL'}] {r['id']}: {r['actual']}"
             for r in rows]
    return _emit(args, verify.make_report(rows), lines)


def _cmd_qseries_t1(args) -> int:
    terms = qser.t1_series(args.terms).terms()
    return _facts(args, "series.t1",
                  [(f"q^{e}", "intro", c) for e, c in terms],
                  [f"q^{e}: {c}" for e, c in terms])


# --------------------------------------------------------------------------
# parser assembly


def _command(sub, name, func, help, report_out=True):
    """A leaf command running func: --json, and the report --out unless the
    command writes something else there."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--json", action="store_true",
                   help="emit the JSON report schema on stdout")
    if report_out:
        p.add_argument("--out", help="also write the JSON report to this path")
    p.set_defaults(func=func, out=None)
    return p


def _add_source(p, flag, file_help, **kw) -> None:
    """A required choice between a built-in source flag and --file."""
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(flag, **kw)
    group.add_argument("--file", help=file_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwlab",
        description="exact lattice, code, form, and series checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "verify-paper", _cmd_verify_paper,
                 "run the full check registry")
    p.add_argument("--skip-slow", action="store_true",
                   help="omit the rank-32 enumeration and 527-vertex checks")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="accepted and ignored: the search runs in one thread")

    lat = sub.add_parser("lattice", help="lattice constructions")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    build = _command(lat_sub, "build", _cmd_lattice_build,
                     "write a canonical basis", report_out=False)
    build.add_argument("--out", dest="lattice_out", metavar="OUT",
                       help="write the lattice file here")
    enum = _command(lat_sub, "enumerate", _cmd_lattice_enumerate,
                    "count vectors of one norm")
    enum.add_argument("--norm", type=_fraction, required=True)
    enum.add_argument("--count-only", action="store_true",
                      help="print the bare count")
    inv = _command(lat_sub, "invariants", _cmd_lattice_invariants,
                   "det, parity, quotients")
    for p in (build, enum, inv):
        _add_source(p, "--lattice", "lattice basis file",
                    choices=sorted(_LATTICES), help="built-in lattice name")

    quad = sub.add_parser("quad", help="quadratic spaces over GF(2)")
    quad_sub = quad.add_subparsers(dest="subcommand", required=True)
    count = _command(quad_sub, "singular-count", _cmd_quad_singular_count,
                     "count the singular vectors, zero excluded")
    count.add_argument("--include-zero", action="store_true")
    tss = _command(quad_sub, "tss", _cmd_quad_tss,
                   "find a totally singular subspace")
    tss.add_argument("--k", type=int, required=True)

    graph = sub.add_parser("srg", help="strongly regular graph checks")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    perp = _command(graph_sub, "perp", _cmd_srg_perp,
                    "certify the perp graph")
    perp.add_argument("--edges-out", help="write the edge list here")
    for p in (count, tss, perp):
        _add_source(p, "--space", "form file", type=_space,
                    help="h<m> hyperbolic or e<m> elliptic")
    p = _command(graph_sub, "feasible", _cmd_srg_feasible,
                 "parameter feasibility scan")
    p.add_argument("--v", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)

    orders = sub.add_parser("orders", help="group order arithmetic")
    orders_sub = orders.add_subparsers(dest="subcommand", required=True)
    p = _command(orders_sub, "e6", _cmd_orders_e6, "the order of E6(q)")
    p.add_argument("--q", type=_positive_int, required=True)
    p = _command(orders_sub, "shape", _cmd_orders_shape,
                 "the order of a group of dotted shape")
    p.add_argument("--shape", required=True,
                   help="dotted shape like 2^{27}.E6(2)")
    p.add_argument("--sylow", type=_positive_int, default=None,
                   help="also print this prime's part")

    rep = sub.add_parser("xrep", help="extraspecial representation checks")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    _command(rep_sub, "check", _cmd_xrep_check,
             "run the closure and character-norm checks")

    series = sub.add_parser("qseries", help="exact q-expansions")
    series_sub = series.add_subparsers(dest="subcommand", required=True)
    p = _command(series_sub, "t1", _cmd_qseries_t1,
                 "the graded dimensions of the orbifold, from q^-4/3")
    p.add_argument("--terms", type=_positive_int, default=6)

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
