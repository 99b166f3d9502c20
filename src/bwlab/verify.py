"""Declarative check registry and machine-readable verification report.

Each numeric claim the package certifies is registered once as a Check:
a stable id, a short source locator, a frozen expected value, and a
thunk that recomputes the actual value from scratch.  checks() lists
them in one fixed order, and an id's first dotted part names its
module.  run_all turns each into one report row, which passes exactly
when its actual value equals the expected one, and assembles one
JSON-serializable report.  The slow flag holds back two tree searches,
BW32 out to norm 4 and bw1 out to norm 8, and every check that reads
them; srg.h5-perp (about 10 ms) and lattice.bw32-norm4-generates (about 1 ms)
are slow only so that the fast sweep stays at 52 checks.

Every lattice fact that needs vectors comes from one single-threaded
tree search per lattice and radius, whose norm histogram is cached, so
the rank-32 kissing number and minimum share one norm-4 search with the
slow similarity32-full profile.  Generation by the norm-4 vectors is
proved by the LLL basis rows, and the two fast similarities by the
exact map phi = 1 + i, all with no search.  The exact linear algebra
(duals, quotients, determinants) is fraction-free elimination in
Python integers.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

from . import bw, exlat, f2linalg, f2quad, gord, qser, srg, xrep

REPORT_VERSION = 1


@dataclass(frozen=True)
class Check:
    id: str
    paper_location: str
    expected: str
    thunk: Callable[[], object]
    slow: bool = False


def result(id: str, paper_location: str, expected: str, actual: str,
           runtime_ms: int = 0) -> dict:
    """One report row; it passes exactly when actual equals expected."""
    return {"id": id, "paper_location": paper_location, "expected": expected,
            "actual": actual, "pass": actual == expected,
            "runtime_ms": runtime_ms}


def run_check(check: Check) -> dict:
    """Evaluate one thunk into a report row; exceptions become failing rows,
    never raised."""
    start = time.perf_counter()
    try:
        actual = str(check.thunk())
    except Exception as exc:  # noqa: BLE001 - report must survive any check
        actual = f"error: {type(exc).__name__}: {exc}"
    ms = int(round((time.perf_counter() - start) * 1000))
    return result(check.id, check.paper_location, check.expected, actual, ms)


def checks() -> list[Check]:
    """Every check, in fixed order; an id's first dotted part names its
    module."""
    return [
        Check("code.rm14-dimension", "1.1", "5",
              lambda: f2linalg.rank(f2linalg.rm14())),
        Check("code.rm14-weights", "1.1", "{0: 1, 8: 30, 16: 1}",
              lambda: f2linalg.weight_enumerator(f2linalg.rm14())),
        Check("lattice.bw16-even", "1.1", "True",
              lambda: exlat.is_even(exlat.gram(bw.bw16()))),
        Check("lattice.bw16-det", "1.1", "256",
              lambda: exlat.determinant(exlat.gram(bw.bw16()))),
        Check("lattice.bw16-dual-quotient", "1.1",
              "(2, 2, 2, 2, 2, 2, 2, 2)",
              lambda: exlat.quotient_invariants(exlat.dual(bw.bw16()),
                                                bw.bw16())),
        Check("lattice.bw16-min", "1.5", "4",
              lambda: exlat.minimum_norm(bw.bw16())),
        Check("lattice.bw16-kissing", "1.5", "4320",
              lambda: exlat.enumerate_norm(bw.bw16(), 4)),
        Check("lattice.bw16-norm4-generates", "1.1", "True",
              lambda: exlat.generated_by_norm_vectors(bw.bw16(), 4)),
        Check("lattice.bw32-even", "1.1", "True",
              lambda: exlat.is_even(exlat.gram(bw.bw32()))),
        Check("lattice.bw32-det", "1.1", "1",
              lambda: exlat.determinant(exlat.gram(bw.bw32()))),
        Check("lattice.bw32-self-dual", "1.1", "True",
              lambda: exlat.lattice_equal(exlat.dual(bw.bw32()), bw.bw32())),
        Check("lattice.bw32-norm2-count", "1.1", "0",
              lambda: exlat.enumerate_norm(bw.bw32(), 2)),
        Check("lattice.bw32-kissing", "2.1", "146880",
              lambda: exlat.enumerate_norm(bw.bw32(), 4), slow=True),
        Check("lattice.bw32-min", "1.1", "4",
              lambda: exlat.minimum_norm(bw.bw32()), slow=True),
        # ~1 ms by the LLL witness; slow so the fast sweep keeps 52 checks
        Check("lattice.bw32-norm4-generates", "1.1", "True",
              lambda: exlat.generated_by_norm_vectors(bw.bw32(), 4),
              slow=True),
        Check("lattice.bw1-det", "1.1", str(2 ** 32),
              lambda: exlat.determinant(exlat.gram(bw.bw1()))),
        Check("lattice.tower-quotient", "1.1", "(" + "2, " * 15 + "2)",
              lambda: exlat.quotient_invariants(bw.bw32(), bw.bw1())),
        Check("lattice.tower-closes", "1.1", "True", bw.tower_check),
        # exact witnesses: phi = 1 + i carries one lattice onto the other
        Check("lattice.similarity16", "1.1", "True",
              lambda: exlat.lattice_equal(bw.phi(exlat.dual(bw.bw16())),
                                          bw.bw16())),
        Check("lattice.similarity32", "1.1", "True",
              lambda: exlat.lattice_equal(bw.phi(bw.bw32()), bw.bw1())),
        # the search-based route, independent of the construction
        Check("lattice.similarity32-full", "1.1", "True",
              lambda: bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, (2, 4)),
              slow=True),
        Check("quad.singular-counts", "1.5", "(2, 9, 35, 135, 527)",
              lambda: tuple(f2quad.singular_count(f2quad.hyperbolic(m))
                            for m in range(1, 6))),
        Check("quad.elliptic4-count", "1.5", "119",
              lambda: f2quad.singular_count(f2quad.elliptic(4))),
        Check("quad.h5-arf", "1.5", "plus",
              lambda: f2quad.arf_type(f2quad.hyperbolic(5))),
        Check("quad.e5-arf", "1.5", "minus",
              lambda: f2quad.arf_type(f2quad.elliptic(5))),
        Check("quad.h5-tss2", "2.8", "True",
              lambda: f2quad.totally_singular_subspace(
                  f2quad.hyperbolic(5), 2) is not None),
        Check("quad.h5-witt5", "2.8", "True",
              lambda: f2quad.totally_singular_subspace(
                  f2quad.hyperbolic(5), 5) is not None),
        Check("quad.h2-isometries", "1.5", "(72, 36)",
              lambda: f2quad.isometry_counts(f2quad.hyperbolic(2))),
        Check("srg.h2-perp", "2.5", "(9, 4, 1, 2)",
              lambda: astuple(srg.srg_params(
                  srg.perp_graph(f2quad.hyperbolic(2))))[:4]),
        Check("srg.h5-perp", "2.5",
              "(527, 270, 141, 135, 15, -9, 186, 340)",
              lambda: astuple(srg.srg_params(
                  srg.perp_graph(f2quad.hyperbolic(5)))),
              slow=True),
        Check("srg.feasible-pairs", "2.6-2.7",
              "[(621, 135, 495, -9, 2482, 137020)]",
              lambda: [astuple(p)[2:]
                       for p in srg.feasible_pairs(139503, 4590)]),
        Check("orders.e6-q2", "2.6-2.7", "2^36·3^6·5^2·7^3·13·17·31·73",
              lambda: gord.e6_order(2)),
        Check("orders.omega-plus-10-2", "2.6-2.7", "2^20·3^5·5^2·7·17·31",
              lambda: gord.omega_plus_order(10, 2)),
        Check("orders.omega-plus-4-2", "2.6-2.7", "36",
              lambda: gord.omega_plus_order(4, 2).value),
        Check("orders.index-139503", "2.6-2.7", "139503 = 3·7^2·13·73",
              lambda: (lambda fi: f"{fi.value} = {fi}")(
                  gord.e6_order(2).div(
                      gord.shape_order("2^{16}.OmegaPlus(10,2)")))),
        Check("orders.stabilizer-2-part", "2.8", "2^63",
              lambda: gord.sylow_part(
                  gord.shape_order("2^{1+32}.2^{10}.OmegaPlus(10,2)"), 2)),
        Check("orders.aut-shape", "2.8",
              "2^63·3^6·5^2·7^3·13·17·31·73",
              lambda: gord.shape_order("2^{27}.E6(2)")),
        Check("rep.closure-orders", "1.1", "(8, 32, 128, 512)",
              lambda: tuple(len(xrep.closure(xrep.extraspecial_plus(m)))
                            for m in range(1, 5))),
        Check("rep.char-norms", "1.1", "(1, 1, 1, 1)",
              lambda: tuple(xrep.char_norm(xrep.extraspecial_plus(m))
                            for m in range(1, 5))),
        Check("rep.central-product-norms", "1.1", "(1, 1)",
              lambda: tuple(
                  xrep.char_norm(xrep.central_product(
                      xrep.extraspecial_plus(m), xrep.extraspecial_plus(m)))
                  for m in range(1, 3))),
        Check("rep.reducible-control", "1.1", "4",
              lambda: xrep.char_norm(
                  xrep.block_double(xrep.extraspecial_plus(2)))),
        Check("series.j-coefficients", "intro", "(1, 744, 196884)",
              lambda: qser.j_series(6).coeffs[:3]),
        Check("series.cube-root-j", "intro", "(1, 248, 4124, 34752)",
              lambda: qser.cube_root_j(6).coeffs[:4]),
        Check("series.t1-offset", "intro", "-4/3",
              lambda: qser.t1_series(6).exponent(0)),
        Check("series.t1-coefficients", "intro", "(1, 0, 139504)",
              lambda: qser.t1_series(6).coeffs[:3]),
        Check("series.t1-nonnegative", "intro", "True",
              lambda: all(c >= 0 for c in qser.t1_series(6).coeffs)),
        # the dimension bookkeeping: every count must tie out both ways
        Check("ledger.135", "1.5", "135",
              lambda: 16 + comb(16, 2) - 1),
        Check("ledger.2160", "1.5", "2160",
              lambda: exlat.enumerate_norm(bw.bw16(), 4) // 2),
        Check("ledger.2295", "1.5", "2295", lambda: 135 + 2160),
        Check("ledger.527", "2.1", "527",
              lambda: 32 + comb(32, 2) - 1),
        Check("ledger.73440", "2.1", "73440",
              lambda: exlat.enumerate_norm(bw.bw32(), 4) // 2,
              slow=True),
        Check("ledger.65536", "2.1", "65536", lambda: 2 ** 16),
        Check("ledger.139503", "2.1", "139503",
              lambda: 527 + 73440 + 65536),
        Check("ledger.4590", "2.1", "4590", lambda: 2 * 2295),
        Check("ledger.139504-blocks", "2.6-2.7", "139504",
              lambda: 2 * (1 + 2295) + 527 * 16 ** 2),
        Check("ledger.139504-vertex", "2.5", "139504",
              lambda: 1 + 139503),
        Check("ledger.527-quad", "2.1", "527",
              lambda: f2quad.singular_count(f2quad.hyperbolic(5))),
        Check("ledger.139504-series", "intro", "139504",
              lambda: qser.t1_series(6).coefficient(Fraction(2, 3))),
    ]


def make_report(rows: list[dict]) -> dict:
    return {
        "version": REPORT_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "checks": rows,
        "pass": all(r["pass"] for r in rows),
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }


def run_all(skip_slow: bool = True) -> dict:
    """Execute every check and return the report dict.

    skip_slow omits the two slow tree searches (BW32 out to norm 4, bw1
    out to norm 8) with every check that reads them, and the two cheap
    checks kept slow so that the fast sweep stays at 52.
    """
    return make_report([run_check(c) for c in checks()
                        if not (skip_slow and c.slow)])


def render_text(report: dict) -> str:
    """Human-readable one-line-per-check rendering of a report dict."""
    lines = []
    width = max((len(c["id"]) for c in report["checks"]), default=0)
    for c in report["checks"]:
        mark = "ok  " if c["pass"] else "FAIL"
        line = f"[{mark}] {c['id']:<{width}}  expected {c['expected']}"
        if not c["pass"]:
            line += f"  got {c['actual']}"
        line += f"  ({c['runtime_ms']} ms)"
        lines.append(line)
    total = len(report["checks"])
    good = sum(1 for c in report["checks"] if c["pass"])
    lines.append(f"{good}/{total} checks passed")
    return "\n".join(lines)
