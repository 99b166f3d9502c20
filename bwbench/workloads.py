"""The four workloads: their generated inputs, operations and checks.

A Plan holds the steps of one round, in order, and the check that turns
the step results into operation outcomes.  Steps look their bwlab
function up when they run, so that a Tracer installed before the round
sees every call.  Inputs come from the seed and the round index alone;
bwlab receives only the generated lattices, matrices and sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("fast-sweep", "full-sweep", "theta-queries", "gf2-graphs")

# the `threads` each workload asks bwlab for; None is bwlab's default,
# os.cpu_count(), which minimum_norm always uses
THREADS = {"fast-sweep": None, "full-sweep": 2, "theta-queries": 1,
           "gf2-graphs": None}

SWEEPS = {
    "fast-sweep": (["verify-paper", "--skip-slow", "--json"], 52),
    "full-sweep": (["verify-paper", "--threads", "2", "--json"], 58),
}

THETA_LATTICES = 12          # lattices per round, alternating the two kinds
THETA_KINDS = ("bw16", "sqrt2-bw16-dual")
THETA_NORMS = (2, 4, 6)
GF2_COUNT_HALF_DIMS = (8, 9, 10, 11, 12)   # singular counts at dims 16..24
GF2_GRAPH_KINDS = (True, False, True, False)  # h5, e5, h5, e5 (True: plus)
T1_TERMS = 400


@dataclass
class Outcome:
    attempted: int
    failures: list[str] = field(default_factory=list)
    correct: bool = True


@dataclass
class Plan:
    steps: list[tuple[str, Callable[[], object]]]
    check: Callable[[list], Outcome]


def plan(workload: str, seed: int, index: int) -> Plan:
    if workload in SWEEPS:
        return _sweep(*SWEEPS[workload])
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _theta(rng) if workload == "theta-queries" else _gf2(rng)


def _ops_plan(ops) -> Plan:
    """Plan of (label, step, expected) operations, one operation per step.

    An operation fails when its step raises, or when its result differs
    from `expected`; a callable `expected` returns a problem or None.
    """
    def check(results) -> Outcome:
        out = Outcome(len(results))
        for (label, _, want), got in zip(ops, results):
            if isinstance(got, Exception):
                out.failures.append(f"{label}: raised {got!r}")
            elif callable(want):
                problem = want(got)
                if problem:
                    out.failures.append(f"{label}: {problem}")
            elif got != want:
                out.failures.append(f"{label}: got {got!r}, expected {want!r}")
        return out
    return Plan([(label, step) for label, step, _ in ops], check)


# --------------------------------------------------------------------------
# fast-sweep and full-sweep: `bwlab verify-paper`, one operation per check


def sweep_expectations() -> dict[str, Callable[[str], bool]]:
    """Check id -> test of the check's reported actual value, from oracles."""
    t16, t32 = oracles.theta_bw16(5), oracles.theta_bw32(3)
    b16 = oracles.base_lattice("bw16")
    qj = oracles.q_times_j(3)
    root = oracles.cube_root(oracles.q_times_j(4))
    t1 = oracles.t1_head(3)
    plus = [oracles.singular_count(m, True) for m in range(1, 6)]
    h5 = oracles.polar_graph(5, True)
    text = {
        "lattice.bw16-det": oracles.determinant(*b16),
        "lattice.bw16-dual-quotient": oracles.discriminant_invariants(*b16),
        "lattice.bw16-min": oracles.minimum_norm(t16),
        "lattice.bw16-kissing": oracles.shell(t16, 4),
        "ledger.2160": oracles.shell(t16, 4) // 2,
        "lattice.bw32-norm2-count": oracles.shell(t32, 2),
        "lattice.bw32-kissing": oracles.shell(t32, 4),
        "ledger.73440": oracles.shell(t32, 4) // 2,
        "lattice.bw32-min": oracles.minimum_norm(t32),
        "quad.singular-counts": tuple(plus),
        "quad.elliptic4-count": oracles.singular_count(4, False),
        "ledger.527-quad": plus[4],
        "srg.h2-perp": oracles.polar_graph(2, True),
        "srg.h5-perp": h5 + oracles.srg_spectrum(*h5),
        "orders.omega-plus-4-2": oracles.omega_plus_order_even_q(2, 2),
        "series.j-coefficients": tuple(qj),
        "series.cube-root-j": tuple(root),
        "series.t1-offset": oracles.T1_OFFSET,
        "series.t1-coefficients": tuple(t1),
        "ledger.139504-series": t1[2],
    }
    tests = {k: (lambda actual, v=str(v): actual == v) for k, v in text.items()}
    factored = {
        "orders.e6-q2": oracles.e6_order(2),
        "orders.omega-plus-10-2": oracles.omega_plus_order_even_q(5, 2),
        "orders.aut-shape": 2 ** 27 * oracles.e6_order(2),
    }
    for k, v in factored.items():
        tests[k] = lambda actual, v=v: oracles.parse_factored(actual) == v
    return tests


def _sweep(argv: list[str], expected_checks: int) -> Plan:
    def run():
        from bwlab import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(results) -> Outcome:
        got = results[0]
        if isinstance(got, Exception):
            return Outcome(expected_checks, [f"verify-paper raised {got!r}"]
                           * expected_checks)
        code, text = got
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return Outcome(expected_checks, [f"verify-paper exited {code} "
                                             "without a JSON report"]
                           * expected_checks)
        checks = report["checks"]
        tests = sweep_expectations()
        out = Outcome(len(checks))
        for c in checks:
            if not c["pass"]:
                out.failures.append(f"{c['id']}: check failed, got {c['actual']}")
            elif c["id"] in tests and not tests[c["id"]](c["actual"]):
                out.failures.append(f"{c['id']}: {c['actual']} disagrees "
                                    "with the oracle")
        ids = [c["id"] for c in checks]
        out.correct = (len(checks) == expected_checks
                       and len(set(ids)) == len(ids)
                       and (code == 0) == report["pass"])
        return out

    return Plan([(" ".join(argv), run)], check)


# --------------------------------------------------------------------------
# theta-queries: fresh copies of BW16 and sqrt(2) BW16^*, threads=1


def _scramble(rows, rng, moves: int = 24):
    """Random unimodular row operations: same lattice, different basis."""
    rows = [list(r) for r in rows]
    for _ in range(moves):
        a, b = rng.sample(range(len(rows)), 2)
        c = rng.choice((-1, 1))
        rows[a] = [x + c * y for x, y in zip(rows[a], rows[b])]
    rng.shuffle(rows)
    return rows


def _theta(rng) -> Plan:
    from bwlab import exlat
    theta = oracles.theta_bw16(4)
    facts = {}
    for name in THETA_KINDS:
        rows, den, frame = oracles.base_lattice(name)
        facts[name] = (rows, den, frame, oracles.generated_by_norm4(name),
                       oracles.determinant(rows, den, frame),
                       oracles.discriminant_invariants(rows, den, frame))
    ops, seen = [], set()
    for i in range(THETA_LATTICES):
        name = THETA_KINDS[i % 2]
        rows, den, frame, generated, det, quotient = facts[name]
        perm = rng.sample(range(16), 16)
        signs = [rng.choice((-1, 1)) for _ in range(16)]
        moved = [[signs[j] * r[perm[j]] for j in range(16)] for r in rows]
        key = (name, tuple(map(tuple, oracles.hnf(moved))))
        if key in seen:  # equal HNFs would turn the query into a cache hit
            raise RuntimeError(f"lattice {i} repeats an earlier input")
        seen.add(key)
        lat = exlat.ScaledBasis.from_rows(_scramble(moved, rng), den, frame)
        tag = f"{name}#{i}"
        ops += [(f"{tag} shell {n}",
                 lambda L=lat, n=n: exlat.enumerate_norm(L, n, threads=1),
                 oracles.shell(theta, n)) for n in THETA_NORMS]
        ops += [
            (f"{tag} minimum_norm", lambda L=lat: exlat.minimum_norm(L),
             oracles.minimum_norm(theta)),
            (f"{tag} generated_by_norm_vectors 4", lambda L=lat:
             exlat.generated_by_norm_vectors(L, 4, threads=1), generated),
            (f"{tag} determinant", lambda L=lat:
             exlat.determinant(exlat.gram(L)), det),
            (f"{tag} quotient_invariants", lambda L=lat:
             exlat.quotient_invariants(exlat.dual(L), L), quotient),
        ]
    return _ops_plan(ops)


# --------------------------------------------------------------------------
# gf2-graphs: transported plus and minus forms, their graphs, and t1


def _gf2_rank(rows) -> int:
    rows, r = list(rows), 0
    while rows:
        pivot = rows.pop()
        if pivot:
            r += 1
            low = pivot & -pivot
            rows = [x ^ pivot if x & low else x for x in rows]
    return r


def _invertible(n: int, rng):
    from bwlab.f2linalg import F2Matrix
    while True:
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        if _gf2_rank(rows) == n:
            return F2Matrix(n, n, rows)


def _t1_check(n: int):
    head = oracles.t1_head(3)

    def check(series) -> str | None:
        coeffs = list(series.coeffs)
        if Fraction(series.offset_thirds, 3) != oracles.T1_OFFSET:
            return f"offset {series.offset_thirds}/3"
        if len(coeffs) != n or coeffs[:3] != head:
            return f"leading coefficients {coeffs[:3]}, expected {head}"
        if oracles.series_pow(coeffs, 3) != oracles.t1_cube_target(n):
            return "cube differs from j (j - 992)^3"
        return None
    return check


def _gf2(rng) -> Plan:
    from bwlab import f2quad, qser, srg

    def form(m: int, plus: bool):
        return f2quad.hyperbolic(m) if plus else f2quad.elliptic(m)

    ops = []
    for m in GF2_COUNT_HALF_DIMS:
        plus = rng.random() < 0.5
        s, t = form(m, plus), _invertible(2 * m, rng)
        ops.append((f"singular_count {'h' if plus else 'e'}{m}",
                    lambda s=s, t=t: f2quad.singular_count(f2quad.transport(s, t)),
                    oracles.singular_count(m, plus)))

    def params(s, t):
        p = srg.srg_params(srg.perp_graph(f2quad.transport(s, t)))
        return (p.v, p.k, p.lam, p.mu, p.r, p.s, p.f, p.g)

    for i, plus in enumerate(GF2_GRAPH_KINDS):
        s, t = form(5, plus), _invertible(10, rng)
        graph = oracles.polar_graph(5, plus)
        ops.append((f"srg_params {'h' if plus else 'e'}5#{i}",
                    lambda s=s, t=t: params(s, t),
                    graph + oracles.srg_spectrum(*graph)))
    ops.append((f"t1_series {T1_TERMS}", lambda: qser.t1_series(T1_TERMS),
                _t1_check(T1_TERMS)))
    return _ops_plan(ops)
