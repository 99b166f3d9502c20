"""Tests of the benchmark's oracles and input generators.

    python3 -m pytest bwbench/test_oracles.py

The oracle tests use nothing from bwlab: they pin each reference value
to a published constant or to a brute-force count.  The last tests tie
the benchmark's inputs to bwlab (same lattices, fresh HNFs, whole
rounds) and are skipped where bwlab cannot be imported.
"""

import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402


def test_series_basics():
    assert oracles.e4(4) == [1, 240, 2160, 6720]
    assert oracles.euler(8) == [1, -1, -1, 0, 0, 1, 0, 1]  # pentagonal numbers
    assert oracles.delta(4) == [0, 1, -24, 252]
    assert oracles.series_pow([1, 1, 0, 0], 3) == [1, 3, 3, 1]
    assert oracles.series_mul([1, 2, 3], oracles.series_inverse([1, 2, 3])) == [1, 0, 0]


def test_j_and_its_cube_root():
    assert oracles.q_times_j(4) == [1, 744, 196884, 21493760]
    root = oracles.cube_root(oracles.q_times_j(6))
    assert root[:4] == [1, 248, 4124, 34752]
    assert oracles.series_pow(root, 3) == oracles.q_times_j(6)
    with pytest.raises(ArithmeticError):
        oracles.cube_root([1, 1])


def test_t1_head_and_cube_target():
    head = oracles.t1_head(6)
    assert head[:3] == [1, 0, 139504]
    assert oracles.series_pow(head, 3) == oracles.t1_cube_target(6)


def test_theta_series():
    # Conway and Sloane, SPLAG ch. 4 s. 10: BW16 has 4320 minimal vectors
    # of norm 4 and 61440 of norm 6; BW32 has 146880 of norm 4 and no roots
    assert oracles.theta_bw16(5) == [1, 0, 4320, 61440, 522720]
    assert oracles.theta_bw32(3) == [1, 0, 146880]
    assert oracles.shell(oracles.theta_bw16(4), 4) == 4320
    assert oracles.shell(oracles.theta_bw16(4), Fraction(9, 2)) == 0
    assert oracles.minimum_norm(oracles.theta_bw32(3)) == 4


def _brute_force_space(m: int, plus: bool):
    """Singular vectors and the perpendicularity relation, by enumeration."""
    def q(x):
        pairs = sum(x[2 * i] * x[2 * i + 1] for i in range(m))
        if not plus:  # the last plane carries x^2 + xy + y^2
            a, b = x[-2], x[-1]
            pairs += a * a + b * b
        return pairs % 2

    def bil(x, y):
        s = tuple((a + b) % 2 for a, b in zip(x, y))
        return (q(s) + q(x) + q(y)) % 2

    points = [x for x in product((0, 1), repeat=2 * m) if any(x) and not q(x)]
    return points, bil


@pytest.mark.parametrize("m,plus", [(2, True), (2, False), (3, True), (3, False)])
def test_singular_counts_and_polar_graphs(m, plus):
    points, bil = _brute_force_space(m, plus)
    assert len(points) == oracles.singular_count(m, plus)
    if m < 3 and not plus:
        return  # O-(4, 2) has rank 1: no polar graph
    adj = {(x, y): x != y and not bil(x, y) for x in points for y in points}
    k = sum(adj[points[0], y] for y in points)
    common = {}
    for x, y in product(points, repeat=2):
        if x < y:
            n = sum(adj[x, z] and adj[y, z] for z in points)
            common.setdefault(adj[x, y], set()).add(n)
    assert all(len(v) == 1 for v in common.values())
    got = (len(points), k, *common[True], *common[False])
    assert got == oracles.polar_graph(m, plus)


def test_polar_graphs_of_the_paper():
    assert oracles.polar_graph(5, True) == (527, 270, 141, 135)
    assert oracles.polar_graph(5, False) == (495, 238, 109, 119)
    assert oracles.srg_spectrum(527, 270, 141, 135) == (15, -9, 186, 340)


def test_group_orders():
    assert oracles.omega_plus_order_even_q(2, 2) == 36
    assert oracles.parse_factored("2^20·3^5·5^2·7·17·31") == \
        oracles.omega_plus_order_even_q(5, 2)
    assert oracles.parse_factored("2^36·3^6·5^2·7^3·13·17·31·73") == \
        oracles.e6_order(2)


def test_hnf_is_canonical():
    rows = [[2, 4, 6], [0, 3, 9], [4, 1, 1]]
    h = oracles.hnf(rows)
    assert oracles.hnf(h) == h
    shuffled = [[a + b for a, b in zip(rows[0], rows[2])], rows[1],
                [-x for x in rows[2]]]
    assert oracles.hnf(shuffled) == h
    assert oracles.hnf([[2, 0], [0, 2], [1, 1]]) == [[1, 1], [0, 2]]


def test_reed_muller_codes():
    assert len(oracles.reed_muller(1)) == 32
    assert len(oracles.reed_muller(2)) == 2048
    weights = {sum(w) for w in oracles.reed_muller(1)}
    assert weights == {0, 8, 16}


@pytest.mark.parametrize("kind", sorted(oracles.LATTICES))
def test_rank16_lattices(kind):
    rows, den, frame = oracles.base_lattice(kind)
    assert len(rows) == 16
    assert oracles.determinant(rows, den, frame) == 256
    assert oracles.discriminant_invariants(rows, den, frame) == (2,) * 8
    assert oracles.generated_by_norm4(kind)


# --------------------------------------------------------------------------
# the benchmark's inputs and checks against bwlab

sys.path.insert(0, str(HERE.parent / "src"))


def test_constructions_match_bwlab():
    pytest.importorskip("bwlab")
    from bwlab import bw, exlat
    b16 = bw.bw16()
    assert [list(r) for r in b16.mat] == oracles.base_lattice("bw16")[0]
    d = exlat.rescale_metric(exlat.dual(b16), 2)
    assert (d.den, d.frame_scale) == (4, 4)
    assert [list(r) for r in d.mat] == oracles.base_lattice("sqrt2-bw16-dual")[0]


@pytest.mark.parametrize("workload", ["theta-queries", "gf2-graphs"])
def test_a_round_passes_its_checks(workload):
    pytest.importorskip("bwlab")
    import workloads
    plan = workloads.plan(workload, 5, 0)
    again = workloads.plan(workload, 5, 0)
    assert [label for label, _ in plan.steps] == [l for l, _ in again.steps]
    outcome = plan.check([step() for _, step in plan.steps])
    assert outcome.attempted == len(plan.steps)
    assert outcome.failures == [] and outcome.correct


def test_a_wrong_value_fails_its_operation():
    pytest.importorskip("bwlab")
    import workloads
    plan = workloads.plan("theta-queries", 5, 0)
    results = [step() for _, step in plan.steps[:7]] * workloads.THETA_LATTICES
    results[1] = 4321
    results[2] = RuntimeError("boom")
    outcome = plan.check(results)
    assert outcome.attempted == len(plan.steps)
    assert [f.split(":")[0] for f in outcome.failures] == \
        ["bw16#0 shell 4", "bw16#0 shell 6"]
