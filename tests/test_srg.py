"""Strongly regular graph certification and parameter feasibility."""

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from bwlab import f2quad, srg

from . import _oracles


def _petersen():
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [(idx[a], idx[b]) for a, b in combinations(pairs, 2)
             if not set(a) & set(b)]
    return _oracles.from_edges(10, edges)


def _circulant(n, jumps):
    return _oracles.from_edges(n, [(i, (i + d) % n) for i in range(n)
                                   for d in jumps if d % n])


def _cliques(count, size):
    return _oracles.from_edges(count * size, [
        (c * size + i, c * size + j) for c in range(count)
        for i, j in combinations(range(size), 2)])


def _complement(g):
    return srg.Graph(g.n, ~g.adjacency & ~np.eye(g.n, dtype=bool))


def _rook(m):
    """The m x m lattice graph: SRG(m^2, 2m - 2, m - 2, 2)."""
    return _oracles.from_edges(m * m, [
        (a, b) for a, b in combinations(range(m * m), 2)
        if a // m == b // m or a % m == b % m])


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return srg.Graph(g.n, g.adjacency[np.ix_(perm, perm)])


def _switched(g, rng, times, low=0):
    """Degree-preserving switches ab, cd -> ac, bd on vertices >= low."""
    a = g.adjacency.copy()
    verts = range(low, g.n)
    for _ in range(1000 * times):
        if times == 0:
            break
        x, y, z, w = rng.sample(verts, 4)
        if a[x, y] and a[z, w] and not a[x, z] and not a[y, w]:
            a[x, y] = a[y, x] = a[z, w] = a[w, z] = False
            a[x, z] = a[z, x] = a[y, w] = a[w, y] = True
            times -= 1
    return srg.Graph(g.n, a)


def _random_graph(rng, n, p):
    return _oracles.from_edges(n, [e for e in combinations(range(n), 2)
                                   if rng.random() < p])


def _graph_family(seed, sizes):
    """Seeded graphs reaching every verdict of srg_params, with sizes
    on both sides of the 64-vertex word and the 128-row block."""
    rng = random.Random(seed)
    for n in sizes:
        half = n // 2
        jumps = rng.sample(range(1, half + 1), rng.randint(1, max(1, half // 3)))
        yield _circulant(n, jumps)
        yield _relabel(_circulant(n, jumps), rng)
        yield _oracles.cycle_graph(n)
        yield _random_graph(rng, n, rng.choice([0.1, 0.5]))
        parts = [d for d in range(2, n) if n % d == 0]
        if parts:
            size = rng.choice(parts)
            yield _cliques(n // size, size)
            multi = _relabel(_complement(_cliques(n // size, size)), rng)
            yield multi
            yield _switched(multi, rng, rng.randint(1, 3),
                            low=rng.choice([0, n // 2]) if n >= 8 else 0)


def _verdict(p):
    if isinstance(p, srg.NotStronglyRegular):
        return p
    return (p.v, p.k, p.lam, p.mu)


EDGE_SIZES = (63, 64, 65, 127, 128, 129, 130)
# sha256 of the repr of the family's srg_params results
FAMILY_DIGEST = \
    "55620ee198e10763101faedf79c04ebded9855edf1dce17fc1bd7769ecfdfdc0"


def test_srg_params_matches_the_dense_oracle_on_a_seeded_family():
    graphs = list(_graph_family(5, list(range(3, 70)) + list(EDGE_SIZES)))
    graphs += [_oracles.from_edges(n, []) for n in range(0, 5)]
    graphs += [_oracles.complete_graph(n) for n in (3, 64, 129)]
    graphs += [_relabel(_rook(m), random.Random(m)) for m in (3, 8, 11)]
    graphs.append(_switched(_rook(8), random.Random(2), 2, low=40))
    got = [srg.srg_params(g) for g in graphs]
    assert [_verdict(p) for p in got] == \
        [_oracles.dense_srg_params(g) for g in graphs]
    reasons = {p.reason for p in got if isinstance(p, srg.NotStronglyRegular)}
    assert reasons == {"too few vertices", "not regular", "no adjacent pairs",
                       "complete graph: mu undefined", "lambda varies",
                       "mu varies", "not connected"}
    assert sum(isinstance(p, srg.SrgParams) for p in got) > 20
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == FAMILY_DIGEST


@pytest.mark.parametrize("graph, verdict", [
    (lambda: _circulant(63, (1, 2, 3)), ("lambda varies", (0, 2))),
    (lambda: _circulant(64, (2, 7)), ("mu varies", (0, 4))),
    (lambda: _rook(8), (64, 14, 6, 2, 6, -2, 14, 49)),
    (lambda: _complement(_cliques(13, 5)), (65, 60, 55, 60, 0, -5, 52, 12)),
    (lambda: _complement(_cliques(2, 64)), (128, 64, 0, 64, 0, -64, 126, 1)),
    (lambda: _cliques(43, 3), ("not connected", None)),
    (lambda: _oracles.cycle_graph(129), ("mu varies", (0, 3))),
    # mu already varies in the first block of rows, lambda only in the
    # second; lambda is checked over every pair first
    (lambda: _oracles.from_edges(133, [(i, (i + 1) % 130) for i in range(130)]
                                 + [(130, 131), (131, 132), (132, 130)]),
     ("lambda varies", (130, 131))),
    (lambda: _switched(_rook(12), random.Random(4), 1, low=130),
     ("lambda varies", (120, 130))),
    (lambda: _switched(_relabel(_rook(11), random.Random(4)),
                       random.Random(4), 1, low=100),
     ("lambda varies", (3, 104))),
], ids=["circulant63", "circulant64", "rook8", "multipartite13x5",
        "bipartite64x64", "cliques43x3", "cycle129", "cycle130+triangle",
        "rook12-switched", "rook11-switched"])
def test_srg_params_at_word_and_block_edges(graph, verdict):
    g = graph()
    p = srg.srg_params(g)
    assert _verdict(p) == _oracles.dense_srg_params(g)
    if isinstance(p, srg.NotStronglyRegular):
        assert (p.reason, p.pair) == verdict
    else:
        assert (p.v, p.k, p.lam, p.mu, p.r, p.s, p.f, p.g) == verdict


def test_perp_of_h2_is_srg_9_4_1_2():
    p = srg.srg_params(srg.perp_graph(f2quad.hyperbolic(2)))
    assert isinstance(p, srg.SrgParams)
    assert (p.v, p.k, p.lam, p.mu) == (9, 4, 1, 2)
    assert (p.r, p.s, p.f, p.g) == (1, -2, 4, 4)


def test_petersen_parameters():
    p = srg.srg_params(_petersen())
    assert (p.v, p.k, p.lam, p.mu) == (10, 3, 0, 1)
    assert (p.r, p.s, p.f, p.g) == (1, -2, 5, 4)


def test_pentagon_is_a_conference_graph():
    p = srg.srg_params(_oracles.cycle_graph(5))
    assert (p.v, p.k, p.lam, p.mu) == (5, 2, 0, 1)
    assert p.r is None and p.s is None
    assert p.f == p.g == 2


def test_complete_graph_rejected():
    out = srg.srg_params(_oracles.complete_graph(5))
    assert isinstance(out, srg.NotStronglyRegular)
    assert "complete" in out.reason


def test_irregular_graph_rejected_with_witness():
    g = _oracles.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    out = srg.srg_params(g)
    assert isinstance(out, srg.NotStronglyRegular)
    assert out.reason == "not regular"


def test_hexagon_rejected_mu_varies():
    out = srg.srg_params(_oracles.cycle_graph(6))
    assert isinstance(out, srg.NotStronglyRegular)
    assert out.reason == "mu varies"
    i, j = out.pair
    # the witness pair really does break the common-neighbour count
    assert i != j


def test_disconnected_graph_rejected():
    g = _oracles.from_edges(6, [(0, 1), (1, 2), (2, 0),
                                (3, 4), (4, 5), (5, 3)])
    out = srg.srg_params(g)
    assert isinstance(out, srg.NotStronglyRegular)
    assert out.reason == "not connected"


def test_disconnected_graph_with_varying_lambda():
    # C3 + C4: lambda is 1 on the triangle, 0 on the square
    g = _oracles.from_edges(7, [(0, 1), (1, 2), (2, 0),
                                (3, 4), (4, 5), (5, 6), (6, 3)])
    out = srg.srg_params(g)
    assert isinstance(out, srg.NotStronglyRegular)
    assert out.reason == "lambda varies"


def test_edgeless_graph_has_no_adjacent_pairs():
    out = srg.srg_params(_oracles.from_edges(3, []))
    assert isinstance(out, srg.NotStronglyRegular)
    assert out.reason == "no adjacent pairs"


def test_perp_of_h5_is_certified_strongly_regular():
    p = srg.srg_params(srg.perp_graph(f2quad.hyperbolic(5)))
    assert isinstance(p, srg.SrgParams)
    assert (p.v, p.k, p.lam, p.mu) == (527, 270, 141, 135)
    assert (p.r, p.s, p.f, p.g) == (15, -9, 186, 340)


def test_perp_graph_has_singular_vertices_in_sorted_order():
    s = f2quad.hyperbolic(2)
    g = srg.perp_graph(s)
    assert g.n == 9
    assert g.degrees().tolist() == [4] * 9


def test_perp_graph_adjacency_is_bilinear_orthogonality():
    for s in (f2quad.hyperbolic(3), f2quad.elliptic(3)):
        verts = f2quad.singular_vectors(s)
        a = srg.perp_graph(s).adjacency
        for i, x in enumerate(verts):
            for j, y in enumerate(verts):
                assert a[i, j] == (i != j and f2quad.eval_b(s, x, y) == 0)


def test_perp_graph_dimension_guard():
    with pytest.raises(ValueError):
        srg.perp_graph(f2quad.hyperbolic(7))


def test_feasible_pairs_9_4():
    rows = srg.feasible_pairs(9, 4)
    assert [(p.lam, p.mu) for p in rows] == [(1, 2)]
    assert (rows[0].r, rows[0].s, rows[0].f, rows[0].g) == (1, -2, 4, 4)


def test_feasible_pairs_5_2_includes_conference():
    rows = srg.feasible_pairs(5, 2)
    assert [(p.lam, p.mu) for p in rows] == [(0, 1)]
    assert rows[0].r is None


def test_feasible_pairs_139503_4590():
    rows = srg.feasible_pairs(139503, 4590)
    assert len(rows) == 1
    p = rows[0]
    assert (p.lam, p.mu) == (621, 135)
    assert (p.r, p.s) == (495, -9)
    assert (p.f, p.g) == (2482, 137020)
    assert p.f + p.g == p.v - 1
    # trace condition: k + f r + g s = 0
    assert p.k + p.f * p.r + p.g * p.s == 0


def test_feasible_pairs_input_validation():
    with pytest.raises(ValueError):
        srg.feasible_pairs(10, 0)
    with pytest.raises(ValueError):
        srg.feasible_pairs(10, 9)


def test_from_edges_validation():
    # the loop is caught by srg.Graph itself, as is a one-way edge
    with pytest.raises(ValueError):
        _oracles.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        _oracles.from_edges(3, [(0, 5)])
    one_way = np.zeros((3, 3), dtype=bool)
    one_way[0, 1] = True
    with pytest.raises(ValueError):
        srg.Graph(3, one_way)
    with pytest.raises(ValueError, match="adjacency shape mismatch"):
        srg.Graph(3, np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError, match="adjacency must be boolean"):
        srg.Graph(3, np.zeros((3, 3), dtype=np.uint8))


def test_edges_file_roundtrip(tmp_path):
    g = _petersen()
    path = tmp_path / "g.edges"
    srg.write_edges(g, path)
    back = _oracles.from_edges(10, [tuple(map(int, line.split()))
                               for line in path.read_text().splitlines()])
    assert (back.adjacency == g.adjacency).all()
