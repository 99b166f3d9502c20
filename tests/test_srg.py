"""Strongly regular graph certification and parameter feasibility."""

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


def test_edges_file_roundtrip(tmp_path):
    g = _petersen()
    path = tmp_path / "g.edges"
    srg.write_edges(g, path)
    back = _oracles.from_edges(10, [tuple(map(int, line.split()))
                               for line in path.read_text().splitlines()])
    assert (back.adjacency == g.adjacency).all()
