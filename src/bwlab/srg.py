"""Strongly regular graphs: certification and parameter feasibility.

The graph delivered here is the perpendicularity graph on the nonzero
singular vectors of a GF(2) quadratic space (adjacency: B(x, y) = 0,
x != y), certified strongly regular by counting common neighbours of
every vertex pair.  feasible_pairs solves the parameter arithmetic for
a given (v, k) exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import f2quad

MAX_PERP_DIM = 12


@dataclass(frozen=True)
class Graph:
    n: int
    adjacency: np.ndarray  # symmetric boolean matrix, zero diagonal

    def __post_init__(self):
        a = self.adjacency
        if a.shape != (self.n, self.n):
            raise ValueError("adjacency shape mismatch")
        if a.dtype != np.bool_:
            raise ValueError("adjacency must be boolean")
        if a.diagonal().any():
            raise ValueError("loops not allowed")
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric")
        a.setflags(write=False)

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)


@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int
    r: int | None  # integer eigenvalues; None in the conference case
    s: int | None
    f: int
    g: int


@dataclass(frozen=True)
class NotStronglyRegular:
    reason: str
    pair: tuple[int, int] | None = None


def perp_graph(s: f2quad.QuadSpace) -> Graph:
    """Vertices: nonzero singular vectors (lex order); edges: B(x,y) = 0."""
    if s.dim > MAX_PERP_DIM:
        raise ValueError(f"dimension {s.dim} exceeds graph guard {MAX_PERP_DIM}")
    verts = np.array(f2quad.singular_vectors(s), dtype=np.uint64)
    n = len(verts)
    images = np.array([f2quad.bilinear_image(s, int(x)) for x in verts],
                      dtype=np.uint64)
    pair = np.bitwise_count(images[:, None] & verts) & 1
    adj = (pair == 0) & ~np.eye(n, dtype=bool)
    return Graph(n, adj)


def _is_connected(g: Graph) -> bool:
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(g.n, dtype=bool)
    frontier[0] = True
    while frontier.any():
        nxt = g.adjacency[frontier].any(axis=0) & ~seen
        seen |= nxt
        frontier = nxt
    return bool(seen.all())


def _eigen_data(v: int, k: int, lam: int, mu: int):
    """(r, s, f, g) if the parameter set is spectrally feasible, else None."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        return None
    sq = isqrt(disc)
    balance = 2 * k + (v - 1) * (lam - mu)
    if sq * sq == disc:
        if balance % sq:
            return None
        spread = balance // sq
        if (v - 1 - spread) % 2 or spread > v - 1 or spread < -(v - 1):
            return None
        f = (v - 1 - spread) // 2
        g = (v - 1 + spread) // 2
        r = (lam - mu + sq) // 2
        s = (lam - mu - sq) // 2
        return r, s, f, g
    # irrational eigenvalues: only the conference balance f = g survives
    if balance != 0 or (v - 1) % 2:
        return None
    return None, None, (v - 1) // 2, (v - 1) // 2


def srg_params(g: Graph):
    """Exact SRG parameters by checking every pair, or NotStronglyRegular."""
    n = g.n
    if n < 3:
        return NotStronglyRegular("too few vertices")
    deg = g.degrees()
    k = int(deg[0])
    if (deg != k).any():
        bad = int(np.nonzero(deg != k)[0][0])
        return NotStronglyRegular("not regular", (0, bad))
    if not _is_connected(g):
        return NotStronglyRegular("not connected")
    a = g.adjacency
    # exact: every partial sum is an integer of at most n < 2^53
    common = (a.astype(np.float64) @ a.astype(np.float64)).astype(np.int64)
    iu, ju = np.triu_indices(n, 1)
    adj_mask = a[iu, ju]
    if not adj_mask.any():
        return NotStronglyRegular("no adjacent pairs")
    if adj_mask.all():
        return NotStronglyRegular("complete graph: mu undefined")
    adj_counts = common[iu, ju][adj_mask]
    non_counts = common[iu, ju][~adj_mask]
    lam = int(adj_counts[0])
    mu = int(non_counts[0])
    if (adj_counts != lam).any():
        w = int(np.nonzero(adj_counts != lam)[0][0])
        pos = np.nonzero(adj_mask)[0][w]
        return NotStronglyRegular("lambda varies", (int(iu[pos]), int(ju[pos])))
    if (non_counts != mu).any():
        w = int(np.nonzero(non_counts != mu)[0][0])
        pos = np.nonzero(~adj_mask)[0][w]
        return NotStronglyRegular("mu varies", (int(iu[pos]), int(ju[pos])))
    assert k * (k - lam - 1) == (n - k - 1) * mu, "SRG identity must hold"
    eig = _eigen_data(n, k, lam, mu)
    if eig is None:
        raise RuntimeError("pair-counted SRG with infeasible spectrum; bug")
    r, s, f, gg = eig
    return SrgParams(n, k, lam, mu, r, s, f, gg)


def feasible_pairs(v: int, k: int) -> list[SrgParams]:
    """Exhaustive scan of (lambda, mu) feasible for an SRG(v, k, *, *).

    Keeps pairs with 0 <= lambda <= k-1, 1 <= mu <= k satisfying the
    counting identity with integral non-negative multiplicities and
    integral eigenvalues (or the conference balance); ascending lambda.
    """
    if not 0 < k < v - 1:
        raise ValueError("need 0 < k < v - 1")
    out = []
    rest = v - k - 1
    for lam in range(0, k):
        num = k * (k - lam - 1)
        if num % rest:
            continue
        mu = num // rest
        if not 1 <= mu <= k:
            continue
        eig = _eigen_data(v, k, lam, mu)
        if eig is None:
            continue
        r, s, f, g = eig
        p = SrgParams(v, k, lam, mu, r, s, f, g)
        assert p.k * (p.k - p.lam - 1) == (p.v - p.k - 1) * p.mu
        out.append(p)
    return out


def write_edges(g: Graph, path) -> None:
    """Edge list, one 'i j' pair per line with i < j, vertices 0-indexed."""
    iu, ju = np.nonzero(np.triu(g.adjacency, 1))
    with open(path, "w") as fh:
        for i, j in zip(iu, ju):
            fh.write(f"{i} {j}\n")
