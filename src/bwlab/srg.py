"""Strongly regular graphs: certification and parameter feasibility.

The graph delivered here is the perpendicularity graph on the nonzero
singular vectors of a GF(2) quadratic space (adjacency: B(x, y) = 0,
x != y), certified strongly regular by counting common neighbours of
every vertex pair: lambda and mu are read off row 0, and each block of
rows is checked against them with one mismatch mask.  mu >= 1 puts
every pair within distance 2, so the graph is connected, and mu = 0
makes every component complete (Brouwer and Van Maldeghem, Strongly
Regular Graphs, 2022).  feasible_pairs solves the parameter arithmetic
for a given (v, k) exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import f2quad

MAX_PERP_DIM = 12
BLOCK_ROWS = 128  # rows of common-neighbour counts held at once


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
    """Exact SRG parameters by checking every pair, or NotStronglyRegular.

    Pairs i < j are read in row-major order: lambda and mu are the counts
    of the first adjacent and the first non-adjacent pair, both in row 0
    of a regular graph with 1 <= k <= n - 2; a witness is the first pair
    that breaks one, and every adjacent pair is checked before a mu
    witness is reported.  Common neighbours are popcounts of the
    adjacency rows packed 64 vertices to a word, BLOCK_ROWS rows at a
    time against the vertices from the block's first row on.
    """
    n = g.n
    if n < 3:
        return NotStronglyRegular("too few vertices")
    deg = g.degrees()
    k = int(deg[0])
    if (deg != k).any():
        bad = int(np.nonzero(deg != k)[0][0])
        return NotStronglyRegular("not regular", (0, bad))
    if k == 0:
        return NotStronglyRegular("no adjacent pairs")
    if k == n - 1:
        return NotStronglyRegular("complete graph: mu undefined")
    a = g.adjacency
    packed = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(a, axis=1, bitorder="little")
    columns = np.ascontiguousarray(packed.view(np.uint64).T)  # word w of every row
    mu_witness = None
    for i0 in range(0, n, BLOCK_ROWS):
        common = np.zeros((min(BLOCK_ROWS, n - i0), n - i0), dtype=np.uint32)
        for col in columns:
            common += np.bitwise_count(col[i0:i0 + BLOCK_ROWS, None] & col[i0:])
        adj = a[i0:i0 + len(common), i0:]
        if i0 == 0:
            lam = int(common[0, np.argmax(adj[0])])
            mu = int(common[0, 1 + np.argmin(adj[0, 1:])])
        r, c = np.nonzero(np.triu(common != np.where(adj, lam, mu), 1))
        on_edge = np.flatnonzero(adj[r, c])
        if on_edge.size:
            e = on_edge[0]
            return NotStronglyRegular("lambda varies",
                                      (i0 + int(r[e]), i0 + int(c[e])))
        if r.size and mu_witness is None:
            mu_witness = (i0 + int(r[0]), i0 + int(c[0]))
    if mu_witness is not None:
        return NotStronglyRegular("mu varies", mu_witness)
    if mu == 0:
        # every component is complete, and the graph is not: two or more
        return NotStronglyRegular("not connected")
    if k * (k - lam - 1) != (n - k - 1) * mu:
        raise RuntimeError("pair-counted SRG breaks k(k-lam-1) = (v-k-1)mu; bug")
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
        out.append(SrgParams(v, k, lam, mu, r, s, f, g))
    return out


def write_edges(g: Graph, path) -> None:
    """Edge list, one 'i j' pair per line with i < j, vertices 0-indexed."""
    iu, ju = np.nonzero(np.triu(g.adjacency, 1))
    with open(path, "w") as fh:
        for i, j in zip(iu, ju):
            fh.write(f"{i} {j}\n")
