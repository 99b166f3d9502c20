"""Independent reference implementations used only by the tests.

Everything here recomputes values by a different method than the
package: vector counts by exhaustive box enumeration bounded through an
eigenvalue estimate, series roots by Newton iteration over rationals,
group closures by products of dense matrices.  Deliberately slow and
simple.  The small GF(2) and graph builders exist only to feed the
tests; the largest totally singular dimension comes from a search over
every totally singular subspace.
"""

from fractions import Fraction
from math import ceil, floor, sqrt

import numpy as np

from bwlab import exlat, f2linalg, srg
from bwlab.exlat import ScaledBasis
from bwlab.f2linalg import F2Matrix

MAX_BOX = 2_000_000


def _box(b: ScaledBasis, n):
    """The rows V = X . mat over a box of coefficients X that holds every
    vector of norm <= n, their exact integer norms S = |V|^2, and n in
    those units, n * den^2 / frame_scale.

    The box radius comes from the smallest Gram eigenvalue: any x with
    x G x^T <= N satisfies |x_i| <= sqrt(N / lambda_min).  Uses numpy
    eigvalsh plus exact integer norms, nothing from the package kernel.
    """
    n = Fraction(n)
    M = np.array(b.mat, dtype=np.int64)
    gram_float = (M @ M.T).astype(np.float64) \
        * float(b.frame_scale) / (b.den * b.den)
    lam_min = float(np.linalg.eigvalsh(gram_float)[0])
    if lam_min <= 0:
        raise ValueError("basis rows are dependent")
    radius = ceil(sqrt(float(n) / lam_min * (1 + 1e-9))) + 1
    rank = M.shape[0]
    if (2 * radius + 1) ** rank > MAX_BOX:
        raise ValueError("box too large; pick a smaller test lattice")
    axes = [np.arange(-radius, radius + 1)] * rank
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, rank)
    V = X @ M
    return V, (V * V).sum(axis=1), n * b.den * b.den / b.frame_scale


def box_norm_vectors(b: ScaledBasis, n) -> list[tuple[int, ...]]:
    """All lattice vectors of exact norm n, found by enumerating a box.

    Rows are integer coordinates in the ambient frame scaled by b.den,
    sorted lexicographically.
    """
    V, S, target = _box(b, n)
    if target.denominator != 1:
        return []
    return sorted(tuple(int(x) for x in row) for row in V[S == int(target)])


def box_norm_histogram(b: ScaledBasis, n) -> dict[int, int]:
    """{t: number of lattice vectors with integer norm t} for 0 < t <= n
    in the units of _box, by the same box enumeration."""
    V, S, target = _box(b, n)
    inside = S[(S > 0) & (S <= floor(target))]
    norms, counts = np.unique(inside, return_counts=True)
    return dict(zip(norms.tolist(), counts.tolist()))


def box_norm_count(b: ScaledBasis, n) -> int:
    """Number of lattice vectors of exact norm n, by box_norm_vectors."""
    return len(box_norm_vectors(b, n)) - (1 if n == 0 else 0)


def random_small_basis(rng, max_rank: int = 6) -> ScaledBasis:
    """A random full-rank lattice small enough for the box oracle."""
    while True:
        rank = rng.randint(1, max_rank)
        ambient = rank + rng.choice([0, 0, 1])
        den = rng.choice([1, 1, 2, 3])
        frame = rng.choice([Fraction(1), Fraction(1), Fraction(2),
                            Fraction(1, 2)])
        rows = [[rng.randint(-2, 2) for _ in range(ambient)]
                for _ in range(rank)]
        M = np.array(rows, dtype=np.int64)
        gram_float = (M @ M.T).astype(np.float64) \
            * float(frame) / (den * den)
        eigs = np.linalg.eigvalsh(gram_float)
        if eigs[0] < 0.2:
            continue
        radius = ceil(sqrt(8.0 / eigs[0])) + 1
        if (2 * radius + 1) ** rank > MAX_BOX:
            continue
        return ScaledBasis.from_rows(rows, den, frame)


def shuffled_basis(b: ScaledBasis, rng, steps: int = 25) -> ScaledBasis:
    """Apply random determinant-+-1 row operations; same lattice."""
    rows = [list(r) for r in b.mat]
    k = len(rows)
    for _ in range(steps):
        i = rng.randrange(k)
        j = rng.randrange(k)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * bb for a, bb in zip(rows[i], rows[j])]
    return ScaledBasis.from_rows(rows, b.den, b.frame_scale)


# --------------------------------------------------------------------------
# rational power series helpers for the q-expansion oracle


def poly_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def poly_inv(a, n):
    if a[0] == 0:
        raise ValueError("series with zero constant term has no inverse")
    inv = [Fraction(0)] * n
    inv[0] = 1 / Fraction(a[0])
    for i in range(1, n):
        acc = Fraction(0)
        for j in range(1, i + 1):
            if j < len(a):
                acc += Fraction(a[j]) * inv[i - j]
        inv[i] = -inv[0] * acc
    return inv


def newton_cube_root(y, n):
    """c with c^3 = y to n terms, for y a rational series with y[0] = 1."""
    if y[0] != 1:
        raise ValueError("cube root needs constant term 1")
    c = [Fraction(1)] + [Fraction(0)] * (n - 1)
    third = Fraction(1, 3)
    for _ in range(n.bit_length() + 2):
        c_sq = poly_mul(c, c, n)
        c = [third * (2 * ci + yi) for ci, yi in
             zip(c, poly_mul(list(y[:n]), poly_inv(c_sq, n), n))]
    return c


# --------------------------------------------------------------------------
# GF(2) matrices and small graphs for the tests


def random_invertible(n: int, rng) -> F2Matrix:
    """Uniform-ish invertible n x n matrix by rejection sampling."""
    mask = (1 << n) - 1
    while True:
        m = F2Matrix(n, n, tuple(rng.getrandbits(n) & mask for _ in range(n)))
        if f2linalg.rank(m) == n:
            return m


def mul_vec(m: F2Matrix, x: int) -> int:
    """Matrix times column vector: bit i of the result is <row i, x>."""
    acc = 0
    for i, r in enumerate(m.bits):
        acc |= ((r & x).bit_count() & 1) << i
    return acc


def max_totally_singular_dim(upper_rows, dim: int) -> int:
    """Largest dimension of a subspace of F2^dim on which
    q(x) = sum_{i <= j} U[i][j] x_i x_j vanishes, by growing every such
    subspace, as the set of its elements, one singular vector at a time.
    """
    def q(x):
        return sum((x >> i & 1) * (row & x).bit_count()
                   for i, row in enumerate(upper_rows)) & 1

    singular = frozenset(x for x in range(1 << dim) if not q(x))
    level = {frozenset({0})}
    best = 0
    while True:
        level = {span | {w ^ v for w in span}
                 for span in level for v in singular - span
                 if all(w ^ v in singular for w in span)}
        if not level:
            return best
        best += 1


def from_edges(n: int, edges) -> srg.Graph:
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} vertices")
        a[i, j] = a[j, i] = True
    return srg.Graph(n, a)  # rejects loops


def complete_graph(n: int) -> srg.Graph:
    return srg.Graph(n, ~np.eye(n, dtype=bool))


def cycle_graph(n: int) -> srg.Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


# --------------------------------------------------------------------------
# dense images of signed permutations, for the extraspecial-group tests


def signed_perm_matrix(g) -> np.ndarray:
    """The monomial matrix M with M e_j = s e_p for g[j] = s * (p + 1)."""
    m = np.zeros((len(g), len(g)), dtype=np.int64)
    for j, x in enumerate(g):
        m[abs(x) - 1, j] = 1 if x > 0 else -1
    return m


def dense_closure(gens, dim: int) -> list[np.ndarray]:
    """All products of the dense matrices gens, by breadth-first right
    multiplication from the identity, in the order they are first met."""
    ident = np.eye(dim, dtype=np.int64)
    seen = {ident.tobytes(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                prod = e @ gen
                if prod.tobytes() not in seen:
                    seen[prod.tobytes()] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())
