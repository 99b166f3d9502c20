"""Independent reference implementations used only by the tests.

Everything here recomputes values by a different method than the
package: vector counts by exhaustive box enumeration bounded through an
eigenvalue estimate, rank-2 shells by solving a quadratic in exact integers at each second
coordinate, series products by the schoolbook double loop,
series roots by Newton iteration over rationals,
group closures by products of dense matrices and by a per-element FIFO
queue of signed permutations, linear solves by Gauss-Jordan
elimination, transported quadratic forms by the matrix product T^T U T, glued lattices through an
orthogonal direct sum, common-neighbour counts by one dense float
matrix product.  Deliberately slow and simple.
The small GF(2) matrix arithmetic and graph builders exist only to feed
the tests; the largest totally singular dimension comes from a search
over every totally singular subspace.
"""

from fractions import Fraction
from math import ceil, floor, gcd, isqrt, sqrt

import numpy as np

from bwlab import bw, exlat, f2linalg, f2quad, qser, srg
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


def plane_norm_vectors(b: ScaledBasis, n) -> list[tuple[int, ...]]:
    """The vectors of exact norm n of the rank-2 lattice b, in the units
    and order of box_norm_vectors, at any radius.

    With rows u, v and the Gram entries a = u.u, h = u.v, c = v.v, the
    coefficient y of v ranges over y^2 <= a t / (a c - h^2); for each y the
    quadratic a x^2 + 2 h x y + c y^2 = t has the integer roots
    x = (-h y +- s) / a when its reduced discriminant a t - (a c - h^2) y^2
    is a square s^2.  Integers only: no box, no float.
    """
    u, v = b.mat
    t = Fraction(n) * b.den * b.den / b.frame_scale
    if t.denominator != 1:
        return []
    t = int(t)
    a, h, c = (sum(p * q for p, q in zip(x, y))
               for x, y in ((u, u), (u, v), (v, v)))
    det = a * c - h * h
    top = isqrt(a * t // det)
    out = set()
    for y in range(-top, top + 1):
        disc = a * t - det * y * y
        s = isqrt(disc)
        for num in (-h * y + s, -h * y - s):
            if s * s == disc and num % a == 0:
                out.add(tuple(num // a * p + y * q for p, q in zip(u, v)))
    return sorted(out)


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


def direct_sum(a: ScaledBasis, b: ScaledBasis) -> ScaledBasis:
    """Orthogonal direct sum in the concatenated frame."""
    if a.frame_scale != b.frame_scale:
        raise ValueError("frame scales differ")
    den = a.den * b.den // gcd(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    na, nb = a.ambient_dim, b.ambient_dim
    rows = [tuple(x * fa for x in r) + (0,) * nb for r in a.mat]
    rows += [(0,) * na + tuple(x * fb for x in r) for r in b.mat]
    return exlat.hnf_basis(ScaledBasis(tuple(rows), den, a.frame_scale))


def glue_by_direct_sum(left: ScaledBasis, diag: ScaledBasis) -> ScaledBasis:
    """(left + left) + {(v, v) : v in diag}: the canonical direct sum of
    two copies of left, then the diagonal rows over the product of the
    denominators, in the Barnes-Wall frame."""
    both = direct_sum(left, left)
    den = both.den * diag.den
    rows = [tuple(x * diag.den for x in r) for r in both.mat]
    rows += [tuple(x * both.den for x in (r + r)) for r in diag.mat]
    return exlat.hnf_basis(ScaledBasis(tuple(rows), den, bw.FRAME))


def solve_gauss_jordan(A, B):
    """(X, d) with A . X = d . B and d = det A, signed, by Bareiss's
    fraction-free Gauss-Jordan elimination of [A | B]: every pivot step
    rewrites every row over every column.  (None, 0) when A is singular.
    """
    n = len(A)
    m = [[int(x) for x in a] + [int(x) for x in b] for a, b in zip(A, B)]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return None, 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        rk = m[k]
        p = rk[k]
        for i in range(n):
            f = m[i][k]
            if i != k and (f or p != prev):
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], rk)]
        prev = p
    # the row swaps leave X alone and flip the sign of the pivot
    return [[sign * x for x in row[n:]] for row in m], sign * prev


# --------------------------------------------------------------------------
# q-series by their defining products, and rational power series helpers
# for the Newton oracle


def euler_product_by_factors(n: int, exponent: int = 1) -> qser.QSeries:
    """prod_{k>=1} (1 - q^k)^exponent to n terms, multiplying in one
    factor 1 - q^k at a time before taking the power."""
    coeffs = [0] * n
    coeffs[0] = 1
    for k in range(1, n):
        for i in range(n - 1 - k, -1, -1):
            coeffs[i + k] -= coeffs[i]
    return qser.QSeries(0, tuple(coeffs)).power(exponent)


def delta(n: int) -> qser.QSeries:
    """The weight-12 cusp form q prod (1 - q^k)^24, n exact terms from q^1."""
    return qser.QSeries(3, euler_product_by_factors(n, 24).coeffs)


def series_mul_dense(a: qser.QSeries, b: qser.QSeries) -> qser.QSeries:
    """a * b to the shorter truncation, by the schoolbook double loop."""
    n = min(len(a.coeffs), len(b.coeffs))
    out = [0] * n
    for i, x in enumerate(a.coeffs[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b.coeffs[: n - i]):
            out[i + j] += x * y
    return qser.QSeries(a.offset_thirds + b.offset_thirds, tuple(out))


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


def identity(n: int) -> F2Matrix:
    return F2Matrix(n, n, tuple(1 << i for i in range(n)))


def mat_mul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    """a b: entry (i, j) is the parity of row i of a against column j of b."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = b.transpose().bits
    return F2Matrix(a.rows, b.cols, tuple(
        sum(((r & c).bit_count() & 1) << j for j, c in enumerate(cols))
        for r in a.bits))


def mat_add(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return F2Matrix(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.bits, b.bits)))


def transport_by_product(s: f2quad.QuadSpace, t: F2Matrix) -> f2quad.QuadSpace:
    """x -> q(T x) as N = T^T U T folded back to upper form: the diagonal
    of N, and N[i][j] + N[j][i] above it."""
    n = mat_mul(mat_mul(t.transpose(), s.upper), t).bits
    rows = tuple(
        (n[i] >> i & 1) << i
        | sum(((n[i] >> j ^ n[j] >> i) & 1) << j for j in range(i + 1, s.dim))
        for i in range(s.dim))
    return f2quad.QuadSpace(s.dim, F2Matrix(s.dim, s.dim, rows))


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


def dense_srg_params(g: srg.Graph):
    """srg_params's verdict from one dense float64 product A A, exact
    because every partial sum is an integer of at most n < 2^53.

    Returns srg.NotStronglyRegular as srg_params does, with the same
    first failing pair in row-major order over i < j, or (v, k, lam, mu).
    """
    n = g.n
    if n < 3:
        return srg.NotStronglyRegular("too few vertices")
    deg = g.degrees()
    k = int(deg[0])
    if (deg != k).any():
        return srg.NotStronglyRegular("not regular",
                                      (0, int(np.nonzero(deg != k)[0][0])))
    a = g.adjacency
    common = (a.astype(np.float64) @ a.astype(np.float64)).astype(np.int64)
    iu, ju = np.triu_indices(n, 1)
    adj_mask = a[iu, ju]
    if not adj_mask.any():
        return srg.NotStronglyRegular("no adjacent pairs")
    if adj_mask.all():
        return srg.NotStronglyRegular("complete graph: mu undefined")
    counts = common[iu, ju]
    found = {}
    for name, mask in (("lambda", adj_mask), ("mu", ~adj_mask)):
        pos = np.nonzero(mask)[0]
        vals = counts[pos]
        found[name] = int(vals[0])
        bad = np.nonzero(vals != vals[0])[0]
        if bad.size:
            p = pos[bad[0]]
            return srg.NotStronglyRegular(f"{name} varies",
                                          (int(iu[p]), int(ju[p])))
    if found["mu"] == 0:
        return srg.NotStronglyRegular("not connected")
    return n, k, found["lambda"], found["mu"]


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


def closure_by_queue(g) -> list[tuple[int, ...]]:
    """All elements of a group of signed permutations, one product at a
    time: each element taken from a FIFO queue is multiplied by every
    generator, and new products join the end of the queue."""
    elems = [tuple(range(1, g.dim + 1))]
    seen = set(elems)
    for e in elems:
        for gen in g.generators:
            prod = tuple(e[x - 1] if x > 0 else -e[-x - 1] for x in gen)
            if prod not in seen:
                seen.add(prod)
                elems.append(prod)
    return elems


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
