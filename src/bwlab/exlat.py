"""Exact lattice engine.

A lattice is held as a ScaledBasis: integer generator rows `mat`, one
positive denominator `den`, and a `frame_scale` giving the squared norm
of every ambient frame vector (the frame is orthogonal).  The generator
i is mat[i]/den, and

    <u, v> = frame_scale * (u_int . v_int) / den**2

for integer coordinate rows u_int, v_int.  frame_scale 1 is the plain
Euclidean frame; the Barnes-Wall constructions use frame_scale 2 so
that half-integer coordinates stay exact with den a power of two.

Canonical form: row Hermite normal form with positive pivots, entries
above a pivot reduced into [0, pivot), zero rows dropped, and (mat, den)
divided by their common gcd.  Equal lattices yield identical canonical
bases, so equality is a tuple comparison.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

import numpy as np

# absolute slack on the float pruning radius, beside the T-scaled one in
# _search; leaves are confirmed exactly, so it only covers rounding
ENUM_MARGIN = 1e-6
# nodes per search stage: 2^17 peaked at 127 MiB for BW32 at norm 4
_CHUNK = 1 << 13
# centre-term rows a search stage carries; a stage that has used them up
# rebuilds the next ones with one GEMM
_WINDOW = 8
# float64 holds every integer below this exactly; see _search
_EXACT = 1 << 53


@dataclass(frozen=True)
class ScaledBasis:
    mat: tuple[tuple[int, ...], ...]
    den: int
    frame_scale: Fraction = Fraction(1)

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if not self.mat:
            raise ValueError("empty generator list")
        width = len(self.mat[0])
        if any(len(r) != width for r in self.mat):
            raise ValueError("ragged generator matrix")
        fs = Fraction(self.frame_scale)
        if fs <= 0:
            raise ValueError("frame_scale must be positive")
        object.__setattr__(self, "frame_scale", fs)

    @staticmethod
    def from_rows(rows, den: int = 1, frame_scale=1) -> "ScaledBasis":
        """Entries and den of any numeric type; non-integral ones raise."""
        def whole(x) -> int:
            if int(x) != x:
                raise ValueError(f"{x!r} is not an integer")
            return int(x)
        return ScaledBasis(tuple(tuple(map(whole, r)) for r in rows),
                           whole(den), Fraction(frame_scale))

    @property
    def ambient_dim(self) -> int:
        return len(self.mat[0])


class ContainmentError(ValueError):
    """Raised when a claimed sublattice is not actually contained."""


# --------------------------------------------------------------------------
# integer row HNF

def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf_int_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form of the integer row lattice.

    Pivots positive, entries above each pivot reduced into [0, pivot),
    zero rows removed.  Unimodular row operations only.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:
        return []
    nrows, ncols = len(m), len(m[0])
    pr = 0
    for c in range(ncols):
        nz = [j for j in range(pr, nrows) if m[j][c]]
        if not nz:
            continue
        m[pr], m[nz[0]] = m[nz[0]], m[pr]
        for j in nz[1:]:
            a, b = m[pr][c], m[j][c]
            g, u, v = _ext_gcd(a, b)
            p, q = a // g, b // g
            m[pr], m[j] = ([u * x + v * y for x, y in zip(m[pr], m[j])],
                           [p * y - q * x for x, y in zip(m[pr], m[j])])
        if m[pr][c] < 0:
            m[pr] = [-x for x in m[pr]]
        p = m[pr][c]
        for j in range(pr):
            f = m[j][c] // p
            if f:
                m[j] = [x - f * y for x, y in zip(m[j], m[pr])]
        pr += 1
    return m[:pr]


@lru_cache(maxsize=256)
def hnf_basis(b: ScaledBasis) -> ScaledBasis:
    """Canonical basis: row HNF, minimal denominator. Idempotent."""
    rows = hnf_int_rows([list(r) for r in b.mat])
    if not rows:
        raise ValueError("generators span the zero lattice")
    g = math.gcd(b.den, *(x for r in rows for x in r))
    return ScaledBasis(tuple(tuple(x // g for x in r) for r in rows),
                       b.den // g, b.frame_scale)


# --------------------------------------------------------------------------
# Gram data

def _gram_rows(a, b) -> list[list[int]]:
    """The integer matrix a . b^T of two lists of integer rows."""
    return [[sum(map(operator.mul, u, v)) for v in b] for u in a]


def gram(b: ScaledBasis) -> tuple[tuple[Fraction, ...], ...]:
    """Exact Gram matrix of the stored generator rows, as Fraction rows."""
    scale = b.frame_scale / (b.den * b.den)
    return tuple(tuple(scale * x for x in row)
                 for row in _gram_rows(b.mat, b.mat))


def _solve(A, B) -> tuple[list[list[int]] | None, int]:
    """Bareiss fraction-free elimination of [A | B], then back-substitution.

    Returns (X, d) with A . X = d . B exactly and d = det A, signed; when
    A is singular, (None, 0).  Forward elimination touches only the
    columns right of each pivot, and every entry it writes is a minor of
    [A | B], so each division by the previous pivot is exact.  It leaves
    [U | B'] = L . [PA | PB] with U upper triangular and L invertible, so
    U . X = d . B' and, from the last row up,

        X_i = (d . B'_i - sum_{j > i} U_ij . X_j) / U_ii.

    X = d . A^-1 . B = adj(A) . B is integral (Cramer's rule), so these
    divisions are exact too, and (X, d) is unique.  Serves determinant
    and dual, the two places where a Gram matrix is the input.
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
        p, tail = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            f = row[k]
            if f or p != prev:
                row[k + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[k + 1:], tail)]
        prev = p
    # the row swaps flip the sign of the last pivot, det PA
    d = sign * prev
    X = [None] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [d * x for x in row[n:]]
        for j in range(i + 1, n):
            if row[j]:
                acc = [a - row[j] * x for a, x in zip(acc, X[j])]
        X[i] = [a // row[i] for a in acc]
    return X, d


def determinant(g) -> Fraction:
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("gram matrix not square")
    rows = [[Fraction(x) for x in row] for row in g]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    d = _solve([[x.numerator * (den // x.denominator) for x in row]
                for row in rows], [()] * n)[1]
    return Fraction(d, den ** n)


def is_even(g) -> bool:
    """True iff the Gram matrix is integral with even diagonal."""
    for row in g:
        for x in row:
            if Fraction(x).denominator != 1:
                return False
    return all(row[i] % 2 == 0 for i, row in enumerate(g))


# --------------------------------------------------------------------------
# containment and quotients

def _invariant_factors(rows) -> tuple[int, ...]:
    """Smith invariant factors d_1 | d_2 | ... of a nonempty integer
    matrix: min(rows, columns) of them, each >= 0, zeros last.

    Row and column HNFs alternate until every row has one nonzero entry;
    then gcd and lcm of pairs turn those entries into the factors.
    """
    a = hnf_int_rows(rows)
    while any(sum(1 for x in r if x) > 1 for r in a):
        a = hnf_int_rows([list(c) for c in zip(*a)])
    d = sorted(x for r in a for x in r if x)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return tuple(d) + (0,) * (min(len(rows), len(rows[0])) - len(d))


def quotient_invariants(outer: ScaledBasis, inner: ScaledBasis) -> tuple[int, ...]:
    """Nontrivial invariant factors of outer/inner (ascending, each | next).

    Coordinates by back-substitution on the echelon hnf_basis(outer),
    with both bases over the product of their denominators: from each
    canonical row of inner, each outer row in turn is subtracted as
    often as its pivot entry goes into the row's entry in that column.
    A nonzero remainder, which a non-integral coordinate or a vector
    outside the span leaves, raises ContainmentError, as does a smaller
    rank.
    """
    if (outer.frame_scale, outer.ambient_dim) \
            != (inner.frame_scale, inner.ambient_dim):
        raise ValueError("lattices live in different frames")
    ob, ib = hnf_basis(outer), hnf_basis(inner)
    echelon = [(next(j for j, x in enumerate(r) if x),
                [ib.den * x for x in r]) for r in ob.mat]
    coords = []
    for row in ib.mat:
        v = [ob.den * x for x in row]
        c = []
        for p, r in echelon:
            q = v[p] // r[p]
            if q:
                v = [x - q * y for x, y in zip(v, r)]
            c.append(q)
        if any(v):
            raise ContainmentError("inner lattice not contained in outer")
        coords.append(c)
    if len(coords) != len(ob.mat):
        raise ContainmentError("inner lattice has smaller rank than outer")
    return tuple(d for d in _invariant_factors(coords) if d != 1)


def lattice_equal(a: ScaledBasis, b: ScaledBasis) -> bool:
    return hnf_basis(a) == hnf_basis(b)


def dual(b: ScaledBasis) -> ScaledBasis:
    """Dual lattice {w in span : <w, L> integral}, canonicalized.

    With integer rows M the dual basis is (M M^T)^-1 M * den / frame_scale.
    """
    bb = hnf_basis(b)
    fs = bb.frame_scale
    # d is the Gram determinant of independent rows, so d > 0
    X, d = _solve(_gram_rows(bb.mat, bb.mat), bb.mat)
    rows = [[bb.den * fs.denominator * x for x in row] for row in X]
    return hnf_basis(ScaledBasis.from_rows(rows, d * fs.numerator, fs))


def scale(b: ScaledBasis, k) -> ScaledBasis:
    """The lattice k*L (vectors multiplied by the positive rational k)."""
    k = Fraction(k)
    if k <= 0:
        raise ValueError("scale must be positive")
    rows = [[x * k.numerator for x in r] for r in b.mat]
    return hnf_basis(ScaledBasis.from_rows(rows, b.den * k.denominator,
                                           b.frame_scale))


def rescale_metric(b: ScaledBasis, factor) -> ScaledBasis:
    """Same coordinates, frame norm multiplied by factor (norm doubling etc)."""
    return hnf_basis(ScaledBasis(b.mat, b.den, b.frame_scale * Fraction(factor)))


# --------------------------------------------------------------------------
# LLL (delta = 9/10) in exact integer arithmetic

def _lll(rows) -> list[list[int]]:
    """LLL-reduced basis of independent integer rows at delta = 9/10.

    The all-integer LLL of Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7: d[i] is the Gram determinant of rows
    0..i-1 and lam[k][j] = d[j+1] mu[k][j].  Its steps follow sympy's
    DomainMatrix.lll, so the reduced basis is the same: reduce (k, k-1)
    by round(mu), halves up, only if |mu| > 1/2; if then the Lovasz test
    (>=) holds, reduce (k, l) for l = k-2 .. 0 and advance, else swap and
    set k = max(k-1, 1).  Raises ValueError on dependent rows.
    """
    b = [list(r) for r in rows]
    m = len(b)
    d = [1] * (m + 1)
    lam = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            u = sum(map(operator.mul, b[i], b[j]))
            for l in range(j):
                u = (d[l + 1] * u - lam[i][l] * lam[j][l]) // d[l]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
        if d[i + 1] == 0:
            raise ValueError("linearly dependent rows")

    def reduce(k, l):
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            q = (2 * lam[k][l] + dl) // (2 * dl)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * dl
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < m:
        reduce(k, k - 1)
        lk = lam[k][k - 1]
        if 10 * d[k + 1] * d[k - 1] >= 9 * d[k] * d[k] - 10 * lk * lk:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, m):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


@lru_cache(maxsize=64)
def lll_reduce(b: ScaledBasis) -> ScaledBasis:
    bb = hnf_basis(b)
    return ScaledBasis(tuple(map(tuple, _lll(bb.mat))), bb.den, bb.frame_scale)


# --------------------------------------------------------------------------
# norm enumeration (the performance kernel)

def _frame_norm(b: ScaledBasis, n) -> Fraction:
    """The norm n in b's integer frame, n * den**2 / frame_scale: the
    vectors of norm n are the x with |x . mat|^2 equal to it."""
    if isinstance(n, float):
        raise TypeError("norm must be an exact int/Fraction, not float")
    return Fraction(n) * b.den * b.den / b.frame_scale


def _expand_stage(L: np.ndarray, i: int, C, PN, free: bool, r2: float):
    """One tree layer, vectorized over all live prefixes.  C is the
    stage's window of centre terms, level-major: its rows are coordinates
    i+1-len(C)..i, one column per node.  Returns each child's coordinate t
    (float64, an exact small integer) and parent index idx, with the
    children's window (the rows but the last, gathered and rank-1
    updated) and PN.  If free, column 0 is the all-zero prefix and its
    t = 0 child comes first.

    Node j's children run over lo <= t <= hi with lo = -a,
    a = floor((s + c)/l + 1e-9) and hi = floor((s - c)/l + 1e-9), s the
    square root of the remaining radius, c the centre term, l = L[i, i].
    Round-to-nearest commutes with negation, so a is bit for bit minus
    ceil((-s - c)/l - 1e-9), the direct form of lo.  Every op writes into
    an array this call allocates; C and PN, which sibling stages share,
    are only read."""
    ell = L[i, i]
    c = C[-1]
    s = np.subtract(r2, PN)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    a = np.add(s, c)
    a /= ell
    a += 1e-9
    np.floor(a, out=a)
    if free:
        a[0] = min(a[0], 0.0)
    hi = np.subtract(s, c, out=s)
    hi /= ell
    hi += 1e-9
    np.floor(hi, out=hi)
    hi += a
    hi += 1
    cnt = np.maximum(hi, 0, out=hi).astype(np.int64)
    ends = np.cumsum(cnt)
    total = int(ends[-1])
    if total == 0:
        return None
    ends -= cnt
    a += ends
    np.negative(a, out=a)  # lo minus the children before node j
    idx = np.repeat(np.arange(len(cnt)), cnt)
    t = np.take(a, idx)
    comp = np.arange(total, dtype=np.float64)
    t += comp
    np.multiply(t, ell, out=comp)
    newPN = np.take(c, idx)
    comp += newPN
    np.take(PN, idx, out=newPN)
    comp *= comp
    newPN += comp
    newC = np.take(C[:-1], idx, axis=1)
    newC += L[i, i - len(newC):i, None] * t
    return t, idx, newC, newPN


def _coords(levels, j) -> np.ndarray:
    """The set coordinates, in float64, of the nodes j at the end of the
    (t, idx) chain levels, level-major: row k is coordinate
    r - len(levels) + k, filled by walking the parent indices upwards."""
    X = np.empty((len(levels), len(j)))
    for row, (t, idx) in enumerate(reversed(levels)):
        X[row] = t[j]
        j = idx[j]
    return X


def _search(b: ScaledBasis, T: int):
    """Depth-first over the pruned tree out to the integer radius T.

    Yields, per expansion of the last level, a block (V, S): the
    den-scaled frame rows V (int32) of the leaves of exact integer norm
    0 < t <= T (norms |x . mat|^2 in lll_reduce(b)'s integer frame), in
    no particular order, and their int64 norms S.  The root is free (the
    leading nonzero coordinate is positive), so each leaf stands for
    {v, -v}.  A stack entry is one stage: one (t, idx) pair per set level,
    coordinates r-1 downwards, idx pointing into the level above, so the
    stage expands coordinate i-1 with i = r - len(levels); a window C of
    the centre terms c_j = sum_{l > j} L[l, j] x_l of its nodes for the
    next len(C) <= _WINDOW coordinates i-len(C)..i-1, level-major.
    Popping a stage expands it once; each child's window is one row
    shorter.  A popped stage whose window is used up (the root's is
    empty) first rebuilds the rows of coordinates max(i - _WINDOW, 0)..i-1
    from its prefix coordinates X with one float64 GEMM,
    L[i:, lo:i].T @ X.  Above the last level (i > 1) the n children are
    pushed as ceil(n / _CHUNK) column slices C[:, sl] whose sizes differ
    by at most one and that share their parents, the all-zero prefix in
    column 0 of the first, so a stage holds at most
    _CHUNK * (2 floor(sqrt(T) / l_min) + 1) children, l_min the least
    Cholesky diagonal entry, with at most _WINDOW centre rows each.
    Slices of _CHUNK nodes plus a remainder would send each remainder
    down the tree as a stage of its own: BW32 at norm 4 takes 2398
    stages with equal slices and took 3271 with those.

    The float pruning runs at the radius T (1 + 2 (4r + 4) u kappa) +
    ENUM_MARGIN, with u = 2^-53, K = |L^T| |L^-T| and kappa = ||K||_1
    ||K||_inf >= ||K||_2^2.  For a vector x of norm N let A(x) = sum_j
    (sum_l |L[l, j] x_l|)^2; as x = L^-T (L^T x), A(x) <= kappa N.
    Rounding in the Cholesky factor and in the centre-term sums, by rank-1
    updates or by the GEMM rebuild in any order, moves a computed partial
    norm of x by at most about (4r + 4) u A(x) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1 and thm. 10.3).
    So each prefix of a vector of norm <= T passes the radius test; the
    factor 2 and the 1e-9 slack on each coordinate interval cover the
    square root and the division that turn that test into the interval.
    kappa is about 1 for the rank-2 lattices of the tests, 3949 for BW16,
    35631 for BW32.

    The leaves, the children at i = 1, are confirmed exactly in slices of
    _CHUNK // 4: their coordinates X come from the walk up the chain,
    V = X^T @ mat is a float64 GEMM and S = |V|^2 a float64 sum.  The
    kernel has three limits, each a ValueError: max|mat| <= 2^20,
    T <= 2^40 and, per slice, r * max|X| * max|mat| < 2^53 (_EXACT).  The
    last bounds every product and partial sum of the GEMM, so V is exact
    in any order, FMA included.  Every term and partial sum of S for a
    row of norm <= T is an integer <= 2^40, so S is exact there; rounding
    to nearest is monotone and exact on integers up to 2^53, so a row of
    norm > T gets S > T.  The kept rows have entries <= 2^20 and go into
    one int32 V and int64 S.
    """
    M = np.array(lll_reduce(b).mat, dtype=np.int64)
    mmax = int(np.abs(M).max(initial=0))
    if mmax > 1 << 20:
        raise ValueError("basis entries too large for the int64 kernel")
    if T > 1 << 40:
        raise ValueError("norm target too large for the int64 kernel")
    r = M.shape[0]
    Mf = M.astype(np.float64)
    L = np.linalg.cholesky((M @ M.T).astype(np.float64))
    K = np.abs(L.T) @ np.abs(np.linalg.inv(L).T)
    kappa = K.sum(0).max() * K.sum(1).max()
    r2 = T * (1 + (8 * r + 8) * 2.0 ** -53 * kappa) + ENUM_MARGIN
    stack = [((), np.zeros((0, 1)), np.zeros(1), True)]
    while stack:
        levels, C, PN, free = stack.pop()
        i = r - len(levels)
        if not len(C):
            lo = max(i - _WINDOW, 0)
            C = L[i:, lo:i].T @ _coords(levels, np.arange(len(PN)))
        out = _expand_stage(L, i - 1, C, PN, free, r2)
        if out is None:
            continue
        t, idx, C, PN = out
        if i > 1:
            k = -(-len(t) // _CHUNK)  # slices, each of <= _CHUNK nodes
            cuts = [j * len(t) // k for j in range(k + 1)]
            for a, z in zip(cuts, cuts[1:]):
                sl = slice(a, z)
                stack.append((levels + ((t[sl], idx[sl]),), C[:, sl],
                              PN[sl], free and a == 0))
            continue
        levels += ((t, idx),)
        m = len(PN)
        V = np.empty((m, M.shape[1]), dtype=np.int32)
        S = np.empty(m, dtype=np.int64)
        n = 0
        for k in range(0, m, _CHUNK // 4):
            X = _coords(levels, np.arange(k, min(k + _CHUNK // 4, m)))
            if r * int(np.abs(X).max()) * mmax >= _EXACT:
                raise ValueError("leaf coordinates too large for float64")
            W = X.T @ Mf
            del X  # W[ok] below copies the kept rows of W once more
            N = np.einsum("ij,ij->i", W, W)
            ok = (N > 0) & (N <= T)
            if not ok.all():  # the all-zero leaf, or float slack past T
                W, N = W[ok], N[ok]
            V[n:n + len(N)] = W
            S[n:n + len(N)] = N
            n += len(N)
            del W, N, ok  # one slice's temporaries at a time
        yield V[:n], S[:n]


@lru_cache(maxsize=64)
def _shells(b: ScaledBasis, T: int) -> MappingProxyType:
    """Read-only norm histogram of the canonical basis b out to radius T."""
    hist: dict[int, int] = {}
    for _, S in _search(b, T):
        norms, counts = np.unique(S, return_counts=True)
        for t, c in zip(norms.tolist(), counts.tolist()):
            hist[t] = hist.get(t, 0) + 2 * c
    return MappingProxyType(hist)


def enumerate_norm(b: ScaledBasis, n, threads: int | None = None) -> int:
    """Number of lattice vectors of exact norm n (both signs of each pair),
    read from the cached norm histogram of one search out to n.  The
    search runs in one thread; threads is accepted and ignored.  Raises
    ValueError past the search kernel's three limits (see _search).
    """
    del threads
    bb = hnf_basis(b)
    t = _frame_norm(bb, n)
    if t <= 0:
        raise ValueError("norm must be positive")
    if t.denominator != 1:
        return 0
    return _shells(bb, int(t)).get(int(t), 0)


def shell_counts(b: ScaledBasis, max_norm) -> dict[Fraction, int]:
    """{n: number of lattice vectors of norm n} for 0 < n <= max_norm.

    Norms without vectors are left out; keys ascend.  One cached search.
    """
    bb = hnf_basis(b)
    T = math.floor(_frame_norm(bb, max_norm))
    if T < 1:
        return {}
    unit = 1 / _frame_norm(bb, 1)
    return {t * unit: c for t, c in sorted(_shells(bb, T).items())}


def generated_by_norm_vectors(b: ScaledBasis, n, threads: int | None = None) -> bool:
    """True iff the vectors of norm n span the whole lattice.

    Witness first: norm-n rows of lll_reduce(b) whose HNF is the lattice's
    prove it with no search.  Otherwise an uncached one-thread search
    streams the norm-n vectors, leaf block by leaf block, into an HNF
    and stops once it is the lattice's; threads is ignored.
    """
    target = hnf_basis(b)
    t = _frame_norm(target, n)
    if t <= 0:
        raise ValueError("norm must be positive")
    want = [list(r) for r in target.mat]
    red = lll_reduce(target).mat
    acc = [list(r) for r in red if sum(x * x for x in r) == t]
    if hnf_int_rows(acc) == want:
        return True
    if t.denominator != 1:
        return False
    for V, S in _search(target, int(t)):
        rows = V[S == int(t)].tolist()
        for start in range(0, len(rows), 512):
            acc = hnf_int_rows(acc + rows[start:start + 512])
            if acc == want:
                return True
    return False


def minimum_norm(b: ScaledBasis) -> Fraction:
    """Smallest positive vector norm, from one search.

    The shortest row of lll_reduce(b) is a lattice vector, so its integer
    frame norm bounds the minimum from above; the search runs out to it.
    """
    bb = hnf_basis(b)
    bound = min(sum(x * x for x in row) for row in lll_reduce(bb).mat)
    shells = _shells(bb, bound)
    if not shells:
        raise RuntimeError("internal bug: the search missed the LLL row")
    return min(shells) / _frame_norm(bb, 1)


# --------------------------------------------------------------------------
# lattice files: "rank ambient_dim den [frame_scale]", then integer rows

def write_lattice(b: ScaledBasis, path) -> None:
    """Write the canonical HNF basis; frame_scale appended only if not 1."""
    c = hnf_basis(b)
    with open(path, "w") as fh:
        head = f"{len(c.mat)} {c.ambient_dim} {c.den}"
        if c.frame_scale != 1:
            head += f" {c.frame_scale}"
        fh.write(head + "\n")
        for row in c.mat:
            fh.write(" ".join(str(x) for x in row) + "\n")


def read_lattice(path) -> ScaledBasis:
    """Inverse of write_lattice: the header's rank counts the rows exactly."""
    with open(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    if not lines or len(lines[0]) not in (3, 4):
        raise ValueError("bad lattice file header")
    head, rows = lines[0], lines[1:]
    nrows, ncols, den = int(head[0]), int(head[1]), int(head[2])
    try:
        frame = Fraction(head[3]) if len(head) == 4 else Fraction(1)
    except ZeroDivisionError:
        raise ValueError(f"bad frame scale {head[3]!r}") from None
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(f"lattice file needs {nrows} rows of {ncols} entries")
    return ScaledBasis.from_rows([[int(t) for t in r] for r in rows], den, frame)
