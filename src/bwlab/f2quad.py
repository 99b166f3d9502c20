"""Quadratic forms over GF(2).

A form on F2^n is stored as an upper-triangular F2Matrix U, meaning

    q(x) = sum_{i <= j} U[i][j] x_i x_j   (mod 2),

with the associated bilinear form B(x, y) = q(x+y) + q(x) + q(y), whose
matrix is U + U^T (alternating: B(x, x) = 0).  Vectors are ints with
bit i = coordinate i; reported orderings are lexicographic on the
coordinate tuple (x_1, ..., x_n).

Type classification is decided by exhaustively counting singular
vectors, never by formula; the counts are the ground truth downstream
modules consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2linalg import F2Matrix, rank

MAX_SWEEP_DIM = 26


@dataclass(frozen=True)
class QuadSpace:
    dim: int
    upper: F2Matrix

    def __post_init__(self):
        if self.dim % 2 != 0 or self.dim < 2:
            raise ValueError("dimension must be even and at least 2")
        if (self.upper.rows, self.upper.cols) != (self.dim, self.dim):
            raise ValueError("upper-triangular matrix has wrong shape")
        for i, row in enumerate(self.upper.bits):
            if row & ((1 << i) - 1):
                raise ValueError("matrix has entries below the diagonal")


def hyperbolic(m: int) -> QuadSpace:
    """q = x1 x2 + x3 x4 + ... on F2^(2m): the plus-type model."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rows = [0] * (2 * m)
    for i in range(m):
        rows[2 * i] = 1 << (2 * i + 1)
    return QuadSpace(2 * m, F2Matrix(2 * m, 2 * m, tuple(rows)))


def elliptic(m: int) -> QuadSpace:
    """Hyperbolic planes plus one anisotropic plane x^2 + xy + y^2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    rows = [0] * (2 * m)
    for i in range(m - 1):
        rows[2 * i] = 1 << (2 * i + 1)
    a = 2 * m - 2
    rows[a] = (1 << a) | (1 << (a + 1))
    rows[a + 1] = 1 << (a + 1)
    return QuadSpace(2 * m, F2Matrix(2 * m, 2 * m, tuple(rows)))


def eval_q(s: QuadSpace, x: int) -> int:
    if not 0 <= x < (1 << s.dim):
        raise ValueError("vector length mismatch")
    acc = 0
    rem = x
    while rem:
        i = (rem & -rem).bit_length() - 1
        acc ^= (s.upper.bits[i] & x).bit_count()
        rem &= rem - 1
    return acc & 1


def bilinear_image(s: QuadSpace, x: int) -> int:
    """B x = U x + U^T x, so that B(x, y) is the parity of (B x) & y."""
    if not 0 <= x < (1 << s.dim):
        raise ValueError("vector length mismatch")
    img = 0
    for i, row in enumerate(s.upper.bits):
        img ^= (row if x >> i & 1 else 0) ^ (((row & x).bit_count() & 1) << i)
    return img


def eval_b(s: QuadSpace, x: int, y: int) -> int:
    if not 0 <= y < (1 << s.dim):
        raise ValueError("vector length mismatch")
    return (bilinear_image(s, x) & y).bit_count() & 1


def is_nondegenerate(s: QuadSpace) -> bool:
    b = F2Matrix(s.dim, s.dim,
                 tuple(bilinear_image(s, 1 << i) for i in range(s.dim)))
    return rank(b) == s.dim


def _q_lanes(rows, x: np.ndarray) -> np.ndarray:
    """q(x) for each entry of x, for the upper-form rows on x's coordinates."""
    acc = np.zeros(len(x), dtype=np.uint64)
    for i, row in enumerate(rows):
        acc ^= (x >> np.uint64(i)) & np.bitwise_count(x & np.uint64(row)) & 1
    return acc


def _q_words(s: QuadSpace) -> np.ndarray:
    """Bitsliced q: bit l of word h is q(64 h + l); lanes past 2^dim are 0.

    Split x = lo + hi into its low 6 and its high coordinates; then
    q(lo + hi) = q(lo) + q(hi) + B(lo, hi).  q(lo) is one constant word,
    q(hi) one parity lane over the high values, and B(lo, hi) the sum of
    one linear-form word B(., e_j) per high coordinate j set in hi.
    """
    if s.dim > MAX_SWEEP_DIM:
        raise ValueError(f"dimension {s.dim} exceeds sweep guard {MAX_SWEEP_DIM}")
    low = min(s.dim, 6)
    lanes = np.arange(1 << low, dtype=np.uint64)

    def pack(bits: np.ndarray) -> np.uint64:
        return np.bitwise_or.reduce(bits.astype(np.uint64) << lanes)

    words = np.array([pack(_q_lanes(s.upper.bits[:low], lanes))])
    for j in range(low, s.dim):
        form = pack(np.bitwise_count(lanes & np.uint64(bilinear_image(s, 1 << j))) & 1)
        words = np.concatenate([words, words ^ form])
    high = np.arange(len(words), dtype=np.uint64)
    return words ^ -_q_lanes([row >> low for row in s.upper.bits[low:]], high)


def singular_count(s: QuadSpace, include_zero: bool = False) -> int:
    """Number of singular vectors by full sweep."""
    total = (1 << s.dim) - int(np.bitwise_count(_q_words(s)).sum())
    return total if include_zero else total - 1


def singular_vectors(s: QuadSpace) -> list[int]:
    """All nonzero x with q(x) = 0, lexicographic on coordinate tuples."""
    bits = np.unpackbits(_q_words(s).astype("<u8").view(np.uint8),
                         bitorder="little")[:1 << s.dim]
    vecs = np.flatnonzero(bits == 0)[1:]
    # lex order on (x_0, x_1, ...) is the integer order of x bit-reversed
    rev = np.zeros_like(vecs)
    for i in range(s.dim):
        rev |= (vecs >> i & 1) << (s.dim - 1 - i)
    return vecs[np.argsort(rev)].tolist()


def arf_type(s: QuadSpace) -> str:
    """'plus' or 'minus', decided by the exhaustive singular count."""
    if not is_nondegenerate(s):
        raise ValueError("bilinear form is degenerate; type undefined")
    m = s.dim // 2
    n = singular_count(s, include_zero=True)
    if n == (1 << (2 * m - 1)) + (1 << (m - 1)):
        return "plus"
    if n == (1 << (2 * m - 1)) - (1 << (m - 1)):
        return "minus"
    raise RuntimeError(f"singular count {n} matches neither type; internal bug")


def totally_singular_subspace(s: QuadSpace, k: int) -> list[int] | None:
    """Basis of a k-dimensional subspace with q identically zero, or None.

    One lex-ascending pass over the singular vectors takes each one that
    is outside the span of the choices so far and B-orthogonal to them.
    A vector passed over stays excluded, so the pass ends on a maximal
    totally singular subspace, and all of those have one dimension: each
    contains the singular radical, and Witt's theorem applies to the
    quotient (Taylor, The Geometry of the Classical Groups, 1992).  The
    basis is re-checked: q(c_i) = 0 and B(c_i, c_j) = 0 for every pair
    make q vanish on the span, by polarization.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    chosen: list[int] = []
    images: list[int] = []
    echelon: list[int] = []  # the choices reduced, leading bits descending
    for v in singular_vectors(s):
        if len(chosen) == k:
            break
        r = v
        for row in echelon:
            r = min(r, r ^ row)  # clears row's leading bit if r has it
        if r and not any((image & v).bit_count() & 1 for image in images):
            chosen.append(v)
            images.append(bilinear_image(s, v))
            echelon = sorted(echelon + [r], reverse=True)
    if len(chosen) < k:
        return None
    if any(eval_q(s, a) or eval_b(s, a, b) for i, a in enumerate(chosen)
           for b in chosen[i:]):
        raise RuntimeError("witness basis is not totally singular; internal bug")
    return chosen


def transport(s: QuadSpace, t: F2Matrix) -> QuadSpace:
    """The form x -> q(T x) for invertible T, folded back to upper form."""
    if (t.rows, t.cols) != (s.dim, s.dim):
        raise ValueError("transport matrix has wrong shape")
    if rank(t) != s.dim:
        raise ValueError("transport matrix is singular")
    n = t.transpose().mul(s.upper).mul(t)
    rows = [0] * s.dim
    for i in range(s.dim):
        rows[i] |= (n.bits[i] >> i & 1) << i
        for j in range(i + 1, s.dim):
            bit = (n.bits[i] >> j & 1) ^ (n.bits[j] >> i & 1)
            rows[i] |= bit << j
    return QuadSpace(s.dim, F2Matrix(s.dim, s.dim, tuple(rows)))


def isometry_counts(s: QuadSpace) -> tuple[int, int]:
    """(order of the full isometry group, order of the Dickson kernel).

    Backtracking over the images c_j of the basis vectors e_j, usable at
    dim <= 4 only: q(sum x_j c_j) equals q(sum x_j e_j) for every x iff
    q(c_j) = q(e_j) and B(c_i, c_j) = B(e_i, e_j), so each c_j is chosen
    to keep these against the images already chosen, and each complete
    choice that is invertible is an isometry.  The Dickson invariant of
    g is rank(g + I) mod 2.
    """
    n = s.dim
    if n > 4:
        raise ValueError("isometry search is limited to dim <= 4")
    ident = F2Matrix.identity(n)
    full = kernel = 0

    def extend(images: tuple[int, ...]) -> None:
        nonlocal full, kernel
        j = len(images)
        if j == n:
            t = F2Matrix(n, n, images)  # g transposed: same rank, same Dickson
            if rank(t) == n:
                full += 1
                kernel += rank(t.add(ident)) % 2 == 0
            return
        for c in range(1, 1 << n):
            if eval_q(s, c) == eval_q(s, 1 << j) and all(
                    eval_b(s, images[i], c) == eval_b(s, 1 << i, 1 << j)
                    for i in range(j)):
                extend(images + (c,))

    extend(())
    return full, kernel


# --- form files: first line dim, then the upper-triangular 0/1 rows ---

def read_form(path) -> QuadSpace:
    """Exactly dim rows of dim entries after the dim line, each 0 or 1."""
    with open(path) as fh:
        dim = int(fh.readline().strip())
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"form file needs {dim} rows of {dim} entries")
    if any(t not in ("0", "1") for r in rows for t in r):
        raise ValueError("form file entries must be 0 or 1")
    bits = [[int(t) for t in r] for r in rows]
    return QuadSpace(dim, F2Matrix.from_rows(bits))
