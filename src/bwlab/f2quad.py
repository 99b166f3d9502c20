"""Quadratic forms over GF(2).

A form on F2^n is stored as an upper-triangular F2Matrix U, meaning

    q(x) = sum_{i <= j} U[i][j] x_i x_j   (mod 2),

with the associated bilinear form B(x, y) = q(x+y) + q(x) + q(y), whose
matrix is U + U^T (alternating: B(x, x) = 0).  Vectors are ints with
bit i = coordinate i; reported orderings are lexicographic on the
coordinate tuple (x_1, ..., x_n).

Forms move by the polarization identity

    q(sum x_i c_i) = sum x_i q(c_i) + sum_{i<j} x_i x_j B(c_i, c_j),

so the form x -> q(T x) has U'[i][i] = q(c_i) and U'[i][j] = B(c_i, c_j)
for the columns c_i = T e_i, and T is an isometry iff those bits equal
the ones stored in U (Taylor, The Geometry of the Classical Groups, 1992).

Type classification is decided by exhaustively counting singular
vectors, never by formula; the counts are the ground truth downstream
modules consume.  The sweep tabulates q bitsliced, 64 vectors to a
word, in one doubling loop from coordinate 0: q(x + e_j) = q(x) +
B(x, e_j) + U_jj.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .f2linalg import F2Matrix, extend_echelon, rank

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


def _q_words(s: QuadSpace) -> np.ndarray:
    """Bitsliced q: bit l of word h is q(64 h + l); lanes past 2^dim are 0.

    From q(0) = 0 the table doubles once per coordinate j, taking each
    x = 64 h + l < 2^j to x + e_j by

        q(x + e_j) = q(x) + B(l, e_j) + parity(h & (B e_j >> 6)) + U_jj,

    with B(l, e_j) the linear-form word of B(., e_j) on the lanes.  For
    j < 6 word 0's lanes [0, 2^j) go to [2^j, 2^(j+1)), where h = 0; for
    j >= 6 the words of the prefixes h < 2^(j-6) go to those of
    h + 2^(j-6), XORed with all ones where the last two terms sum to 1.
    """
    if s.dim > MAX_SWEEP_DIM:
        raise ValueError(f"dimension {s.dim} exceeds sweep guard {MAX_SWEEP_DIM}")
    lanes = np.arange(64, dtype=np.uint64)
    words = np.zeros(1 << max(s.dim - 6, 0), dtype=np.uint64)
    prefixes = np.arange(len(words) // 2, dtype=np.uint64)
    for j in range(s.dim):
        image = bilinear_image(s, 1 << j)
        form = np.bitwise_or.reduce(
            (np.bitwise_count(lanes & np.uint64(image)) & 1) << lanes)
        diag = s.upper.bits[j] >> j & 1
        if j < 6:
            half = (1 << (1 << j)) - 1  # lanes [0, 2^j)
            words[0] |= ((words[0] ^ form ^ np.uint64(half * diag))
                         & np.uint64(half)) << np.uint64(1 << j)
        else:
            size = 1 << (j - 6)
            flip = (np.bitwise_count(prefixes[:size] & np.uint64(image >> 6))
                    ^ diag) & 1
            words[size:2 * size] = words[:size] ^ form ^ -flip.astype(np.uint64)
    return words


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
    echelon: list[int] = []  # spans the choices
    for v in singular_vectors(s):
        if len(chosen) == k:
            break
        if not any((image & v).bit_count() & 1 for image in images) \
                and extend_echelon(echelon, v):
            chosen.append(v)
            images.append(bilinear_image(s, v))
    if len(chosen) < k:
        return None
    if any(eval_q(s, a) or eval_b(s, a, b) for i, a in enumerate(chosen)
           for b in chosen[i:]):
        raise RuntimeError("witness basis is not totally singular; internal bug")
    return chosen


def transport(s: QuadSpace, t: F2Matrix) -> QuadSpace:
    """The form x -> q(T x) for invertible T, by polarization on the
    columns c_i = T e_i."""
    if (t.rows, t.cols) != (s.dim, s.dim):
        raise ValueError("transport matrix has wrong shape")
    if rank(t) != s.dim:
        raise ValueError("transport matrix is singular")
    cols = t.transpose().bits
    rows = []
    for i, c in enumerate(cols):
        image = bilinear_image(s, c)
        row = eval_q(s, c) << i
        for j in range(i + 1, s.dim):
            row |= ((image & cols[j]).bit_count() & 1) << j
        rows.append(row)
    return QuadSpace(s.dim, F2Matrix(s.dim, s.dim, tuple(rows)))


def isometry_counts(s: QuadSpace) -> tuple[int, int]:
    """(order of the full isometry group, order of the Dickson kernel).

    Backtracking over the images c_j of the basis vectors e_j, usable at
    dim <= 4 only: by polarization q(sum x_j c_j) equals q(x) for every x
    iff q(c_j) = U[j][j] and B(c_i, c_j) = U[i][j] for i < j, so each c_j
    is chosen to keep these against the images already chosen, and each
    complete choice that is invertible is an isometry.  The Dickson
    invariant of g is rank(g + I) mod 2.
    """
    n = s.dim
    if n > 4:
        raise ValueError("isometry search is limited to dim <= 4")
    u = s.upper.bits
    full = kernel = 0

    def extend(images: tuple[int, ...]) -> None:
        nonlocal full, kernel
        j = len(images)
        if j == n:
            t = F2Matrix(n, n, images)  # g transposed: same rank, same Dickson
            if rank(t) == n:
                full += 1
                shifted = tuple(c ^ (1 << i) for i, c in enumerate(images))
                kernel += rank(F2Matrix(n, n, shifted)) % 2 == 0
            return
        for c in range(1, 1 << n):
            if eval_q(s, c) == u[j] >> j & 1 and all(
                    eval_b(s, images[i], c) == u[i] >> j & 1
                    for i in range(j)):
                extend(images + (c,))

    extend(())
    return full, kernel


# --- form files: first line dim, then the upper-triangular 0/1 rows ---

def read_form(path) -> QuadSpace:
    """Exactly dim rows of dim entries after the dim line, each 0 or 1.

    F2Matrix.from_rows rejects ragged rows and entries other than 0 and
    1, and QuadSpace rejects rows of the wrong length.
    """
    with open(path) as fh:
        dim = int(fh.readline().strip())
        rows = [[int(t) for t in line.split()] for line in fh if line.strip()]
    if len(rows) != dim:
        raise ValueError(f"form file needs {dim} rows of {dim} entries")
    return QuadSpace(dim, F2Matrix.from_rows(rows))
