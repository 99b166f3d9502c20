"""Linear algebra over GF(2) on bit-packed rows.

A vector of length n is a Python int whose bit j is coordinate j, so
coordinate 0 is the least significant bit.  A matrix is a tuple of such
row ints.  Everything is immutable and exact.

Span questions have one echelon: reduced rows with distinct leading
bits, kept in descending order, against which a vector is reduced by
v = min(v, v ^ row).  Rank, independent rows and f2quad's totally
singular subspaces all extend it with extend_echelon.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

MAX_ENUM_DIM = 24  # dim guard of the full lists: codewords, singular vectors


def vec_from_bits(bits) -> int:
    """Pack an iterable of 0/1 into a vector int (index 0 = lsb)."""
    x = 0
    for j, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"entry {b!r} is not 0 or 1")
        if b == 1:
            x |= 1 << j
    return x


def vec_to_bits(x: int, n: int) -> tuple[int, ...]:
    return tuple((x >> j) & 1 for j in range(n))


@dataclass(frozen=True)
class F2Matrix:
    rows: int
    cols: int
    bits: tuple[int, ...]  # one int per row

    def __post_init__(self):
        if len(self.bits) != self.rows:
            raise ValueError("row count mismatch")
        mask = (1 << self.cols) - 1
        if not all(0 <= r <= mask for r in self.bits):
            raise ValueError("row exceeds column count")

    @staticmethod
    def from_rows(rows) -> "F2Matrix":
        """Build from a list of rows, each a sequence of 0/1 entries."""
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        return F2Matrix(len(rows), width, tuple(vec_from_bits(r) for r in rows))

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.bits):
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= 1 << i
                r &= r - 1
        return F2Matrix(self.cols, self.rows, tuple(out))


def rank(m: F2Matrix) -> int:
    """GF(2) row rank: the size of a maximal independent subset of rows."""
    return len(_independent_rows(m))


def extend_echelon(echelon: list[int], v: int) -> bool:
    """Reduce v against echelon and keep the remainder if it is nonzero.

    echelon holds reduced rows with distinct leading bits in descending
    order; True means v was outside their span and echelon now spans v.
    """
    for row in echelon:
        v = min(v, v ^ row)  # clears row's leading bit if v has it
    if v:
        echelon.append(v)
        echelon.sort(reverse=True)
    return bool(v)


def rm14() -> F2Matrix:
    """Generator matrix of the first-order Reed-Muller code of length 16
    (dimension 5).

    Generators: the all-ones word and the four coordinate functions on
    the 16 points, i.e. the patterns (10)^8, (1100)^4, (1^4 0^4)^2, 1^8 0^8.
    """
    gens = (
        0xFFFF,  # 1111111111111111
        0x5555,  # 1010101010101010
        0x3333,  # 1100110011001100
        0x0F0F,  # 1111000011110000
        0x00FF,  # 1111111100000000
    )
    return F2Matrix(5, 16, gens)


def enumerate_codewords(gens: F2Matrix) -> list[int]:
    """All 2^dim codewords of the code that the rows of gens generate,
    ordered lexicographically by message vector.

    The message vector runs over independent rows of the generator matrix
    in their stored order; its first coordinate varies slowest.
    """
    basis = _independent_rows(gens)
    k = len(basis)
    if k > MAX_ENUM_DIM:
        raise ValueError(f"code dimension {k} exceeds enumeration guard {MAX_ENUM_DIM}")
    words = [0]
    for g in basis:
        words = [x for w in words for x in (w, w ^ g)]
    return words


def _independent_rows(m: F2Matrix) -> list[int]:
    """A maximal independent subset of the rows, in row order."""
    echelon: list[int] = []
    return [r for r in m.bits if extend_echelon(echelon, r)]


def weight_enumerator(gens: F2Matrix) -> dict[int, int]:
    """Hamming-weight distribution of the full codeword list."""
    counts = Counter(w.bit_count() for w in enumerate_codewords(gens))
    return dict(sorted(counts.items()))
