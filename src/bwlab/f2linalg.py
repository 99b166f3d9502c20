"""Linear algebra over GF(2) on bit-packed rows.

A vector of length n is a Python int whose bit j is coordinate j, so
coordinate 0 is the least significant bit.  A matrix is a tuple of such
row ints.  Everything is immutable and exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product

MAX_ENUM_DIM = 24  # guard for codeword span enumeration


def vec_from_bits(bits) -> int:
    """Pack an iterable of 0/1 into a vector int (index 0 = lsb)."""
    x = 0
    for j, b in enumerate(bits):
        if b & 1:
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
        return F2Matrix(len(rows), width, tuple(vec_from_bits(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(n, n, tuple(1 << i for i in range(n)))

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.bits):
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= 1 << i
                r &= r - 1
        return F2Matrix(self.cols, self.rows, tuple(out))

    def mul(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        out = []
        for r in self.bits:
            acc = 0
            for j, c in enumerate(ot.bits):
                acc |= ((r & c).bit_count() & 1) << j
            out.append(acc)
        return F2Matrix(self.rows, other.cols, tuple(out))

    def add(self, other: "F2Matrix") -> "F2Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return F2Matrix(self.rows, self.cols,
                        tuple(a ^ b for a, b in zip(self.bits, other.bits)))


def rank(m: F2Matrix) -> int:
    """GF(2) row rank: the size of a maximal independent subset of rows."""
    return len(_independent_rows(m))


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
    words = []
    for msg in product((0, 1), repeat=k):
        w = 0
        for bit, g in zip(msg, basis):
            if bit:
                w ^= g
        words.append(w)
    return words


def _independent_rows(m: F2Matrix) -> list[int]:
    """A maximal independent subset of the rows, in row order."""
    picked = []
    span = []  # echelon form of picked rows
    for r in m.bits:
        v = r
        for b in span:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            picked.append(r)
            # insert keeping echelon property on lowest set bits
            for i, b in enumerate(span):
                if (v & -v) < (b & -b):
                    span.insert(i, v)
                    break
            else:
                span.append(v)
    return picked


def weight_enumerator(gens: F2Matrix) -> dict[int, int]:
    """Hamming-weight distribution of the full codeword list."""
    counts = Counter(w.bit_count() for w in enumerate_codewords(gens))
    return dict(sorted(counts.items()))
