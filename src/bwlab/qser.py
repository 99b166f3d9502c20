"""Exact integer q-expansions.

A QSeries holds integer coefficients for exponents offset/3, offset/3+1,
offset/3+2, ... — the only fractional exponents needed are thirds, so
the offset is an integer count of thirds and successive terms step by a
full power of q.  All arithmetic is exact; truncation lengths shrink to
whatever both operands support.  A product is one big-integer
multiplication (Kronecker substitution), and the dense cubes E4^3 and
root^3 are products.  Every other integer power, negative and zero
included, comes from one recurrence, J. C. P. Miller's formula for the
powers of a power series (Knuth, TAOCP Vol. 2, 4.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QSeries:
    offset_thirds: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")

    def exponent(self, i: int) -> Fraction:
        return Fraction(self.offset_thirds + 3 * i, 3)

    def _index(self, exponent) -> int:
        """Position of q^exponent in coeffs; raises if not stored."""
        thirds = Fraction(exponent) * 3
        if thirds.denominator != 1:
            raise ValueError("exponent must be a multiple of 1/3")
        i, rem = divmod(int(thirds) - self.offset_thirds, 3)
        if rem:
            raise ValueError("exponent not on the series' lattice of thirds")
        if not 0 <= i < len(self.coeffs):
            raise ValueError("exponent outside the stored truncation window")
        return i

    def coefficient(self, exponent) -> int:
        """Coefficient of q^exponent; raises if outside the stored window."""
        return self.coeffs[self._index(exponent)]

    def terms(self) -> list[tuple[Fraction, int]]:
        return [(self.exponent(i), c) for i, c in enumerate(self.coeffs)]

    def mul(self, other: "QSeries") -> "QSeries":
        """self * other by Kronecker substitution: one big-integer product.

        Each series is packed into one integer, coefficient i at bit w*i,
        with w a multiple of 8 and at least bits(max|a|) + bits(max|b|) +
        bits(n) + 1, so every coefficient of the product lies strictly
        between -2^(w-1) and 2^(w-1).  The low n slots of the product,
        read from the bottom, are those coefficients: a slot that, with
        the carry from below, reaches 2^(w-1) holds a negative coefficient
        that borrowed 2^w from the slot above.
        """
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        width = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
                 + n.bit_length() + 8) // 8  # w / 8, rounded up
        x = _pack(a, width)
        prod = x * x if other is self else x * _pack(b, width)
        bits = 8 * width
        raw = (prod & ((1 << bits * n) - 1)).to_bytes(width * n, "little")
        half, full = 1 << (bits - 1), 1 << bits
        out, carry = [], 0
        for i in range(0, width * n, width):
            c = int.from_bytes(raw[i:i + width], "little") + carry
            carry = c >= half
            out.append(c - full if carry else c)
        return QSeries(self.offset_thirds + other.offset_thirds, tuple(out))

    def add_scalar(self, c: int) -> "QSeries":
        """self + c; q^0 must lie in the stored window."""
        out = list(self.coeffs)
        out[self._index(0)] += c
        return QSeries(self.offset_thirds, tuple(out))

    def power(self, e: int) -> "QSeries":
        """self**e for any integer e, to the same truncation.

        With a_k the coefficients and g_m those of the power, Miller's
        recurrence m a_0 g_m = sum_{k=1..m} ((e+1)k - m) a_k g_{m-k} starts
        from g_0 = a_0^|e|.  The powers are integral, so each division is
        exact: e < 0 needs a leading coefficient of +-1 (then a_0^e equals
        a_0^|e|), e >= 0 a nonzero one.
        """
        a0 = self.coeffs[0]
        if a0 == 0 or (e < 0 and a0 not in (1, -1)):
            raise ValueError(
                "power needs a nonzero leading coefficient, +-1 for e < 0")
        live = [(k, a) for k, a in enumerate(self.coeffs) if k and a]
        g = [a0 ** abs(e)]
        for m in range(1, len(self.coeffs)):
            acc = 0
            for k, a in live:
                if k > m:
                    break
                acc += ((e + 1) * k - m) * a * g[m - k]
            q, r = divmod(acc, m * a0)
            if r:
                raise RuntimeError("inexact step in the power recurrence; bug")
            g.append(q)
        return QSeries(e * self.offset_thirds, tuple(g))


def _pack(coeffs, width: int) -> int:
    """sum c_i 2^(8 width i), as the positive part minus the negative part."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def euler_product(n: int, exponent: int = 1) -> QSeries:
    """prod_{k>=1} (1 - q^k)^exponent, n exact terms from q^0.

    The product itself is sum_k (-1)^k q^(k(3k-1)/2) over all integers k
    (Euler's pentagonal number theorem), so it has O(sqrt n) nonzero
    terms, the only ones the power recurrence reads.
    """
    if n < 1:
        raise ValueError("need at least one term")
    coeffs = [0] * n
    k = 0
    while k * (3 * k - 1) // 2 < n:
        for p in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if p < n:
                coeffs[p] = (-1) ** k
        k += 1
    return QSeries(0, tuple(coeffs)).power(exponent)


def eisenstein4(n: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(k) q^k, n exact terms."""
    if n < 1:
        raise ValueError("need at least one term")
    sigma3 = [0] * n
    for d in range(1, n):
        for m in range(d, n, d):
            sigma3[m] += d ** 3
    return QSeries(0, (1,) + tuple(240 * x for x in sigma3[1:]))


def j_series(n: int) -> QSeries:
    """j = E4^3 q^-1 prod (1 - q^k)^-24, n exact terms from q^{-1}."""
    e4 = eisenstein4(n)
    return QSeries(-3, e4.mul(e4).mul(e4).mul(euler_product(n, -24)).coeffs)


def _certified_root_and_j(n: int) -> tuple[QSeries, QSeries]:
    """cube_root_j(n) together with the j_series(n) that certified it."""
    if n < 3:
        raise ValueError("need at least three terms")
    root = QSeries(-1, eisenstein4(n).mul(euler_product(n, -8)).coeffs)
    cube = root.mul(root).mul(root)
    jj = j_series(n)
    if cube.offset_thirds != jj.offset_thirds or cube.coeffs != jj.coeffs[:len(cube.coeffs)]:
        raise RuntimeError("cube of the computed root disagrees with j")
    return root, jj


def cube_root_j(n: int) -> QSeries:
    """The unique cube root of j with leading term q^{-1/3}.

    Computed as E4 * q^{-1/3} prod (1 - q^k)^{-8}, then certified by
    cubing back against j to the shared truncation.
    """
    return _certified_root_and_j(n)[0]


def t1_series(n: int) -> QSeries:
    """cube_root_j * (j - 992): graded dimensions from q^{-4/3}."""
    root, jj = _certified_root_and_j(n)
    return root.mul(jj.add_scalar(-992))
