"""Exact integer q-expansions.

A QSeries holds integer coefficients for exponents offset/3, offset/3+1,
offset/3+2, ... — the only fractional exponents needed are thirds, so
the offset is an integer count of thirds and successive terms step by a
full power of q.  All arithmetic is exact; truncation lengths shrink to
whatever both operands support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

DEFAULT_TERMS = 12


@dataclass(frozen=True)
class QSeries:
    offset_thirds: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    def exponent(self, i: int) -> Fraction:
        return Fraction(self.offset_thirds + 3 * i, 3)

    def coefficient(self, exponent) -> int:
        """Coefficient of q^exponent; raises if outside the stored window."""
        e = Fraction(exponent)
        thirds = e * 3
        if thirds.denominator != 1:
            raise ValueError("exponent must be a multiple of 1/3")
        i, rem = divmod(int(thirds) - self.offset_thirds, 3)
        if rem:
            raise ValueError("exponent not on the series' lattice of thirds")
        if not 0 <= i < len(self.coeffs):
            raise ValueError("exponent outside the stored truncation window")
        return self.coeffs[i]

    def terms(self) -> list[tuple[Fraction, int]]:
        return [(self.exponent(i), c) for i, c in enumerate(self.coeffs)]

    def mul(self, other: "QSeries") -> "QSeries":
        n = min(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] += a * b
        return QSeries(self.offset_thirds + other.offset_thirds, tuple(out))

    def add(self, other: "QSeries") -> "QSeries":
        if (self.offset_thirds - other.offset_thirds) % 3:
            raise ValueError("offsets differ by a non-integer exponent")
        start = min(self.offset_thirds, other.offset_thirds)
        end = min(self.offset_thirds + 3 * len(self.coeffs),
                  other.offset_thirds + 3 * len(other.coeffs))
        n = (end - start) // 3
        if n <= 0:
            raise ValueError("truncation windows do not overlap")
        out = [0] * n
        for i in range(n):
            e = start + 3 * i
            ia = (e - self.offset_thirds) // 3
            ib = (e - other.offset_thirds) // 3
            if 0 <= ia < len(self.coeffs):
                out[i] += self.coeffs[ia]
            if 0 <= ib < len(other.coeffs):
                out[i] += other.coeffs[ib]
        return QSeries(start, tuple(out))

    def scaled(self, c: int) -> "QSeries":
        return QSeries(self.offset_thirds, tuple(c * a for a in self.coeffs))

    def add_scalar(self, c: int) -> "QSeries":
        return self.add(QSeries(0, (c,) + (0,) * (len(self.coeffs) - 1)))

    def power(self, e: int) -> "QSeries":
        if e < 1:
            raise ValueError("power expects a positive exponent")
        out = self
        for _ in range(e - 1):
            out = out.mul(self)
        return out

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; leading coefficient must be a unit."""
        lead = self.coeffs[0]
        if lead not in (1, -1):
            raise ValueError("leading coefficient must be +-1 for an exact inverse")
        n = len(self.coeffs)
        inv = [lead] + [0] * (n - 1)
        for i in range(1, n):
            acc = 0
            for j in range(1, i + 1):
                acc += self.coeffs[j] * inv[i - j]
            inv[i] = -lead * acc
        return QSeries(-self.offset_thirds, tuple(inv))

    def div(self, other: "QSeries") -> "QSeries":
        return self.mul(other.inverse())


def euler_product(n: int, exponent: int = 1) -> QSeries:
    """prod_{k>=1} (1 - q^k)^exponent, n exact terms from q^0."""
    if n < 1:
        raise ValueError("need at least one term")
    coeffs = [0] * n
    coeffs[0] = 1
    for k in range(1, n):
        for i in range(n - 1 - k, -1, -1):
            coeffs[i + k] -= coeffs[i]
    base = QSeries(0, tuple(coeffs))
    if exponent == 1:
        return base
    if exponent >= 2:
        return base.power(exponent)
    return base.inverse().power(-exponent) if exponent < -1 else base.inverse()


def _sigma3(k: int) -> int:
    return sum(d ** 3 for d in range(1, k + 1) if k % d == 0)


def eisenstein4(n: int) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(k) q^k, n exact terms."""
    if n < 1:
        raise ValueError("need at least one term")
    return QSeries(0, (1,) + tuple(240 * _sigma3(k) for k in range(1, n)))


def delta(n: int) -> QSeries:
    """The weight-12 cusp form q prod (1 - q^k)^24, n exact terms from q^1."""
    return QSeries(3, euler_product(n, 24).coeffs)


def j_series(n: int) -> QSeries:
    """j = E4^3 / Delta, n exact terms from q^{-1}."""
    return eisenstein4(n).power(3).div(delta(n))


def _certified_root_and_j(n: int) -> tuple[QSeries, QSeries]:
    """cube_root_j(n) together with the j_series(n) that certified it."""
    if n < 3:
        raise ValueError("need at least three terms")
    root = QSeries(-1, eisenstein4(n).mul(euler_product(n, -8)).coeffs)
    cube = root.power(3)
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
