"""Factored-integer arithmetic and finite group order formulas.

Orders are kept in fully factored form (prime -> exponent) and only
converted to plain integers for display or cross-checks.  The classical
orthogonal-group formula is anchored at small rank by the backtracking
isometry search in f2quad.isometry_counts.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

# the first 13 primes: trial divisors and Miller-Rabin bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _isprime(n: int) -> bool:
    """Trial division by _BASES, then Miller-Rabin to each of them.

    A proof for n < 3317044064679887385961981 (about 3.3 * 10^24): no
    composite below it is a strong pseudoprime to all of the first 13
    prime bases (Sorenson and Webster, Math. Comp. 86 (2017)).  Above it
    the answer is a strong probable prime.
    """
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    r = (n - 1) >> s
    for a in _BASES:
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper factor of the composite n with no factor in _BASES:
    Pollard's rho, x -> x^2 + c for c = 1, 2, ..., with Floyd's cycle
    search."""
    for c in itertools.count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def _factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of the positive integer n, primes ascending."""
    fac: dict[int, int] = {}
    for p in _BASES:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if _isprime(m):
            fac[m] = fac.get(m, 0) + 1
        else:
            f = _rho(m)
            rest += [f, m // f]
    return dict(sorted(fac.items()))


@dataclass(frozen=True)
class FactoredInteger:
    """Ascending (prime, exponent >= 1) pairs, unchecked: each instance
    comes from _factorint, the arithmetic below, sylow_part or ()."""

    factors: tuple[tuple[int, int], ...]

    @staticmethod
    @lru_cache(maxsize=256)
    def from_int(n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError("only positive integers")
        return FactoredInteger(tuple(_factorint(n).items()))

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p ** e
        return n

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def mul(self, other: "FactoredInteger") -> "FactoredInteger":
        d = self.as_dict()
        for p, e in other.factors:
            d[p] = d.get(p, 0) + e
        return FactoredInteger(tuple(sorted(d.items())))

    def div(self, other: "FactoredInteger") -> "FactoredInteger":
        d = self.as_dict()
        for p, e in other.factors:
            have = d.get(p, 0)
            if have < e:
                raise ValueError(f"not divisible: prime {p} exponent {have} < {e}")
            d[p] = have - e
        return FactoredInteger(tuple(sorted((p, k) for p, k in d.items() if k)))

    def pow(self, e: int) -> "FactoredInteger":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return FactoredInteger(())
        return FactoredInteger(tuple((p, k * e) for p, k in self.factors))

    def valuation(self, p: int) -> int:
        return self.as_dict().get(p, 0)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)


def _fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


def _check_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    fac = _factorint(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, e),) = fac.items()
    return p, e


def omega_plus_order(two_m: int, q: int) -> FactoredInteger:
    """Order of the simple plus-type orthogonal group in dimension 2m.

    q^{m(m-1)} (q^m - 1) prod_{i=1}^{m-1} (q^{2i} - 1) / gcd(2, q - 1).
    Anchored at (4, 2) by the exhaustive isometry sweep (order 36).
    """
    if two_m % 2 or two_m < 4:
        raise ValueError("dimension must be even and at least 4")
    _check_prime_power(q)
    m = two_m // 2
    order = _fi(q).pow(m * (m - 1)).mul(_fi(q ** m - 1))
    for i in range(1, m):
        order = order.mul(_fi(q ** (2 * i) - 1))
    return order.div(_fi(math.gcd(2, q - 1)))


def e6_order(q: int) -> FactoredInteger:
    """q^36 (q^12-1)(q^9-1)(q^8-1)(q^6-1)(q^5-1)(q^2-1) / gcd(3, q-1)."""
    _check_prime_power(q)
    order = _fi(q).pow(36)
    for e in (12, 9, 8, 6, 5, 2):
        order = order.mul(_fi(q ** e - 1))
    return order.div(_fi(math.gcd(3, q - 1)))


def sylow_part(n: FactoredInteger, p: int) -> FactoredInteger:
    if not _isprime(p):
        raise ValueError("p must be prime")
    e = n.valuation(p)
    return FactoredInteger(((p, e),) if e else ())


_TOKEN_PATTERNS = (
    ("extraspecial", re.compile(r"^2\^\{(\d+)\+(\d+)\}(?:_[+-])?$")),
    ("power", re.compile(r"^(\d+)\^\{?(\d+)\}?$")),
    ("omega_plus", re.compile(r"^OmegaPlus\((\d+),(\d+)\)$")),
    ("e6", re.compile(r"^E6\((\d+)\)$")),
    ("plain", re.compile(r"^(\d+)$")),
)


def _layer_order(token: str) -> FactoredInteger:
    for kind, pat in _TOKEN_PATTERNS:
        m = pat.match(token)
        if not m:
            continue
        if kind == "extraspecial":
            return _fi(2).pow(int(m.group(1)) + int(m.group(2)))
        if kind == "power":
            return _fi(int(m.group(1))).pow(int(m.group(2)))
        if kind == "omega_plus":
            return omega_plus_order(int(m.group(1)), int(m.group(2)))
        if kind == "e6":
            return e6_order(int(m.group(1)))
        return _fi(int(m.group(1)))
    raise ValueError(f"unresolvable shape token: {token!r}")


def shape_order(text: str) -> FactoredInteger:
    """Product of the layer orders of a dotted shape such as
    2^{1+32}.2^{10}.OmegaPlus(10,2) (reads orders only, never splitness)."""
    layers = [t.strip() for t in text.split(".")]
    if not any(layers):
        raise ValueError("empty shape string")
    order = FactoredInteger(())
    for tok in layers:
        if not tok:
            raise ValueError("empty layer between dots")
        order = order.mul(_layer_order(tok))
    return order
