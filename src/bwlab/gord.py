"""Factored-integer arithmetic and finite group order formulas.

Orders are kept in fully factored form (prime -> exponent) and only
converted to plain integers for display or cross-checks.  The classical
orthogonal-group formula is anchored at small rank by the backtracking
isometry search in f2quad.isometry_counts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import sympy


@dataclass(frozen=True)
class FactoredInteger:
    """Validated on construction from caller-supplied factors; results of
    the arithmetic below combine valid factorizations and skip that pass."""

    factors: tuple[tuple[int, int], ...]  # ascending (prime, exponent >= 1)

    def __post_init__(self):
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be ascending and distinct")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be positive")
        if any(not sympy.isprime(p) for p, _ in self.factors):
            raise ValueError("non-prime base in factorization")

    @staticmethod
    def _trusted(factors: tuple[tuple[int, int], ...]) -> "FactoredInteger":
        """Instance from factors already known to be valid, unchecked."""
        fi = object.__new__(FactoredInteger)
        object.__setattr__(fi, "factors", factors)
        return fi

    @staticmethod
    @lru_cache(maxsize=256)
    def from_int(n: int) -> "FactoredInteger":
        if n < 1:
            raise ValueError("only positive integers")
        fac = sympy.factorint(n)
        return FactoredInteger._trusted(
            tuple(sorted((int(p), int(e)) for p, e in fac.items())))

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
        return FactoredInteger._trusted(tuple(sorted(d.items())))

    def div(self, other: "FactoredInteger") -> "FactoredInteger":
        d = self.as_dict()
        for p, e in other.factors:
            have = d.get(p, 0)
            if have < e:
                raise ValueError(f"not divisible: prime {p} exponent {have} < {e}")
            d[p] = have - e
        return FactoredInteger._trusted(
            tuple(sorted((p, k) for p, k in d.items() if k)))

    def pow(self, e: int) -> "FactoredInteger":
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return FactoredInteger._trusted(())
        return FactoredInteger._trusted(
            tuple((p, k * e) for p, k in self.factors))

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
    fac = sympy.factorint(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, e),) = fac.items()
    return int(p), int(e)


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
    if not sympy.isprime(p):
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
