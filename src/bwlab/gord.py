"""Factored-integer arithmetic and finite group order formulas.

Orders are kept in fully factored form (prime -> exponent) and only
converted to plain integers for display or cross-checks.  Both group
orders are one Chevalley product over the Weyl degrees, the orthogonal
one anchored at small rank by the backtracking isometry search in
f2quad.isometry_counts.  Pollard's rho gives up with a ValueError past
its step budget.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

# the first 13 primes: trial divisors and Miller-Rabin bases
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_RHO_STEPS = 1 << 20  # Floyd steps per _rho call: about 2 s at 120 bits


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
    search, in at most _RHO_STEPS steps over all c."""
    budget = _RHO_STEPS
    for c in itertools.count(1):
        x, y, g = 2, 2, 1
        while g == 1 and budget:
            budget -= 1
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g == 1:
            raise ValueError(f"cannot factor {n} in {_RHO_STEPS} rho steps")
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


def _chevalley_order(q: int, degrees, centre: int) -> FactoredInteger:
    """q^(sum (d - 1)) prod (q^d - 1) / gcd(centre, q - 1) over the Weyl
    degrees d, q a prime power (Carter, Simple Groups of Lie Type, 9.4)."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    fq = _fi(q)
    if len(fq.factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    order = fq.pow(sum(d - 1 for d in degrees))
    for d in degrees:
        order = order.mul(_fi(q ** d - 1))
    return order.div(_fi(math.gcd(centre, q - 1)))


def omega_plus_order(two_m: int, q: int) -> FactoredInteger:
    """Order of Omega+(2m, q), the commutator subgroup of O+(2m, q).

    q^{m(m-1)} (q^m - 1) prod_{i=1}^{m-1} (q^{2i} - 1) / gcd(2, q - 1).
    Not the order of a simple group in general: Omega+(4, q) is not
    simple (Omega+(4, 2) = S3 x S3), and for odd q the centre has order
    gcd(4, q^m - 1) / 2.  Anchored at (4, 2) by the exhaustive isometry
    sweep (order 36).
    """
    if two_m % 2 or two_m < 4:
        raise ValueError("dimension must be even and at least 4")
    return _chevalley_order(q, (*range(2, two_m - 1, 2), two_m // 2), 2)


def e6_order(q: int) -> FactoredInteger:
    """q^36 (q^12-1)(q^9-1)(q^8-1)(q^6-1)(q^5-1)(q^2-1) / gcd(3, q-1)."""
    return _chevalley_order(q, (2, 5, 6, 8, 9, 12), 3)


def sylow_part(n: FactoredInteger, p: int) -> FactoredInteger:
    if not _isprime(p):
        raise ValueError("p must be prime")
    e = n.valuation(p)
    return FactoredInteger(((p, e),) if e else ())


# each layer token's pattern, and its order as a function of the integer groups
_TOKENS = (
    (re.compile(r"^2\^\{(\d+)\+(\d+)\}(?:_[+-])?$"), lambda a, b: _fi(2).pow(a + b)),
    # p^e or p^{e}: the lookahead admits a brace only with its partner
    (re.compile(r"^(\d+)\^(?=\d+$|\{\d+\}$)\{?(\d+)\}?$"), lambda p, e: _fi(p).pow(e)),
    (re.compile(r"^OmegaPlus\((\d+),(\d+)\)$"), omega_plus_order),
    (re.compile(r"^E6\((\d+)\)$"), e6_order),
    (re.compile(r"^(\d+)$"), _fi),
)


def _layer_order(token: str) -> FactoredInteger:
    for pat, order in _TOKENS:
        m = pat.match(token)
        if m:
            return order(*map(int, m.groups()))
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
