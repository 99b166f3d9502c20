"""Extraspecial 2-groups as groups of signed permutations.

The plus-type group of order 2^(1+2m) acts on dimension 2^m as the
m-fold Kronecker power of the swap/sign pair

    X = [[0, 1], [1, 0]],   Z = [[1, 0], [0, -1]],

with -Identity the central involution.  Every element is a monomial
+-1 matrix, stored as a signed permutation: g[j] = s * (p + 1) says
g e_j = s e_p, so a product is one index lookup per coordinate and the
trace is the sum of the signs on the fixed points.  Irreducibility of
the defining module is certified by the exact character norm
sum(trace(g)^2)/|G|, which is 1 exactly for irreducible real-trace
modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

CLOSURE_CAP = 1 << 13  # closure gives up past this many elements

_X, _Z, _I = (2, 1), (1, -2), (1, 2)


class ClosureCapError(RuntimeError):
    """Group closure exceeded the element cap (wrong construction?)."""


@dataclass(frozen=True)
class MatrixGroup:
    """The group generated by signed permutations of dimension dim."""
    generators: tuple[tuple[int, ...], ...]
    dim: int

    def __post_init__(self):
        # one +-1 entry per column and per row, hence invertible
        for g in self.generators:
            if not (isinstance(g, tuple) and all(isinstance(x, int) for x in g)
                    and sorted(map(abs, g)) == list(range(1, self.dim + 1))):
                raise ValueError("generator is not a signed permutation of 1..dim")


def _kron(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The Kronecker product A (x) B of two signed permutations."""
    n = len(b)
    return tuple((1 if x * y > 0 else -1) * ((abs(x) - 1) * n + abs(y))
                 for x in a for y in b)


def _trace(g: tuple[int, ...]) -> int:
    return sum((x == j) - (x == -j) for j, x in enumerate(g, 1))


def extraspecial_plus(m: int) -> MatrixGroup:
    """Plus-type extraspecial group of order 2^(1+2m) on dimension 2^m."""
    if not 1 <= m <= 4:
        raise ValueError("m must be between 1 and 4 (closure cap)")
    gens = tuple(reduce(_kron, [p if j == i else _I for j in range(m)])
                 for i in range(m) for p in (_X, _Z))
    return MatrixGroup(gens, 1 << m)


def central_product(a: MatrixGroup, b: MatrixGroup) -> MatrixGroup:
    """Generators {A (x) I, I (x) B}; the Kronecker product identifies the
    two centers automatically: (-I) (x) I = I (x) (-I)."""
    ia = tuple(range(1, a.dim + 1))
    ib = tuple(range(1, b.dim + 1))
    gens = tuple(_kron(g, ib) for g in a.generators) \
        + tuple(_kron(ia, g) for g in b.generators)
    return MatrixGroup(gens, a.dim * b.dim)


def block_double(a: MatrixGroup) -> MatrixGroup:
    """Block-diagonal doubling I (x) A: the visibly reducible control model."""
    return MatrixGroup(tuple(_kron(_I, g) for g in a.generators), 2 * a.dim)


def closure(g: MatrixGroup) -> list[tuple[int, ...]]:
    """All distinct elements by breadth-first products, identity first."""
    elems = [tuple(range(1, g.dim + 1))]
    seen = set(elems)
    for e in elems:  # a FIFO queue: products appended here are visited later
        for gen in g.generators:
            prod = tuple(e[x - 1] if x > 0 else -e[-x - 1] for x in gen)
            if prod not in seen:
                if len(elems) >= CLOSURE_CAP:
                    raise ClosureCapError(
                        f"closure exceeded cap {CLOSURE_CAP}; "
                        "construction suspect")
                seen.add(prod)
                elems.append(prod)
    return elems


def char_norm(g: MatrixGroup) -> int:
    """sum of squared traces over the group, divided by the order.

    Value 1 certifies irreducibility of the defining module (traces are
    real integers here, so no conjugation subtleties arise).
    """
    elems = closure(g)
    total = sum(_trace(e) ** 2 for e in elems)
    order = len(elems)
    if total % order:
        raise ValueError("character norm is not an integer; non-group input?")
    return total // order
