"""Extraspecial 2-groups as groups of signed permutations.

The plus-type group of order 2^(1+2m) acts on dimension 2^m as the
m-fold Kronecker power of the swap/sign pair

    X = [[0, 1], [1, 0]],   Z = [[1, 0], [0, -1]],

with -Identity the central involution.  Every element is a monomial
+-1 matrix, stored as a signed permutation: g[j] = s * (p + 1) says
g e_j = s e_p, so a product is one index lookup per coordinate and the
trace is the sum of the signs on the fixed points.  The group is built
one breadth-first layer at a time as an int array of such rows: a
layer's products with every generator are one gather, and a set of row
bytes keeps the new ones, in the order a per-element FIFO queue would
meet them.  Irreducibility of the defining module is certified by the
exact character norm sum(trace(g)^2)/|G|, which is 1 exactly for
irreducible real-trace modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

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
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
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


def extraspecial_plus(m: int) -> MatrixGroup:
    """Plus-type extraspecial group of order 2^(1+2m) on dimension 2^m."""
    if m < 1 or 1 << (1 + 2 * m) > CLOSURE_CAP:
        raise ValueError(f"m must be at least 1 and 2^(1+2m) at most the "
                         f"closure cap {CLOSURE_CAP}")
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


def _elements(g: MatrixGroup) -> np.ndarray:
    """All distinct elements as (order, dim) int32 rows, identity first.

    Layer k + 1 is every product e * gen with e in layer k, read
    element-major and generator-minor, less the rows already seen: the
    order of a FIFO queue that appends each new product as it meets it.
    """
    n = g.dim
    gens = np.array(g.generators, dtype=np.int32).reshape(-1, n)
    cols, signs = np.abs(gens) - 1, np.sign(gens)
    layer = np.arange(1, n + 1, dtype=np.int32)[None]
    layers, seen, width = [layer], {layer.tobytes()}, layer.nbytes
    while len(layer):
        flat = (layer[:, cols] * signs).tobytes()
        rows = (flat[i:i + width] for i in range(0, len(flat), width))
        new = [r for r in dict.fromkeys(rows) if r not in seen]
        seen.update(new)
        if len(seen) > CLOSURE_CAP:
            raise ClosureCapError(f"closure exceeded cap {CLOSURE_CAP}; "
                                  "construction suspect")
        layer = np.frombuffer(b"".join(new), dtype=np.int32).reshape(-1, n)
        layers.append(layer)
    return np.concatenate(layers)


def closure(g: MatrixGroup) -> list[tuple[int, ...]]:
    """All distinct elements by breadth-first products, identity first."""
    return list(map(tuple, _elements(g).tolist()))


def char_norm(g: MatrixGroup) -> int:
    """sum of squared traces over the group, divided by the order.

    Value 1 certifies irreducibility of the defining module (traces are
    real integers here, so no conjugation subtleties arise).
    """
    elems = _elements(g)
    fixed = np.arange(1, g.dim + 1)
    traces = (elems == fixed).sum(1) - (elems == -fixed).sum(1)
    total, order = int((traces * traces).sum()), len(elems)
    if total % order:
        raise ValueError("character norm is not an integer; non-group input?")
    return total // order
