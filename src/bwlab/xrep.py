"""Extraspecial 2-groups as signed integer matrix groups.

The plus-type group of order 2^(1+2m) acts on dimension 2^m as the
m-fold Kronecker power of the swap/sign pair

    X = [[0, 1], [1, 0]],   Z = [[1, 0], [0, -1]],

with -Identity the central involution.  Irreducibility of the defining
module is certified by the exact character norm sum(trace(g)^2)/|G|,
which is 1 exactly for irreducible real-trace modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exlat

CLOSURE_CAP = 1 << 13  # closure gives up past this many elements


class ClosureCapError(RuntimeError):
    """Group closure exceeded the element cap (wrong construction?)."""


@dataclass(frozen=True)
class MatrixGroup:
    generators: tuple[tuple[tuple[int, ...], ...], ...]
    dim: int

    def __post_init__(self):
        seq = (tuple, list)
        for g in self.generators:
            if not (isinstance(g, seq) and len(g) == self.dim and all(
                    isinstance(r, seq) and len(r) == self.dim for r in g)):
                raise ValueError("generator shape mismatch")
        for g in self.generators:
            if exlat.determinant(g) == 0:
                raise ValueError("singular generator")

    @staticmethod
    def from_arrays(mats) -> "MatrixGroup":
        gens = tuple(tuple(tuple(int(x) for x in row) for row in np.asarray(m))
                     for m in mats)
        if not gens:
            raise ValueError("need at least one generator")
        return MatrixGroup(gens, len(gens[0]))


_X = np.array([[0, 1], [1, 0]], dtype=np.int64)
_Z = np.array([[1, 0], [0, -1]], dtype=np.int64)


def _kron_chain(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def extraspecial_plus(m: int) -> MatrixGroup:
    """Plus-type extraspecial group of order 2^(1+2m) on dimension 2^m."""
    if not 1 <= m <= 4:
        raise ValueError("m must be between 1 and 4 (closure cap)")
    eye = np.eye(2, dtype=np.int64)
    gens = []
    for i in range(m):
        slots_x = [_X if j == i else eye for j in range(m)]
        slots_z = [_Z if j == i else eye for j in range(m)]
        gens.append(_kron_chain(slots_x))
        gens.append(_kron_chain(slots_z))
    return MatrixGroup.from_arrays(gens)


def central_product(a: MatrixGroup, b: MatrixGroup) -> MatrixGroup:
    """Generators {A (x) I, I (x) B}; the Kronecker product identifies the
    two centers automatically: (-I) (x) I = I (x) (-I)."""
    ia = np.eye(a.dim, dtype=np.int64)
    ib = np.eye(b.dim, dtype=np.int64)
    gens = [np.kron(np.array(g, dtype=np.int64), ib) for g in a.generators]
    gens += [np.kron(ia, np.array(g, dtype=np.int64)) for g in b.generators]
    return MatrixGroup.from_arrays(gens)


def block_double(a: MatrixGroup) -> MatrixGroup:
    """Block-diagonal doubling: the visibly reducible control model."""
    gens = []
    for g in a.generators:
        m = np.array(g, dtype=np.int64)
        z = np.zeros_like(m)
        gens.append(np.block([[m, z], [z, m]]))
    return MatrixGroup.from_arrays(gens)


def closure(g: MatrixGroup) -> list[np.ndarray]:
    """All distinct elements by breadth-first products, identity first."""
    gens = [np.array(x, dtype=np.int64) for x in g.generators]
    ident = np.eye(g.dim, dtype=np.int64)

    def key(m: np.ndarray) -> bytes:
        return m.tobytes()

    seen = {key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for gen in gens:
                prod = e @ gen
                k = key(prod)
                if k not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise ClosureCapError(
                            f"closure exceeded cap {CLOSURE_CAP}; "
                            "construction suspect")
                    seen[k] = prod
                    nxt.append(prod)
        frontier = nxt
    return list(seen.values())


def char_norm(g: MatrixGroup) -> int:
    """sum of squared traces over the group, divided by the order.

    Value 1 certifies irreducibility of the defining module (traces are
    real integers here, so no conjugation subtleties arise).
    """
    elems = closure(g)
    total = sum(int(np.trace(e)) ** 2 for e in elems)
    order = len(elems)
    if total % order:
        raise ValueError("character norm is not an integer; non-group input?")
    return total // order
