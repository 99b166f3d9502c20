"""Barnes-Wall constructions.

Everything lives in an orthogonal ambient frame whose vectors have
squared norm 2 (frame_scale 2 in exlat terms), so half- and quarter-
integer coordinates stay exact with denominators 2 and 4.

The rank-16 lattice is D16 plus half the characteristic sums of first-order
Reed-Muller codewords; D16's 16 generators and the five halved generator
rows of RM(1,4) span it, as any two codewords meet in an even number of
coordinates.  The rank-32 lattice glues two orthogonal copies along the
diagonal embedding of the dual; the index-2^16 sublattice reverses the
roles.  Both steps are instances of one recipe on a pair (L, D):

    build(L, D) = (L + L) + {(v, v) : v in D}

with the next pair given by (L, D) -> (2D, L).  Applying the step twice
lands on 2x the rank-32 lattice, which tower_check verifies exactly.

The similarities BW16 ~ sqrt2 BW16* and bw1 ~ sqrt2 BW32 are proved by
the explicit map phi = 1 + i on paired frame coordinates (Nebe, Rains
and Sloane 2002): phi * BW16* = BW16 and phi * BW32 = bw1 are exact HNF
equalities.  similarity_invariants keeps the search-based evidence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import exlat, f2linalg
from .exlat import ScaledBasis

FRAME = Fraction(2)  # squared norm of each ambient frame vector


@lru_cache(maxsize=None)
def bw16() -> ScaledBasis:
    """Canonical rank-16 Barnes-Wall basis (den 2, frame norm 2) from 21
    rows: 2 alpha_0 and alpha_0 + alpha_j (j = 1..15) generate D16, and
    the five halved rows alpha_c / 2 of rm14() give every halved codeword
    modulo D16, since two codewords meet in an even number of coordinates:
    alpha_{c+c'} / 2 = alpha_c / 2 + alpha_{c'} / 2 - alpha_{c and c'}."""
    rows = []
    for j in range(16):
        row = [2] + [0] * 15
        row[j] += 2
        rows.append(row)
    rows += [list(f2linalg.vec_to_bits(g, 16)) for g in f2linalg.rm14().bits]
    return exlat.hnf_basis(ScaledBasis.from_rows(rows, 2, FRAME))


def _glue_pair(left: ScaledBasis, diag: ScaledBasis) -> ScaledBasis:
    """(left + left) + {(v, v) : v in diag} as one canonical lattice: the
    rows (r, 0), (0, r) and (v, v) over the lcm of the denominators."""
    den = math.lcm(left.den, diag.den)
    fl, fd = den // left.den, den // diag.den
    zero = (0,) * left.ambient_dim
    rows = [tuple(x * fl for x in r) for r in left.mat]
    rows = [r + zero for r in rows] + [zero + r for r in rows]
    rows += [tuple(x * fd for x in r + r) for r in diag.mat]
    return exlat.hnf_basis(ScaledBasis(tuple(rows), den, FRAME))


@lru_cache(maxsize=None)
def bw32() -> ScaledBasis:
    """Canonical rank-32 Barnes-Wall basis: even, unimodular, minimum 4."""
    return _glue_pair(bw16(), exlat.dual(bw16()))


@lru_cache(maxsize=None)
def bw1() -> ScaledBasis:
    """The index-2^16 sublattice of bw32 (doubled-dual copies, diagonal bw16)."""
    return _glue_pair(exlat.scale(exlat.dual(bw16()), 2), bw16())


def tower_check() -> bool:
    """Apply the pair step once more; the result must be exactly 2 * bw32.

    Pair chain: (bw16, bw16*) -> (2 bw16*, bw16) -> (2 bw16, 2 bw16*).
    """
    level2 = _glue_pair(exlat.scale(bw16(), 2),
                        exlat.scale(exlat.dual(bw16()), 2))
    return exlat.lattice_equal(level2, exlat.scale(bw32(), 2))


def phi(b: ScaledBasis) -> ScaledBasis:
    """phi*L for phi = 1 + i on the frame coordinate pairs (k, k + n/2).

    Each pair (a, c) goes to (a - c, a + c): the frame maps to itself and
    every norm doubles exactly, so phi*L = M proves L ~ M at norm scale 2.
    """
    n = b.ambient_dim
    if n % 2:
        raise ValueError("phi needs an even ambient dimension")
    h = n // 2
    rows = [[r[k] - r[k + h] for k in range(h)]
            + [r[k] + r[k + h] for k in range(h)] for r in b.mat]
    return exlat.hnf_basis(ScaledBasis.from_rows(rows, b.den, b.frame_scale))


def similarity_invariants(a: ScaledBasis, b: ScaledBasis, scale,
                          norms) -> bool:
    """Invariant-level check that a could be a norm-scale copy of b.

    Verifies det(a) = scale^rank * det(b), evenness of both, and the
    norm-profile equalities |a(scale*n)| = |b(n)| for n in norms:
    necessary conditions, never a proof (phi gives the proofs).  One
    cached histogram per lattice, out to the largest asked norm: for bw1
    and BW32 a search of their rank-16 half joined by glue class (see
    exlat._glue_plan), for other lattices one tree search.
    """
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    norms = [Fraction(n) for n in norms]
    if any(n <= 0 for n in norms):
        raise ValueError("norms must be positive")
    ga, gb = exlat.gram(exlat.hnf_basis(a)), exlat.gram(exlat.hnf_basis(b))
    if exlat.determinant(ga) != scale ** len(gb) * exlat.determinant(gb):
        return False
    if not (exlat.is_even(ga) and exlat.is_even(gb)):
        return False
    top = max(norms, default=0)
    sa, sb = exlat.shell_counts(a, scale * top), exlat.shell_counts(b, top)
    return all(sa.get(scale * n, 0) == sb.get(n, 0) for n in norms)
