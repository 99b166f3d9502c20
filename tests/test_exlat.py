"""Exact lattice layer: canonical bases, duals, and enumeration.

Enumeration counts are cross-checked against the box oracle in
_oracles, which bounds coefficients through an eigenvalue estimate and
never touches the package's search kernel.
"""

import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ, ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from bwlab import bw, cli, exlat
from bwlab.exlat import ContainmentError, ScaledBasis

from . import _oracles


def _zn(n, frame=1):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return ScaledBasis.from_rows(rows, 1, frame)


def _e8():
    # seven consecutive differences, one consecutive sum, one half-sum
    rows = []
    for i in range(7):
        r = [0] * 8
        r[i], r[i + 1] = 2, -2
        rows.append(r)
    r = [0] * 8
    r[6] = r[7] = 2
    rows.append(r)
    rows.append([1] * 8)
    return exlat.hnf_basis(ScaledBasis.from_rows(rows, 2))


# --------------------------------------------------------------------------
# canonical form


def test_hnf_collapses_redundant_generators():
    b = ScaledBasis.from_rows([[2, 0], [0, 2], [1, 1]], 1)
    assert exlat.hnf_basis(b).mat == ((1, 1), (0, 2))


def test_hnf_idempotent_on_randoms():
    rng = random.Random(20)
    for _ in range(30):
        b = _oracles.random_small_basis(rng)
        once = exlat.hnf_basis(b)
        assert exlat.hnf_basis(once) == once


def test_hnf_normalizes_denominator():
    doubled = ScaledBasis.from_rows([[2, 0], [0, 2]], 2)
    assert exlat.hnf_basis(doubled) == exlat.hnf_basis(_zn(2))


def test_from_rows_rejects_non_integral_input():
    for rows, den in (([[Fraction(1, 2), 0], [0, 1]], 1), ([[1.5, 0]], 1),
                      ([[1, 0]], 2.7), ([[1, 0]], Fraction(5, 2))):
        with pytest.raises(ValueError):
            ScaledBasis.from_rows(rows, den)
    # integral values of any numeric type are kept exactly
    b = ScaledBasis.from_rows([[Fraction(2), 0.0], [np.int64(-3), 1]], 2.0)
    assert b.mat == ((2, 0), (-3, 1)) and b.den == 2
    assert all(type(x) is int for r in b.mat for x in r) and type(b.den) is int
    # the constructor's own guards
    one = ((1,),)
    for mat, den, fs in ((one, 0, 1), ((), 1, 1), (((1, 0), (1,)), 1, 1),
                         (one, 1, 0), (one, 1, Fraction(-1, 2))):
        with pytest.raises(ValueError):
            ScaledBasis(mat, den, fs)


def test_hnf_rejects_zero_lattice():
    with pytest.raises(ValueError):
        exlat.hnf_basis(ScaledBasis.from_rows([[0, 0]], 1))


def test_unimodular_row_operations_fix_the_lattice():
    rng = random.Random(21)
    for _ in range(25):
        b = _oracles.random_small_basis(rng)
        mixed = _oracles.shuffled_basis(b, rng)
        assert exlat.lattice_equal(mixed, b)


def _random_generators(rng) -> list[list[int]]:
    """Up to 12 integer rows of up to 8 entries in [-20, 20], with zero
    rows, zero columns and rows that are combinations of earlier rows."""
    ncols = rng.randint(1, 8)
    rows = [[rng.randint(-20, 20) for _ in range(ncols)]
            for _ in range(rng.randint(1, 12))]
    for c in range(ncols):
        if rng.random() < 0.15:
            for r in rows:
                r[c] = 0
    for k in range(len(rows)):
        u = rng.random()
        if u < 0.1:
            rows[k] = [0] * ncols
        elif u < 0.3 and k:
            cs = [rng.randint(-3, 3) for _ in range(k)]
            rows[k] = [sum(c * r[j] for c, r in zip(cs, rows))
                       for j in range(ncols)]
    return rows


def _regenerated(rows, rng) -> list[list[int]]:
    """Other generators of the same row lattice: row additions, sign
    flips, a shuffle, and appended integer combinations of the rows."""
    rows = [list(r) for r in rows]
    for _ in range(20):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.randint(-4, 4)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    for _ in range(rng.randint(0, 3)):
        cs = [rng.randint(-3, 3) for _ in rows]
        rows.append([sum(c * r[j] for c, r in zip(cs, rows))
                     for j in range(len(rows[0]))])
    return rows


def test_hnf_int_rows_is_a_canonical_form_of_the_row_lattice():
    rng = random.Random(22)
    full = 0
    for _ in range(300):
        rows = _random_generators(rng)
        H = exlat.hnf_int_rows(rows)
        # the same output from any other generators of the lattice
        for _ in range(3):
            assert exlat.hnf_int_rows(_regenerated(rows, rng)) == H
        # echelon shape: strictly increasing pivot columns, positive
        # pivots, the entries above each pivot reduced into [0, pivot)
        assert len(H) == DomainMatrix.from_list(rows, ZZ).rank()
        pivots = [next(c for c, x in enumerate(r) if x) for r in H]
        assert pivots == sorted(set(pivots))
        for k, c in enumerate(pivots):
            assert H[k][c] > 0
            assert all(0 <= H[j][c] < H[k][c] for j in range(k))
        # full column rank: the covolume agrees with sympy's HNF
        if len(H) == len(rows[0]):
            full += 1
            W = hermite_normal_form(Matrix(rows).T)
            assert (Matrix(H) * Matrix(H).T).det() == (W.T * W).det()
    assert full >= 100


# --------------------------------------------------------------------------
# gram, determinant, parity


def test_gram_of_frame_scaled_z2():
    g = exlat.gram(_zn(2, frame=2))
    assert g == ((Fraction(2), Fraction(0)),
                 (Fraction(0), Fraction(2)))
    assert exlat.determinant(g) == 4
    assert exlat.is_even(g)


def test_z2_is_odd():
    assert not exlat.is_even(exlat.gram(_zn(2)))


def test_determinant_matches_float_estimate():
    rng = random.Random(22)
    for _ in range(20):
        b = _oracles.random_small_basis(rng)
        exact = exlat.determinant(exlat.gram(b))
        M = np.array(b.mat, dtype=np.float64)
        approx = np.linalg.det(M @ M.T) \
            * float(b.frame_scale) ** len(b.mat) / float(b.den) ** (2 * len(b.mat))
        assert abs(float(exact) - approx) < 1e-6 * max(1.0, abs(approx))
    with pytest.raises(ValueError, match="square"):
        exlat.determinant([[1, 2]])


def _mul(a, b):
    return [[sum(x * y for x, y in zip(r, c)) for c in zip(*b)] for r in a]


def test_solve_matches_sympy_and_is_exact():
    # A . X = d . B with d = det A, signed, on plain random, row-permuted
    # triangular (forced row swaps) and rank-deficient matrices
    rng = random.Random(31)
    singular = 0
    for trial in range(90):
        n, p = rng.randint(1, 7), rng.randint(0, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if trial % 3 == 1:
            A = [[rng.choice((-3, -2, -1, 1, 2, 3)) if i == j
                  else rng.randint(-4, 4) * (j > i) for j in range(n)]
                 for i in range(n)]
            rng.shuffle(A)
        elif trial % 3 == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            A[i] = [c * x for x in A[j]]
        B = [[rng.randint(-5, 5) for _ in range(p)] for _ in range(n)]
        X, d = exlat._solve(A, B)
        assert (X, d) == _oracles.solve_gauss_jordan(A, B)
        assert d == DomainMatrix.from_list(A, ZZ).det()
        if d == 0:
            singular += 1
            assert X is None
        else:
            assert _mul(A, X) == [[d * x for x in row] for row in B]
    assert exlat._solve([[0, 0], [0, 0]], [[1], [2]]) == (None, 0)
    assert singular >= 25
    # the Gram systems that dual solves, at rank 16 and 32: A = M M^T
    # and B = M for the canonical rows M, with large minors
    for b in (bw.bw16(), exlat.dual(bw.bw16()), bw.bw32(), bw.bw1()):
        M = [list(r) for r in exlat.hnf_basis(b).mat]
        A = [[sum(x * y for x, y in zip(u, v)) for v in M] for u in M]
        X, d = exlat._solve(A, M)
        assert (X, d) == _oracles.solve_gauss_jordan(A, M)
        assert d == DomainMatrix.from_list(A, ZZ).det() and d > 0
        assert _mul(A, X) == [[d * x for x in row] for row in M]
        assert exlat._solve(A, [()] * len(A)) == ([[]] * len(A), d)


def test_invariant_factors_match_sympy():
    rng = random.Random(32)
    for trial in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if trial % 3 == 1 and m > 1:  # rank-deficient, so a zero factor
            A[0] = [2 * x - y for x, y in zip(A[1], A[-1])]
            A[-1] = A[1][:]
        elif trial % 3 == 2:  # a sublattice with a large quotient
            A = [[rng.randint(-2, 2) * 6 for _ in range(n)] for _ in range(m)]
        want = tuple(abs(int(x)) for x in
                     invariant_factors(DomainMatrix.from_list(A, ZZ)))
        assert exlat._invariant_factors(A) == want
    assert exlat._invariant_factors([[2, 0], [0, 0]]) == (2, 0)
    assert exlat._invariant_factors([[0, 0, 0]]) == (0,)
    # a smaller-rank inner lattice still raises ContainmentError
    with pytest.raises(ContainmentError, match="smaller rank"):
        exlat.quotient_invariants(_zn(2), ScaledBasis.from_rows([[2, 0]], 1))


def test_half_integer_gram_not_even():
    b = ScaledBasis.from_rows([[1, 1], [0, 2]], 2)
    g = exlat.gram(b)
    assert g[0][0] == Fraction(1, 2)
    assert not exlat.is_even(g)


# --------------------------------------------------------------------------
# dual, quotients, containment


def test_dual_involution():
    rng = random.Random(23)
    for _ in range(20):
        b = _oracles.random_small_basis(rng)
        assert exlat.lattice_equal(exlat.dual(exlat.dual(b)), b)


def test_dual_of_unimodular():
    assert exlat.lattice_equal(exlat.dual(_zn(3)), _zn(3))


def test_dual_determinant_reciprocal():
    rng = random.Random(24)
    for _ in range(10):
        b = _oracles.random_small_basis(rng)
        d = exlat.determinant(exlat.gram(b))
        dd = exlat.determinant(exlat.gram(exlat.dual(b)))
        assert d * dd == 1


def test_quotient_invariants_2z2():
    inner = exlat.scale(_zn(2), 2)
    assert exlat.quotient_invariants(_zn(2), inner) == (2, 2)


def test_quotient_invariants_mixed():
    inner = ScaledBasis.from_rows([[1, 0], [0, 6]], 1)
    assert exlat.quotient_invariants(_zn(2), inner) == (6,)


def _random_frame_basis(rng) -> ScaledBasis:
    """Independent random rows in a frame up to three columns wider than
    the rank, with a random denominator and frame norm."""
    while True:
        rank = rng.randint(1, 6)
        width = rank + rng.randint(0, 3)
        rows = [[rng.randint(-3, 3) for _ in range(width)]
                for _ in range(rank)]
        if DomainMatrix.from_list(rows, ZZ).rank() == rank:
            return ScaledBasis.from_rows(
                rows, rng.choice([1, 2, 3, 4]),
                rng.choice([Fraction(1), Fraction(2), Fraction(1, 2)]))


def test_quotient_requires_containment():
    shifted = ScaledBasis.from_rows([[1, 1], [0, 3]], 2)
    with pytest.raises(ContainmentError):
        exlat.quotient_invariants(_zn(2), shifted)
    wide = ScaledBasis.from_rows([[1, 0, 5], [0, 1, 7]], 1)
    with pytest.raises(ValueError, match="different frames"):
        exlat.quotient_invariants(_zn(2), wide)
    with pytest.raises(ValueError, match="different frames"):
        exlat.quotient_invariants(wide, _zn(2))
    rng = random.Random(27)
    outside = 0
    for _ in range(60):
        b = _random_frame_basis(rng)
        k = len(b.mat)
        # half of one basis vector: every other row doubled, den doubled
        i = rng.randrange(k)
        rows = [[x * (1 if j == i else 2) for x in r]
                for j, r in enumerate(b.mat)]
        with pytest.raises(ContainmentError):
            exlat.quotient_invariants(
                b, ScaledBasis.from_rows(rows, 2 * b.den, b.frame_scale))
        # a frame vector outside the span, in place of a row or added
        for e in range(b.ambient_dim):
            w = [int(j == e) for j in range(b.ambient_dim)]
            if DomainMatrix.from_list([*b.mat, w], ZZ).rank() > k:
                break
        else:
            continue
        outside += 1
        for rows in ([*b.mat[:i], w, *b.mat[i + 1:]], [*b.mat, w]):
            with pytest.raises(ContainmentError):
                exlat.quotient_invariants(
                    b, ScaledBasis.from_rows(rows, b.den, b.frame_scale))
    assert outside >= 20


def _random_nonsingular(rng, k) -> list[list[int]]:
    """A random nonsingular k x k integer matrix."""
    while True:
        U = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        if DomainMatrix.from_list(U, ZZ).det():
            return U


def test_quotient_invariants_of_random_sublattices():
    # inner = U . b for nonsingular U, written over m times the
    # denominator, in frames as wide as the rank and wider: the quotient
    # is Z^k modulo the rows of U, whose invariants are sympy's Smith
    # invariants of U
    rng = random.Random(26)
    wider = 0
    for trial in range(120):
        b = _oracles.random_small_basis(rng) if trial % 2 \
            else _random_frame_basis(rng)
        wider += b.ambient_dim > len(b.mat)
        U = _random_nonsingular(rng, len(b.mat))
        m = rng.choice([1, 2, 3, 6])
        rows = [[m * x for x in r] for r in _mul(U, b.mat)]
        inner = ScaledBasis.from_rows(rows, m * b.den, b.frame_scale)
        want = tuple(abs(int(x)) for x in
                     invariant_factors(DomainMatrix.from_list(U, ZZ))
                     if abs(int(x)) != 1)
        assert exlat.quotient_invariants(b, inner) == want
        det_u = DomainMatrix.from_list(U, ZZ).det()
        assert exlat.determinant(exlat.gram(inner)) \
            == det_u ** 2 * exlat.determinant(exlat.gram(b))
    assert wider >= 40


def test_lattice_equal_requires_same_frame():
    assert not exlat.lattice_equal(_zn(2), _zn(2, frame=2))


def test_scale_and_rescale_metric():
    b = _zn(2)
    assert exlat.minimum_norm(exlat.scale(b, 2)) == 4
    assert exlat.minimum_norm(exlat.scale(b, Fraction(1, 2))) == Fraction(1, 4)
    assert exlat.minimum_norm(exlat.rescale_metric(b, 2)) == 2
    with pytest.raises(ValueError):
        exlat.scale(b, 0)


def _gram_schmidt(rows):
    """Exact Gram-Schmidt: the squared norms |b*_i|^2 and the mu_ij."""
    star, norms = [], []
    mu = [[Fraction(0)] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(x * y for x, y in zip(row, star[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return norms, mu


def test_lll_preserves_lattice_and_shortens():
    delta = Fraction(9, 10)
    rng = random.Random(25)
    for _ in range(15):
        b = _oracles.random_small_basis(rng)
        mixed = _oracles.shuffled_basis(b, rng, steps=40)
        red = exlat.lll_reduce(mixed)
        assert exlat.lattice_equal(red, b)
        def longest(s):
            return max(sum(x * x for x in row) for row in s.mat)
        assert longest(red) <= longest(mixed)
        # size reduced, and the Lovasz condition holds at delta = 9/10
        norms, mu = _gram_schmidt(red.mat)
        for i in range(len(norms)):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
            if i:
                assert norms[i] >= (delta - mu[i][i - 1] ** 2) * norms[i - 1]


def test_lll_matches_sympy_row_for_row():
    # the search tree, its node counts and the generated_by_norm_vectors
    # witness all depend on the reduced basis, not only on the lattice
    rng = random.Random(27)
    delta = QQ(9, 10)
    for b in (bw.bw16(), exlat.dual(bw.bw16()), bw.bw32(), bw.bw1()):
        bb = exlat.hnf_basis(b)
        want = DomainMatrix.from_list(list(bb.mat), ZZ).lll(delta=delta)
        assert [list(r) for r in exlat.lll_reduce(bb).mat] == want.to_list()
        for _ in range(4):
            rows = [list(r) for r in _oracles.shuffled_basis(bb, rng).mat]
            rng.shuffle(rows)
            want = DomainMatrix.from_list(rows, ZZ).lll(delta=delta)
            assert exlat._lll(rows) == want.to_list()


def test_lll_rejects_dependent_rows():
    for rows in ([[1, 0], [2, 0]], [[0, 0], [1, 0]],
                 [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(ValueError, match="dependent"):
            exlat._lll(rows)


@pytest.mark.parametrize("name, norm, hist", [
    ("bw16", 8, {8: 4320, 12: 61440, 16: 522720}),
    pytest.param("bw32", 4, {32: 146880}, marks=pytest.mark.slow),
])
def test_search_histograms_on_the_reduced_basis(name, norm, hist):
    bb = exlat.hnf_basis(getattr(bw, name)())
    assert dict(exlat._shells(bb, int(exlat._frame_norm(bb, norm)))) == hist


def _level_counts(monkeypatch, b, n):
    """Children per tree level, r-1 down to 0, of one uncached tree
    search of b out to norm n."""
    levels = {}
    expand = exlat._expand_stage

    def counted(L, i, *args):
        out = expand(L, i, *args)
        if out is not None:
            levels[i] = levels.get(i, 0) + len(out[0])
        return out

    monkeypatch.setattr(exlat, "_expand_stage", counted)
    bb = exlat.hnf_basis(b)
    exlat._tree_shells(bb, int(exlat._frame_norm(bb, n)))
    return [levels[i] for i in sorted(levels, reverse=True)]


def test_bw16_tree_level_by_level(monkeypatch):
    # the pruned tree itself: a kernel change that moved one boundary
    # node, by reordering a float operation, would move these counts
    levels = _level_counts(monkeypatch, bw.bw16(), 8)
    assert levels == [5, 22, 91, 362, 1172, 3213, 7786, 15553, 27314, 44727,
                      57017, 86725, 136207, 184015, 242118, 294241]
    assert sum(levels) == 1100568
    levels = _level_counts(monkeypatch, bw.bw16(), 6)
    assert len(levels) == 16 and sum(levels) == 164923


# sha256 over the blocks that _search yields for BW16 out to norm 8, in
# order: V.tobytes(), S.tobytes() and V.dtype.str of each; the rows pin
# below holds their content, this one also their grouping into blocks
BW16_BLOCKS_DIGEST = \
    "4ff033fbd02aa3f753bdd00b51db7dab866dc539c9f739ba6293c0f6733d7823"


def test_bw16_search_blocks_pinned():
    b = bw.bw16()
    h = hashlib.sha256()
    blocks = 0
    for V, S in exlat._search(b, int(exlat._frame_norm(b, 8))):
        h.update(V.tobytes())
        h.update(S.tobytes())
        h.update(V.dtype.str.encode())
        blocks += 1
    assert blocks == 43
    assert h.hexdigest() == BW16_BLOCKS_DIGEST


# sha256 over the rows [V | S] (int64) of the same search, lexsorted, so
# that it holds whatever the grouping and order of the blocks
BW16_ROWS_DIGEST = \
    "46802aa19d2327a196e06f3b5a40c0e4dd341d8a041f9ebeb717eba8e58d8ae2"


def test_bw16_search_rows_pinned():
    b = bw.bw16()
    rows = np.concatenate([
        np.column_stack([V.astype(np.int64), S])
        for V, S in exlat._search(b, int(exlat._frame_norm(b, 8)))])
    rows = rows[np.lexsort(rows.T[::-1])]
    assert rows.shape == ((4320 + 61440 + 522720) // 2, 17)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == BW16_ROWS_DIGEST


@pytest.mark.slow
@pytest.mark.parametrize("name, norm, nodes", [
    ("bw32", 4, 7789291),
    ("bw1", 8, 7715363),
])
def test_rank32_tree_sizes(monkeypatch, name, norm, nodes):
    levels = _level_counts(monkeypatch, getattr(bw, name)(), norm)
    assert len(levels) == 32 and sum(levels) == nodes


# --------------------------------------------------------------------------
# glue split: lattices whose two frame halves project to one lattice P


def _no_tree(b, T):
    raise AssertionError("the tree ran")


def _no_split(plan, T):
    raise AssertionError("the split ran")


@pytest.mark.parametrize("norm", [2, 4, 6, 8, 10])
def test_bw16_split_matches_the_tree(monkeypatch, norm):
    bb = exlat.hnf_basis(bw.bw16())
    T = int(exlat._frame_norm(bb, norm))
    tree = exlat._tree_shells(bb, T)
    monkeypatch.setattr(exlat, "_tree_shells", _no_tree)
    assert dict(exlat._shells.__wrapped__(bb, T)) == tree
    assert sum(tree.values()) == [0, 4320, 65760, 588480, 2800320][norm // 2 - 1]


def _keys(plan, V):
    """The left and right keys of the half vectors V under plan."""
    _, Ge, _, A, radix = plan
    W = np.mod(np.asarray(V, dtype=np.int64) @ A.astype(np.int64), Ge)
    return W[:, :len(radix)] @ radix, W[:, len(radix):] @ radix


@pytest.mark.parametrize("name", ["bw16", "bw16-dual", "bw32", "bw1"])
def test_split_keys_match_exactly_on_the_pairs_of_the_lattice(name):
    # a pair (p, q) of half vectors lies in L exactly when the left key
    # of p equals the right key of q; membership by the HNF of L's rows
    # with (p, q) added, which no key arithmetic enters
    b = exlat.dual(bw.bw16()) if name == "bw16-dual" else getattr(bw, name)()
    bb = exlat.hnf_basis(b)
    plan = exlat._glue_plan(bb)
    assert plan is not None
    P = plan[0]
    half = [r for V, S in exlat._search(P, 2 * min(
        sum(x * x for x in r) for r in exlat.lll_reduce(P).mat))
        for r in V.tolist()]
    half = [[0] * len(half[0])] + half + [[-x for x in r] for r in half]
    left, right = _keys(plan, half)
    rng = random.Random(39)
    want = [list(r) for r in bb.mat]
    seen = set()
    for _ in range(150):
        i, j = rng.randrange(len(half)), rng.randrange(len(half))
        member = exlat.hnf_int_rows(want + [half[i] + half[j]]) == want
        assert (left[i] == right[j]) == member
        seen.add(member)
        # every p has a partner in its own key class, and it is one
        k = int(np.flatnonzero(right == left[i])[0])
        assert exlat.hnf_int_rows(want + [half[i] + half[k]]) == want
    assert seen == {True, False}


def _plan_digest(plan):
    """sha256 of a glue plan: P, Ge, top, and A's and radix's bytes."""
    P, Ge, top, A, radix = plan
    h = hashlib.sha256(repr((P, Ge, top, A.shape)).encode())
    h.update(A.tobytes())
    h.update(radix.tobytes())
    return h.hexdigest()


GLUE_PLAN_DIGESTS = {
    "bw16": "aa47077d678a203df5f2ee6ee75e2dcb0ed8717c6badcc41f9ba139894fd1413",
    "bw16-dual":
        "48dae8b4ad68059793b05993ebe00aee8c23bc207de51574a9bbf3615151673c",
    "bw32": "d4874902d75fcfeb606a9e2b8ec0a2e59dd093e52f1eeb70900d06020d4109c7",
    "bw1": "9a603ff46427a9fa2534a2e8fde3c6f93b12fdc4bf27ab7e958ba1e444005fc2",
    "sqrt2-bw16-dual":
        "1dfea7b213db352695ed81803e50d75679f3a59467a6d39c3f833279cfcadf37",
    "random-glue-pairs":
        "a6da3c36f95f8a233459e0d7a3b9e28ed7c932d87bfbf503b774f937db971747",
}


def test_glue_plans_pinned():
    # the plan's every output, bit for bit: P, the modulus, the key bound
    # and the float64 key and radix matrices
    dual16 = exlat.dual(bw.bw16())
    named = {"bw16": bw.bw16(), "bw16-dual": dual16, "bw32": bw.bw32(),
             "bw1": bw.bw1(),
             "sqrt2-bw16-dual": exlat.rescale_metric(dual16, 2)}
    got = {k: _plan_digest(exlat._glue_plan(exlat.hnf_basis(b)))
           for k, b in named.items()}
    rng = random.Random(40)
    h, pow2, n = hashlib.sha256(), set(), 0
    while n < 20:
        a = _oracles.random_small_basis(rng, 3)
        d = _oracles.random_small_basis(rng, 3)
        if a.ambient_dim != d.ambient_dim:
            continue
        bb = bw._glue_pair(a, d)
        if len(bb.mat) != bb.ambient_dim:
            continue
        plan = exlat._glue_plan(bb)
        h.update(_plan_digest(plan).encode())
        pow2.add(plan[1] & (plan[1] - 1) == 0)
        n += 1
    got["random-glue-pairs"] = h.hexdigest()
    assert got == GLUE_PLAN_DIGESTS
    # power-of-two and other moduli both occur among the random pairs
    assert pow2 == {True, False}


def test_random_glue_pairs_split_matches_the_box_oracle(monkeypatch):
    # (A + A) + {(v, v) : v in D} for small random A and D; the tree is
    # stubbed out, so every histogram here is the split's
    monkeypatch.setattr(exlat, "_tree_shells", _no_tree)
    rng = random.Random(43)
    moduli, checked = set(), 0
    while checked < 120:
        a = _oracles.random_small_basis(rng, 3)
        d = _oracles.random_small_basis(rng, 3)
        if a.ambient_dim != d.ambient_dim:
            continue
        bb = bw._glue_pair(a, d)
        if len(bb.mat) != bb.ambient_dim or len(bb.mat) > 6:
            continue
        plan = exlat._glue_plan(bb)
        moduli.add(plan[1] & (plan[1] - 1) == 0)
        step = bb.frame_scale / (bb.den * bb.den)
        for mult in (1, 2, 3, 5, 8):
            try:
                want = _oracles.box_norm_histogram(bb, step * mult)
            except ValueError:  # past the box oracle's size limit
                break
            T = int(exlat._frame_norm(bb, step * mult))
            assert dict(exlat._shells.__wrapped__(bb, T)) == want
            checked += 1
    # both the mask and the np.remainder key paths ran
    assert moduli == {True, False}


@pytest.mark.slow
@pytest.mark.parametrize("name, norm, hist", [
    ("bw32", 2, {}),
    ("bw32", 4, {32: 146880}),
    ("bw1", 8, {16: 146880}),
])
def test_rank32_split_matches_the_tree(monkeypatch, name, norm, hist):
    bb = exlat.hnf_basis(getattr(bw, name)())
    T = int(exlat._frame_norm(bb, norm))
    assert exlat._tree_shells(bb, T) == hist
    monkeypatch.setattr(exlat, "_tree_shells", _no_tree)
    assert dict(exlat._shells.__wrapped__(bb, T)) == hist


@pytest.mark.parametrize("rows, den", [
    ([[1, 0], [0, 2]], 1),              # halves Z and 2Z
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1),  # odd dimension
    ([[1, 1, 0, 0], [0, 1, 1, 0]], 2),  # rank below the dimension
    ([[2, 1, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 3]], 1),
])
def test_lattices_without_a_split_take_the_tree(monkeypatch, rows, den):
    b = ScaledBasis.from_rows(rows, den)
    bb = exlat.hnf_basis(b)
    assert exlat._glue_plan(bb) is None
    monkeypatch.setattr(exlat, "_glue_shells", _no_split)
    for mult in (1, 2, 5, 9):
        n = Fraction(mult, den * den)
        assert dict(exlat._shells.__wrapped__(bb, int(exlat._frame_norm(bb, n)))) \
            == _oracles.box_norm_histogram(b, n)


def test_split_falls_back_to_the_tree_past_its_exact_range():
    # {(x, y) in Z^4 + Z^4 : y = x mod (p_1, .., p_4)} for four primes
    # near 2^13: one glue class per residue, about 2^52 of them, so the
    # keys would pass 2^53 and the tree counts.  Below norm 2 * 8191^2
    # its vectors are the (x, x), r_4(m) of them at norm 2m
    primes = (8191, 8209, 8219, 8221)
    rows = [[int(i == j) for j in range(4)] * 2 for i in range(4)]
    rows += [[0] * 4 + [p * (i == j) for j in range(4)]
             for i, p in enumerate(primes)]
    bb = exlat.hnf_basis(ScaledBasis.from_rows(rows))
    plan = exlat._glue_plan(bb)
    assert plan is not None and plan[1] == math.prod(primes)
    for T in (8, 1 << 60):
        assert exlat._glue_shells(plan, T) is None
    assert dict(exlat._shells(bb, 8)) == {2 * m: _r4(m) for m in (1, 2, 3, 4)}


# --------------------------------------------------------------------------
# enumeration


def test_enumerate_z1():
    assert exlat.enumerate_norm(_zn(1), 4) == 2
    assert exlat.enumerate_norm(_zn(1), 3) == 0


def test_enumerate_z2():
    assert exlat.enumerate_norm(_zn(2), 1) == 4
    assert exlat.enumerate_norm(_zn(2), 2) == 4
    assert exlat.enumerate_norm(_zn(2), 25) == 12  # 3-4-5 triangles + axes


def test_enumerate_z4_norm4():
    # (+-2,0,0,0) x 4 positions x 2 signs, (+-1,+-1,+-1,+-1) x 16
    assert exlat.enumerate_norm(_zn(4), 4) == 24


def test_enumerate_respects_frame_scale():
    b = _zn(2, frame=2)
    assert exlat.enumerate_norm(b, 2) == 4
    assert exlat.enumerate_norm(b, 1) == 0
    assert exlat.enumerate_norm(b, 3) == 0  # off the even grid


def test_e8_classical_theta_counts():
    e8 = _e8()
    g = exlat.gram(e8)
    assert exlat.determinant(g) == 1
    assert exlat.is_even(g)
    assert exlat.minimum_norm(e8) == 2
    assert exlat.enumerate_norm(e8, 2) == 240
    assert exlat.enumerate_norm(e8, 4) == 2160
    assert exlat.enumerate_norm(e8, 6) == 6720
    assert exlat.generated_by_norm_vectors(e8, 2)


def test_enumerate_matches_box_oracle():
    rng = random.Random(26)
    for _ in range(25):
        b = _oracles.random_small_basis(rng)
        step = b.frame_scale / (b.den * b.den)
        oracle = {}
        for mult in (1, 2, 3, 5, 8):
            n = step * mult
            oracle[n] = _oracles.box_norm_count(b, n)
            assert exlat.enumerate_norm(b, n) == oracle[n]
        shells = exlat.shell_counts(b, 3 * step)
        assert shells == {n: oracle[n] for n in (step, 2 * step, 3 * step)
                          if oracle[n]}
        if shells:
            assert exlat.minimum_norm(b) == min(shells)
        else:
            assert exlat.minimum_norm(b) > 3 * step


def _canonical_den(b):
    """Denominator of hnf_basis(b): b.den over its gcd with every entry."""
    return b.den // math.gcd(b.den, *(x for r in b.mat for x in r))


def _kept_rows(b, n):
    """The norm-n rows streamed by an uncached search out to norm n: one
    row of each pair {v, -v}, in units of 1/den of the canonical basis."""
    bb = exlat.hnf_basis(b)
    t = exlat._frame_norm(bb, n)
    if t.denominator != 1:
        return []
    return [r for V, S in exlat._search(bb, int(t))
            for r in V[S == int(t)].tolist()]


def test_streamed_rows_match_box_oracle():
    # the vectors themselves, not only their number
    rng = random.Random(27)
    for _ in range(25):
        b = _oracles.random_small_basis(rng)
        step = b.frame_scale / (b.den * b.den)
        # the oracle works in units of 1/b.den, the search in units of
        # 1/den of the canonical basis, and that den divides b.den
        k = b.den // _canonical_den(b)
        for mult in (1, 2, 3, 5):
            half = [tuple(k * x for x in r) for r in _kept_rows(b, step * mult)]
            both = half + [tuple(-x for x in r) for r in half]
            assert sorted(both) == _oracles.box_norm_vectors(b, step * mult)


def _both_signs(bb, T):
    """The uncached tree histogram and the sorted norm-T rows with their
    negatives of the search of the canonical basis bb out to radius T."""
    hist = exlat._tree_shells(bb, T)
    half = [tuple(r) for V, S in exlat._search(bb, T)
            for r in V[S == T].tolist()]
    return hist, sorted(half + [tuple(-x for x in r) for r in half])


def _split_cases():
    """(bb, T, k, want) for 20 random small lattices at three norms each,
    want their box-oracle rows at scale k, and BW16 at norm 6 (want None)."""
    cases = []
    rng = random.Random(29)
    for _ in range(20):
        b = _oracles.random_small_basis(rng)
        bb = exlat.hnf_basis(b)
        step = b.frame_scale / (b.den * b.den)
        for mult in (2, 5, 8):
            t = exlat._frame_norm(bb, step * mult)
            if t.denominator == 1:
                cases.append((bb, int(t), b.den // bb.den,
                              _oracles.box_norm_vectors(b, step * mult)))
    bw16 = exlat.hnf_basis(bw.bw16())
    cases.append((bw16, int(exlat._frame_norm(bw16, 6)), 1, None))
    return cases


def test_chunk_split_matches_unchunked_and_box_oracle(monkeypatch):
    # tiny chunks split almost every level, so leaves rebuild their
    # coordinates through parent levels that many chunks share
    cases = _split_cases()
    # the reference never splits: BW16 at norm 6 outgrows the default chunk
    monkeypatch.setattr(exlat, "_CHUNK", 1 << 30)
    whole = [_both_signs(bb, T) for bb, T, _, _ in cases]
    monkeypatch.setattr(exlat, "_CHUNK", 7)
    for (bb, T, k, want), (hist, rows) in zip(cases, whole):
        assert _both_signs(bb, T) == (hist, rows)
        if want is not None:
            assert [tuple(k * x for x in r) for r in rows] == want
    assert len(cases) > 40 and len(whole[-1][1]) == 61440


@pytest.mark.parametrize("chunk", [None, 7])
def test_window_rebuild_matches_whole_window(monkeypatch, chunk):
    # a one-row window rebuilds the centre terms by GEMM before every
    # level; a window of 1 << 30 is built once, at the root, and carries
    # all r rows down by rank-1 updates alone
    if chunk is not None:
        monkeypatch.setattr(exlat, "_CHUNK", chunk)
    cases = _split_cases()
    monkeypatch.setattr(exlat, "_WINDOW", 1 << 30)
    whole = [_both_signs(bb, T) for bb, T, _, _ in cases]
    monkeypatch.setattr(exlat, "_WINDOW", 1)
    for (bb, T, k, want), (hist, rows) in zip(cases, whole):
        assert _both_signs(bb, T) == (hist, rows)
        if want is not None:
            assert [tuple(k * x for x in r) for r in rows] == want
    assert len(cases) > 40 and len(whole[-1][1]) == 61440


def test_in_place_level_step_matches_the_fresh_array_step(monkeypatch):
    # every stage of BW16 at norm 8, and of the _split_cases searches cut
    # into 7-node slices, runs through both steps: the outputs agree bit
    # for bit, and the step leaves its inputs, which sibling slices
    # share, as they were
    step = exlat._expand_stage
    seen = {"stages": 0, "free": 0, "childless": 0}

    def both(L, i, C, PN, free, r2):
        C0, PN0 = C.copy(), PN.copy()
        got = step(L, i, C, PN, free, r2)
        assert np.array_equal(C, C0) and np.array_equal(PN, PN0)
        want = _oracles._expand_stage(L, i, C, PN, free, r2)
        seen["stages"] += 1
        seen["free"] += free
        if want is None:
            seen["childless"] += 1
            assert got is None
            return got
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w) and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        return got

    monkeypatch.setattr(exlat, "_expand_stage", both)
    b = exlat.hnf_basis(bw.bw16())
    assert exlat._tree_shells(b, int(exlat._frame_norm(b, 8))) \
        == {8: 4320, 12: 61440, 16: 522720}
    assert seen["free"] == 16
    monkeypatch.setattr(exlat, "_CHUNK", 7)
    for bb, T, k, want in _split_cases():
        _, rows = _both_signs(bb, T)
        if want is not None:
            assert [tuple(k * x for x in r) for r in rows] == want
    assert seen["stages"] > 50000 and seen["childless"] > 0


@pytest.mark.parametrize("chunk", [7, 64])
def test_children_split_into_equal_slices(monkeypatch, chunk):
    # each expansion above the leaves is pushed as ceil(n / _CHUNK) slices
    # whose sizes differ by at most 1; a slice's PN is a view of its
    # parent expansion's PN, which is how the slices are matched up
    monkeypatch.setattr(exlat, "_CHUNK", chunk)
    step = exlat._expand_stage
    pending = {}  # id of an expansion's PN: [that PN, its slices' sizes]
    split = 0

    def recorded(L, i, C, PN, free, r2):
        nonlocal split
        if PN.base is not None:
            parent, sizes = pending[id(PN.base)]
            sizes.append(len(PN))
            if sum(sizes) == len(parent):
                del pending[id(PN.base)]
                assert len(sizes) == -(-len(parent) // chunk)
                assert max(sizes) <= chunk and max(sizes) - min(sizes) <= 1
                split += len(sizes) > 1
        out = step(L, i, C, PN, free, r2)
        if out is not None and i > 0:
            pending[id(out[3])] = (out[3], [])
        return out

    monkeypatch.setattr(exlat, "_expand_stage", recorded)
    cases = _split_cases()
    for bb, T, k, want in cases:
        _, rows = _both_signs(bb, T)
        assert not pending
        if want is not None:
            assert [tuple(k * x for x in r) for r in rows] == want
    assert len(rows) == 61440 and split > 100


def _r4(n):
    """Jacobi: the number of x in Z^4 with |x|^2 = n is 8 * sum of the
    divisors d of n with 4 not dividing d."""
    return 8 * sum(d for d in range(1, n + 1) if n % d == 0 and d % 4)


def _scrambled_kz4(k, rng):
    """A basis of k*Z^4 from row operations that keep U's entries in
    {-1, 0, 1}, so every entry of k*U is at most k in size."""
    U = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(40):
        i, j = rng.sample(range(4), 2)
        sign = rng.choice((1, -1))
        row = [a + sign * b for a, b in zip(U[i], U[j])]
        if max(map(abs, row)) <= 1:
            U[i] = row
    return ScaledBasis.from_rows([[k * x for x in r] for r in U])


@pytest.mark.parametrize("chunk, window, split", [
    pytest.param(None, None, False, id="None"),
    pytest.param(7, None, False, id="7"),
    pytest.param(None, 1, False, id="None-window1"),
    pytest.param(7, 1, False, id="7-window1"),
    pytest.param(None, None, True, id="None-split"),
    pytest.param(7, None, True, id="7-split"),
    pytest.param(None, 1, True, id="None-window1-split"),
    pytest.param(7, 1, True, id="7-window1-split"),
])
def test_large_radius_matches_jacobi_four_squares(monkeypatch, chunk, window,
                                                  split):
    # radii up to the kernel's 2^40 limit, where the float slack
    # ENUM_MARGIN is far below one ulp of the radius; a one-row window
    # takes every centre term from the GEMM rebuild.  k Z^4 has the halves
    # k Z^2 + 0 and 0 + k Z^2, a trivial glue, so through _shells it takes
    # the split, whose join must stay sparse out to 2^40; the tree is
    # stubbed out there to prove it
    if chunk is not None:
        monkeypatch.setattr(exlat, "_CHUNK", chunk)
    if window is not None:
        monkeypatch.setattr(exlat, "_WINDOW", window)
    shells = exlat._shells.__wrapped__ if split else exlat._tree_shells
    if split:
        monkeypatch.setattr(exlat, "_tree_shells", _no_tree)
    rng = random.Random(30)
    radii = []
    for k in (1, 3, 1000, (1 << 16) + 1, (1 << 18) - 1, 1 << 19,
              (1 << 19) + 1):
        b = _scrambled_kz4(k, rng)
        assert max(abs(x) for r in b.mat for x in r) <= 1 << 20
        bb = exlat.hnf_basis(b)
        assert bb.den == 1 and exlat.determinant(exlat.gram(bb)) == k ** 8
        top = min(24, (1 << 40) // (k * k))
        for n in sorted({1, 2, 3, top}):
            if n > top:
                continue
            hist = dict(shells(bb, k * k * n))
            assert hist == {k * k * m: _r4(m) for m in range(1, n + 1)}
            radii.append(k * k * n)
    assert len(radii) == 27 and max(radii) == 1 << 40


def _skewed_rows(rng):
    """A lower-triangular integer basis at the edge of LLL reduction:
    every mu is +-1/2, and the Gram-Schmidt lengths fall by 0.81 to 0.97
    a row, near the Lovasz bound at delta 9/10.  The search reduces any
    basis it is given (HNF, then LLL), so a long row nearly parallel to a
    short one never reaches the tree; skew of this kind is what can."""
    r = rng.randint(2, 4)
    h = [rng.randrange(8, 40, 2)]
    for _ in range(r - 1):
        h.append(max(2, 2 * round(h[-1] * rng.uniform(0.81, 0.97) / 2)))
    return np.array([[rng.choice((1, -1)) * h[m] // 2 for m in range(j)]
                     + [h[j]] + [0] * (r - 1 - j) for j in range(r)],
                    dtype=np.int64)


def _attained_radius(M, rng):
    """One of the six least norms n of the nonzero {-1, 0, 1} combinations
    of M's rows, and the largest k that keeps k*M's entries within 2^20
    and k*k*n within 2^40."""
    attained = sorted({int(v @ v) for v in (
        np.array(x) @ M for x in itertools.product((-1, 0, 1), repeat=len(M)))
        if v.any()})
    n = rng.choice(attained[:6])
    return n, min((1 << 20) // int(np.abs(M).max()),
                  math.isqrt((1 << 40) // n))


@pytest.mark.parametrize("chunk", [None, 7])
def test_skewed_bases_at_attained_radii_match_box_oracle(monkeypatch, chunk):
    # every vector of norm T sits on the pruning boundary, and at k_max
    # the radius nears 2^40, where ENUM_MARGIN is below one ulp of it
    if chunk is not None:
        monkeypatch.setattr(exlat, "_CHUNK", chunk)
    rng = random.Random(31)
    radii = []
    for _ in range(20):
        M = _skewed_rows(rng)
        n, k_max = _attained_radius(M, rng)
        for k in (1, k_max):
            b = ScaledBasis.from_rows(k * M)
            bb = exlat.hnf_basis(b)
            assert bb.den == 1
            T = k * k * n
            assert _both_signs(bb, T) == (_oracles.box_norm_histogram(b, T),
                                          _oracles.box_norm_vectors(b, T))
            radii.append(T)
    assert max(radii) > 1 << 38


def _wide():
    return ScaledBasis.from_rows([[1 << 20, 0], [0, 1]])


def _sheared():
    """The vectors (2a + b, 40b, 0) under norm 2^40; the LLL basis
    (-2, 0, 0), (-1, 40, 0), (1, 0, 2^20) has mu = +1/2."""
    return ScaledBasis.from_rows([[2, 0, 0], [1, 40, 0], [1, 0, 1 << 20]])


def _stacked():
    """The vectors (20a, 19b, 0, ...) under norm 2^40; LLL keeps the rows
    in order, so b is set one level above the leaves."""
    return ScaledBasis.from_rows(
        [[20] + [0] * 7, [0, 19] + [0] * 6]
        + [[0] * k + [1 << 20] + [0] * (7 - k) for k in range(2, 8)])


def _plane_hist(T, u, v, ka, kb):
    """Norm histogram, 0 < n <= T, of the a u + b v with |a| <= ka and
    |b| <= kb."""
    a, b = np.meshgrid(np.arange(-ka, ka + 1), np.arange(-kb, kb + 1))
    n = (a * u[0] + b * v[0]) ** 2 + (a * u[1] + b * v[1]) ** 2
    norms, counts = np.unique(n[(n > 0) & (n <= T)], return_counts=True)
    return dict(zip(norms.tolist(), counts.tolist()))


@pytest.mark.parametrize("lattice, T, bound, hist", [
    (bw.bw16, 12, np.int32, {8: 4320, 12: 61440}),  # out to norm 6
    # r * max|x| * max|M| is 2 * 1023 * 2^20 < 2^31 out to 1023^2 and
    # reaches 2^31 out to 1024^2
    (_wide, 1023 ** 2, np.int32, {k * k: 2 for k in range(1, 1024)}),
    (_wide, 1024 ** 2, np.int64, {k * k: 2 for k in range(1, 1025)}),
    # 3 * 683 * 2^20 >= 2^31: the leaf -683 b0 + b1 has norm
    # 1365^2 + 40^2 <= T, while the free branch stops at 682 b0 (norm
    # 1364^2), so only the negative side shows max|x| = 683
    (_sheared, 1865000, np.int64,
     _plane_hist(1865000, (2, 0), (1, 40), 700, 35)),
    # 8 * 256 * 2^20 = 2^31: b reaches 256 one level above the leaves,
    # whose own coordinates stop at a = 243
    (_stacked, 4864 ** 2, np.int64,
     _plane_hist(4864 ** 2, (20, 0), (0, 19), 250, 260)),
])
def test_leaf_dtype_follows_the_overflow_bound(monkeypatch, lattice, T,
                                               bound, hist):
    # bound is the least integer type that holds r * max|x| * max|M| over
    # the leaves' coordinates x, which the float64 GEMM bounds by 2^53;
    # V keeps only rows of norm <= T <= 2^40, whose entries are at most
    # 2^20, so it is int32 on either side of 2^31
    bb = exlat.hnf_basis(lattice())
    rank = len(bb.mat)
    walked = []
    coords = exlat._coords

    def recorded(levels, j):
        X = coords(levels, j)
        if len(levels) == rank:
            walked.append(int(np.abs(X).max()))
        return X

    monkeypatch.setattr(exlat, "_coords", recorded)
    got, dtypes = {}, set()
    for V, S in exlat._search(bb, T):
        dtypes.add(V.dtype)
        for t in S.tolist():
            got[t] = got.get(t, 0) + 2
    assert dtypes == {np.dtype(np.int32)} and got == hist
    mmax = max(abs(x) for row in exlat.lll_reduce(bb).mat for x in row)
    assert (rank * max(walked) * mmax < 1 << 31) == (bound is np.int32)


def test_leaf_gemm_guard_raises_and_exits_2(monkeypatch, tmp_path, capsys):
    # _wide's leaves reach r * max|x| * max|M| = 2 * 1024 * 2^20 = 2^31
    # out to 1024^2, so a guard lowered to 2^31 stops that search alone
    monkeypatch.setattr(exlat, "_EXACT", 1 << 31)
    exlat._shells.cache_clear()
    assert exlat.enumerate_norm(_wide(), 1023 ** 2) == 2
    with pytest.raises(ValueError, match="leaf coordinates"):
        exlat.enumerate_norm(_wide(), 1024 ** 2)
    path = tmp_path / "wide.lat"
    exlat.write_lattice(_wide(), path)
    assert cli.main(["lattice", "enumerate", "--file", str(path), "--norm",
                     str(1024 ** 2), "--count-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "leaf coordinates" in captured.err


def test_rank2_shells_at_the_longer_lll_row_match_the_plane_oracle():
    # bases [[p, q], [u, d - u]] with u near 2^15 to 2^18: the longer LLL
    # row lies on the pruning boundary at radii of about 2^31 to 2^38.
    # The first lost its LLL row (-354276, 177139), of norm T near
    # 1.14 * 2^37, to an absolute float slack of 1e-6, below one ulp of T
    rng = random.Random(37)
    cases = [(1, 2, 295230, -1)]
    for e in (15, 16, 17, 18):
        for _ in range(60):
            p, q, d = (rng.randint(-3, 3) for _ in range(3))
            cases.append((p, q, rng.randint(1 << e, 1 << e + 1), d))
    radii = []
    for p, q, u, d in cases:
        if p * (d - u) == q * u:
            continue
        b = ScaledBasis.from_rows([[p, q], [u, d - u]])
        bb = exlat.hnf_basis(b)
        T = max(sum(x * x for x in r) for r in exlat.lll_reduce(bb).mat)
        assert bb.den == 1 and T <= 1 << 40
        hist, rows = _both_signs(bb, T)
        assert rows == _oracles.plane_norm_vectors(b, T)
        assert hist[T] == len(rows)
        if not radii:
            assert T == 156889709497
            assert rows == [(-354276, 177139), (354276, -177139)]
        radii.append(T)
    assert len(radii) > 200 and max(radii) > 1 << 38


def _gemm_cases():
    """(canonical basis, T) for BW16 at norm 6, also scaled by the odd
    k = 2^18 - 1 (basis entries near 2^19, radius near 2^40), the three
    overflow-bound cases above and seeded skewed bases at attained radii,
    k = 1 and k_max as in the skewed test."""
    bw16 = exlat.hnf_basis(bw.bw16())
    big = exlat.hnf_basis(exlat.scale(bw16, (1 << 18) - 1))
    cases = [(bw16, int(exlat._frame_norm(bw16, 6))),
             (big, int(exlat._frame_norm(big, 6 * ((1 << 18) - 1) ** 2))),
             (exlat.hnf_basis(_wide()), 1024 ** 2),
             (exlat.hnf_basis(_sheared()), 1865000),
             (exlat.hnf_basis(_stacked()), 4864 ** 2)]
    rng = random.Random(32)
    for _ in range(10):
        M = _skewed_rows(rng)
        n, k_max = _attained_radius(M, rng)
        for k in (1, k_max):
            cases.append((exlat.hnf_basis(ScaledBasis.from_rows(k * M)),
                          k * k * n))
    return cases


@pytest.mark.parametrize("chunk", [None, 64])
def test_float_gemm_leaves_match_the_int64_einsum(monkeypatch, chunk):
    # each leaf slice's coordinates X, recorded from the walk, give the
    # int64 reference X^T @ mat with einsum norms; the float64 GEMM must
    # keep exactly its rows of norm 0 < t <= T, in order, with the same
    # norms.  At chunk 64 most leaf stages span several 16-leaf slices
    if chunk is not None:
        monkeypatch.setattr(exlat, "_CHUNK", chunk)
    coords = exlat._coords
    rank, leaves = [0], []

    def recorded(levels, j):
        X = coords(levels, j)
        if len(levels) == rank[0]:
            leaves.append(X)
        return X

    monkeypatch.setattr(exlat, "_coords", recorded)
    cases, bounds = _gemm_cases(), []
    for bb, T in cases:
        M = np.array(exlat.lll_reduce(bb).mat, dtype=np.int64)
        rank[0] = len(M)
        leaves.clear()
        blocks = list(exlat._search(bb, T))
        assert len(blocks) > 0
        for V, S in blocks:
            assert V.dtype == np.int32 and S.dtype == np.int64
        ref_V, ref_S = [], []
        for X in leaves:
            Xi = X.astype(np.int64)
            assert np.array_equal(Xi, X)
            bounds.append(len(M) * int(np.abs(Xi).max())
                          * int(np.abs(M).max()))
            W = Xi.T @ M
            N = np.einsum("ij,ij->i", W, W)
            ok = (N > 0) & (N <= T)
            ref_V.append(W[ok])
            ref_S.append(N[ok])
        assert np.array_equal(np.concatenate([V for V, _ in blocks]),
                              np.concatenate(ref_V))
        assert np.array_equal(np.concatenate([S for _, S in blocks]),
                              np.concatenate(ref_S))
    # the leaf products lie on both sides of the int32 bound 2^31
    assert min(bounds) < 1 << 31 <= max(bounds)
    blocks = list(exlat._search(*cases[0]))
    assert sum(len(S) for _, S in blocks) == (4320 + 61440) // 2


def _search_peak_bytes(b, n, shells=exlat._tree_shells):
    """tracemalloc peak of one uncached histogram of b out to norm n, by
    the tree unless shells says otherwise."""
    bb = exlat.hnf_basis(b)
    T = int(exlat._frame_norm(bb, n))
    exlat.lll_reduce(bb)  # cached, so the reduction is not traced
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        shells(bb, T)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_bw16_norm8_search_memory():
    # one stage holds at most _CHUNK parents and their children, with at
    # most _WINDOW centre rows each: about 4.9 MiB
    assert _search_peak_bytes(bw.bw16(), 8) <= 6.5 * (1 << 20)


@pytest.mark.slow
def test_bw32_norm4_search_memory():
    # about 7.2 MiB; a stage that carried all its i centre rows took 16.2 MiB
    assert _search_peak_bytes(bw.bw32(), 4) <= 12 << 20


def test_bw32_norm4_split_memory(monkeypatch):
    # the half's search out to norm 4, keyed and counted one block at a
    # time: about 6.5 MiB, against 7.1 MiB for the rank-32 tree
    monkeypatch.setattr(exlat, "_tree_shells", _no_tree)
    assert _search_peak_bytes(bw.bw32(), 4, exlat._shells.__wrapped__) \
        <= 12 << 20


def test_streamed_rows_and_shell_counts_agree():
    # counts read the cached histogram; the streamed rows come from a
    # second, uncached walk
    for lattice in (_e8(), bw.bw16()):
        norms = (2, 4, 6, 8)
        counts = {Fraction(n): exlat.enumerate_norm(lattice, n) for n in norms}
        for n in norms:
            assert 2 * len(_kept_rows(lattice, n)) == counts[n]
        assert exlat.shell_counts(lattice, 8) == {
            n: c for n, c in counts.items() if c}


def test_enumerate_input_validation():
    with pytest.raises(TypeError):
        exlat.enumerate_norm(_zn(2), 2.0)
    with pytest.raises(ValueError):
        exlat.enumerate_norm(_zn(2), 0)
    with pytest.raises(ValueError):
        exlat.enumerate_norm(_zn(2), -2)
    with pytest.raises(ValueError, match="norm target"):
        exlat.enumerate_norm(_zn(2), 2 ** 41)
    assert exlat.shell_counts(_zn(2), Fraction(1, 2)) == {}
    with pytest.raises(ValueError):
        exlat.generated_by_norm_vectors(_zn(2), 0)


def test_enumerate_rejects_huge_entries():
    big = ScaledBasis.from_rows([[1 << 21]], 1)
    with pytest.raises(ValueError):
        exlat.enumerate_norm(big, 2)


def test_generated_by_norm_vectors_z2():
    assert exlat.generated_by_norm_vectors(_zn(2), 1)
    # norm-2 vectors (+-1, +-1) span only the checkerboard sublattice
    assert not exlat.generated_by_norm_vectors(_zn(2), 2)


def test_generated_by_norm_vectors_falls_back_to_the_search():
    # the LLL rows of Z^2 have norm 1, so no norm-5 witness exists; the
    # search finds (1, 2) and (2, -1), which generate Z^2
    z2 = _zn(2)
    assert all(sum(x * x for x in r) == 1 for r in exlat.lll_reduce(z2).mat)
    assert exlat.generated_by_norm_vectors(z2, 5)


def test_generated_by_norm_vectors_stops_the_stream_early(monkeypatch):
    # E8's LLL rows have norm 2, so no norm-4 witness exists; the search
    # stops once the streamed norm-4 rows span E8, before its last block
    e8 = _e8()
    assert all(sum(x * x for x in r) == 8 for r in exlat.lll_reduce(e8).mat)
    monkeypatch.setattr(exlat, "_CHUNK", 7)
    T = int(exlat._frame_norm(e8, 4))
    blocks = list(exlat._search(e8, T))
    rows = [r for V, S in blocks for r in V[S == T].tolist()]
    assert len(rows) == 2160 // 2 and _generates(e8, rows)
    read = 0
    search = exlat._search

    def counted(*args):
        nonlocal read
        for block in search(*args):
            read += 1
            yield block

    monkeypatch.setattr(exlat, "_search", counted)
    assert exlat.generated_by_norm_vectors(e8, 4)
    assert 0 < read < len(blocks)


def _generates(b, rows) -> bool:
    """Do rows (units of 1/b.den) generate b?  Covolume by HNF; the rows
    of b.mat are independent, so they are a basis."""
    if len(rows) == 0:
        return False
    H = hermite_normal_form(Matrix(rows).T)
    if H.shape[1] != len(b.mat):
        return False
    M = Matrix(b.mat)
    return (H.T * H).det() == (M * M.T).det()


def test_generated_by_norm_vectors_matches_hnf_oracle():
    rng = random.Random(28)
    seen = set()
    for _ in range(30):
        b = _oracles.random_small_basis(rng)
        step = b.frame_scale / (b.den * b.den)
        for mult in (1, 2, 3, 4, 5):
            n = step * mult
            want = _generates(b, _oracles.box_norm_vectors(b, n))
            assert exlat.generated_by_norm_vectors(b, n) == want
            seen.add(want)
    assert seen == {True, False}


def test_minimum_norm_values():
    assert exlat.minimum_norm(_zn(2)) == 1
    assert exlat.minimum_norm(_zn(2, frame=2)) == 2
    # no cap on the radius: scaled lattices search the same tree
    assert exlat.minimum_norm(exlat.scale(_zn(1), 10)) == 100
    assert exlat.minimum_norm(exlat.scale(bw.bw16(), 5)) == 100


def test_minimum_norm_reuses_the_kissing_search():
    exlat.enumerate_norm(bw.bw16(), 4)
    before = exlat._shells.cache_info()
    assert exlat.minimum_norm(bw.bw16()) == 4
    after = exlat._shells.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# --------------------------------------------------------------------------
# files


def test_lattice_file_roundtrip(tmp_path):
    b = ScaledBasis.from_rows([[1, 1, 0], [0, 2, 1]], 2, Fraction(2))
    path = tmp_path / "l.lat"
    exlat.write_lattice(b, path)
    head = path.read_text().splitlines()[0].split()
    assert len(head) == 4  # frame_scale recorded only when not 1
    back = exlat.read_lattice(path)
    assert back.frame_scale == Fraction(2)
    assert exlat.lattice_equal(back, b)


def test_lattice_file_omits_unit_frame(tmp_path):
    path = tmp_path / "z.lat"
    exlat.write_lattice(_zn(2), path)
    assert path.read_text().splitlines()[0] == "2 2 1"
    assert exlat.lattice_equal(exlat.read_lattice(path), _zn(2))


def test_lattice_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.lat"
    bad.write_text("2 2\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        exlat.read_lattice(bad)
    bad.write_text("2 2 1\n1 0\n0 1 5\n")
    with pytest.raises(ValueError):
        exlat.read_lattice(bad)
    bad.write_text("2 3 1\n1 0 0\n0 1 0\n0 0 1\n")  # a row past the rank
    with pytest.raises(ValueError):
        exlat.read_lattice(bad)
    bad.write_text("2 2 1 1/0\n1 0\n0 1\n")
    with pytest.raises(ValueError):
        exlat.read_lattice(bad)
