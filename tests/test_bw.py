"""The rank-16 and rank-32 constructions and the index-2^16 tower step.

The two rank-32 tree searches, BW32 out to norm 4 and bw1 out to
norm 8, are marked slow;
everything else stays under a few seconds.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from bwlab import bw, exlat, verify
from bwlab.exlat import ScaledBasis

from . import _oracles


def test_bw16_shape():
    b = bw.bw16()
    assert len(b.mat) == 16
    assert b.den == 2
    assert b.frame_scale == 2


# sha256 of repr((mat, den, frame_scale)) of each canonical basis
BASIS_DIGESTS = {
    "bw16": "f92d395ff15339ba2acaa756c045a12cbe1c85fec244c6b887fcfda4806673f0",
    "bw32": "9cc2b0f57d40ef78dfd42f1a79ec8b0c52675786ad151f76fa79df723fcff392",
    "bw1": "635d05536f68221cc048b1ef1d35699521bbf922fbae13fe611637f9dd6c37d6",
}


@pytest.mark.parametrize("name", sorted(BASIS_DIGESTS))
def test_canonical_bases_pinned(name):
    b = getattr(bw, name)()
    text = repr((b.mat, b.den, b.frame_scale)).encode()
    assert hashlib.sha256(text).hexdigest() == BASIS_DIGESTS[name]


def test_bw16_determinant():
    assert exlat.determinant(exlat.gram(bw.bw16())) == 2 ** 8


def test_bw16_even():
    assert exlat.is_even(exlat.gram(bw.bw16()))


def test_bw16_dual_quotient():
    inv = exlat.quotient_invariants(exlat.dual(bw.bw16()), bw.bw16())
    assert inv == (2,) * 8


def test_glue_pair_matches_the_direct_sum_reference():
    # the three pair steps of the tower, then random small pairs
    b16 = bw.bw16()
    d16 = exlat.dual(b16)
    pairs = [(b16, d16), (exlat.scale(d16, 2), b16),
             (exlat.scale(b16, 2), exlat.scale(d16, 2))]
    rng = random.Random(41)
    while len(pairs) < 40:
        left = _oracles.random_small_basis(rng)
        diag = _oracles.random_small_basis(rng)
        if left.ambient_dim == diag.ambient_dim:
            pairs.append((left, diag))
    for left, diag in pairs:
        assert bw._glue_pair(left, diag) \
            == _oracles.glue_by_direct_sum(left, diag)


def test_bw16_minimum():
    assert exlat.minimum_norm(bw.bw16()) == 4


def test_bw16_kissing():
    assert exlat.enumerate_norm(bw.bw16(), 4) == 4320


def test_bw16_generated_by_minimal_vectors():
    assert exlat.generated_by_norm_vectors(bw.bw16(), 4)


def test_bw16_theta_profile():
    b = bw.bw16()
    counts = [exlat.enumerate_norm(b, n) for n in (2, 4, 6, 8)]
    assert counts == [0, 4320, 61440, 522720]


def test_bw32_determinant_and_parity():
    g = exlat.gram(bw.bw32())
    assert exlat.determinant(g) == 1
    assert exlat.is_even(g)


def test_bw32_self_dual():
    assert exlat.lattice_equal(exlat.dual(bw.bw32()), bw.bw32())


def test_bw32_has_no_norm2_vectors():
    assert exlat.enumerate_norm(bw.bw32(), 2) == 0


def test_bw1_sits_inside_bw32_with_quotient_2_16():
    assert exlat.determinant(exlat.gram(bw.bw1())) == 2 ** 32
    assert exlat.quotient_invariants(bw.bw32(), bw.bw1()) == (2,) * 16


def test_tower_closes_on_doubled_lattice():
    assert bw.tower_check()


def test_similarity16_full_profile():
    assert bw.similarity_invariants(
        exlat.rescale_metric(exlat.dual(bw.bw16()), 2), bw.bw16(), 1,
        (2, 4, 6, 8))


def test_similarity32_norm2_profile():
    assert bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, (2,))


def _d4_fourfold():
    # D4^4 in the unit frame: even, det 4^4 = 256 like BW16, but 96 roots
    rows = []
    for blk in range(4):
        o = 4 * blk
        for i, j, sign in ((0, 1, 1), (0, 1, -1), (1, 2, -1), (2, 3, -1)):
            row = [0] * 16
            row[o + i], row[o + j] = 1, sign
            rows.append(row)
    return ScaledBasis.from_rows(rows)


def test_similarity_detects_mismatch():
    # wrong determinant
    assert not bw.similarity_invariants(bw.bw16(), bw.bw16(), 2, (2,))
    # same determinant and parity, different norm-2 shell
    d4 = _d4_fourfold()
    assert exlat.determinant(exlat.gram(d4)) == 256
    assert not bw.similarity_invariants(d4, bw.bw16(), 1, (2,))


def test_similarity_rejects_an_odd_lattice():
    # det(a) = 2 = 2^1 det(b), so the determinant test passes and the
    # parity test decides: a has Gram (2), b has Gram (1) and is odd
    a = ScaledBasis(((1,),), 1, 2)
    b = ScaledBasis(((1,),), 1)
    assert exlat.determinant(exlat.gram(a)) == 2
    assert exlat.is_even(exlat.gram(a)) and not exlat.is_even(exlat.gram(b))
    assert not bw.similarity_invariants(a, b, 2, (1,))


def test_similarity_rejects_bad_scale():
    with pytest.raises(ValueError):
        bw.similarity_invariants(bw.bw16(), bw.bw16(), 0, (2,))
    with pytest.raises(ValueError):
        bw.similarity_invariants(bw.bw16(), bw.bw16(), Fraction(-1, 2), (2,))
    # the norms are checked before the determinant, which differs here
    with pytest.raises(ValueError, match="norms"):
        bw.similarity_invariants(bw.bw16(), bw.bw32(), 2, (0,))


# --------------------------------------------------------------------------
# the exact similarity witness phi = 1 + i


def _pair_map(b, pairs):
    """(a, c) -> (a - c, a + c) on the listed coordinate pairs only."""
    rows = []
    for r in b.mat:
        out = list(r)
        for k, m in pairs:
            out[k], out[m] = r[k] - r[m], r[k] + r[m]
        rows.append(out)
    return exlat.hnf_basis(ScaledBasis.from_rows(rows, b.den, b.frame_scale))


def _half_pairs(n):
    return [(k, k + n // 2) for k in range(n // 2)]


def test_phi_doubles_norms_exactly():
    rng = random.Random(20021)
    for _ in range(200):
        n = 2 * rng.randint(1, 16)
        row = [rng.randint(-9, 9) for _ in range(n)]
        if not any(row):
            continue
        b = ScaledBasis.from_rows([row], rng.choice([1, 2, 4]),
                                  rng.choice([1, 2, Fraction(1, 3)]))
        assert exlat.gram(bw.phi(b))[0][0] == 2 * exlat.gram(b)[0][0]


def test_phi_is_the_half_pairing():
    for b in (bw.bw16(), bw.bw32()):
        assert bw.phi(b) == _pair_map(b, _half_pairs(b.ambient_dim))


def test_adjacent_pairing_also_witnesses():
    for src, dst in ((exlat.dual(bw.bw16()), bw.bw16()),
                     (bw.bw32(), bw.bw1())):
        pairs = [(2 * k, 2 * k + 1) for k in range(src.ambient_dim // 2)]
        assert exlat.lattice_equal(_pair_map(src, pairs), dst)


@pytest.mark.parametrize("control", ["identity", "one-pair", "random"])
def test_phi_controls_fail(control):
    rng = random.Random(2008)
    for src, dst in ((exlat.dual(bw.bw16()), bw.bw16()),
                     (bw.bw32(), bw.bw1())):
        n = src.ambient_dim
        if control == "identity":
            image = src
        elif control == "one-pair":
            image = _pair_map(src, _half_pairs(n)[:1])
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = list(zip(perm[0::2], perm[1::2]))
            image = _pair_map(src, pairs)
        assert not exlat.lattice_equal(image, dst)


def test_phi_rejects_odd_dimension():
    with pytest.raises(ValueError):
        bw.phi(ScaledBasis.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_phi_recursion_builds_bw1():
    # {(u, u + phi v) : u, v in BW16}: the Barnes-Wall step over Z[i]
    b, p = bw.bw16(), bw.phi(bw.bw16())
    den = math.lcm(b.den, p.den)
    rows = [[x * (den // b.den) for x in r + r] for r in b.mat]
    rows += [[0] * 16 + [x * (den // p.den) for x in r] for r in p.mat]
    glued = ScaledBasis.from_rows(rows, den, bw.FRAME)
    assert exlat.lattice_equal(glued, bw.bw1())


def test_fast_similarity_checks_run_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a similarity check ran a tree search")

    monkeypatch.setattr(exlat, "_search", no_search)
    monkeypatch.setattr(exlat, "_shells", no_search)
    checks = {c.id: c for c in verify.checks()}
    for cid in ("lattice.similarity16", "lattice.similarity32"):
        res = verify.run_check(checks[cid])
        assert res["pass"], res["actual"]


@pytest.mark.slow
def test_bw32_kissing():
    assert exlat.enumerate_norm(bw.bw32(), 4) == 146880


@pytest.mark.slow
def test_bw32_minimum():
    assert exlat.minimum_norm(bw.bw32()) == 4


def test_bw32_generated_by_minimal_vectors(monkeypatch):
    # the minimal LLL rows are the witness, so no tree search runs
    s2dual = exlat.rescale_metric(exlat.dual(bw.bw16()), 2)
    s2min = exlat.minimum_norm(s2dual)

    def no_search(*args, **kwargs):
        raise AssertionError("the LLL witness failed; a tree search ran")

    monkeypatch.setattr(exlat, "_search", no_search)
    assert exlat.generated_by_norm_vectors(bw.bw16(), 4)
    assert exlat.generated_by_norm_vectors(bw.bw32(), 4)
    assert exlat.generated_by_norm_vectors(s2dual, s2min)


def test_bw32_norm2_tree_size(monkeypatch):
    # LLL at delta 9/10 halves this tree (52532 nodes at delta 3/4)
    nodes = 0
    expand = exlat._expand_stage

    def counted(*args):
        nonlocal nodes
        out = expand(*args)
        if out is not None:
            nodes += len(out[0])
        return out

    monkeypatch.setattr(exlat, "_expand_stage", counted)
    bb = exlat.hnf_basis(bw.bw32())
    assert exlat._tree_shells(bb, int(exlat._frame_norm(bb, 2))) == {}
    assert 0 < nodes <= 30000


@pytest.mark.slow
def test_similarity32_full_profile():
    assert bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, (2, 4))
