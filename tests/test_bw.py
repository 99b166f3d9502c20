"""The rank-16 and rank-32 constructions and the index-2^16 tower step.

The rank-32 tree searches at norm 4 and beyond are marked slow;
everything else stays under a few seconds.
"""

from fractions import Fraction

import pytest

from bwlab import bw, exlat


def test_bw16_shape():
    b = bw.bw16()
    assert len(b.mat) == 16
    assert b.den == 2
    assert b.frame_scale == 2


def test_bw16_determinant():
    assert exlat.determinant(exlat.gram(bw.bw16())) == 2 ** 8


def test_bw16_even():
    assert exlat.is_even(exlat.gram(bw.bw16()))


def test_bw16_dual_quotient():
    inv = exlat.quotient_invariants(exlat.dual(bw.bw16()), bw.bw16())
    assert inv == (2,) * 8


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
    rep = bw.similarity_invariants(
        exlat.rescale_metric(exlat.dual(bw.bw16()), 2), bw.bw16(), 1,
        norms=(2, 4, 6, 8))
    assert rep.det_ok and rep.even_ok and rep.norms_ok and rep.all_ok
    assert [cb for _, _, cb in rep.norm_counts] == [0, 4320, 61440, 522720]


def test_similarity32_norm2_profile():
    rep = bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, norms=(2,))
    assert rep.all_ok


def test_similarity_detects_mismatch():
    rep = bw.similarity_invariants(bw.bw16(), bw.bw16(), 2, norms=(2,))
    assert not rep.det_ok
    assert not rep.all_ok


def test_similarity_rejects_bad_scale():
    with pytest.raises(ValueError):
        bw.similarity_invariants(bw.bw16(), bw.bw16(), 0)
    with pytest.raises(ValueError):
        bw.similarity_invariants(bw.bw16(), bw.bw16(), Fraction(-1, 2))


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
    assert exlat._search(bb, int(exlat._frame_norm(bb, 2))) == ({}, [])
    assert 0 < nodes <= 30000


@pytest.mark.slow
def test_similarity32_full_profile():
    rep = bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, norms=(2, 4))
    assert rep.all_ok
    assert [cb for _, _, cb in rep.norm_counts] == [0, 146880]
