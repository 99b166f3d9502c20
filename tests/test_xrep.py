"""Extraspecial 2-group representations via signed Kronecker chains."""

import numpy as np
import pytest

from bwlab import xrep


def test_closure_orders():
    assert [len(xrep.closure(xrep.extraspecial_plus(m)))
            for m in range(1, 5)] == [8, 32, 128, 512]


def test_closure_contains_identity_and_center():
    for m in (1, 2, 3):
        dim = 2 ** m
        elements = xrep.closure(xrep.extraspecial_plus(m))
        eye = np.eye(dim, dtype=np.int64)
        assert any((g == eye).all() for g in elements)
        assert any((g == -eye).all() for g in elements)


def test_every_element_has_order_dividing_four():
    for g in xrep.closure(xrep.extraspecial_plus(2)):
        g4 = g @ g @ g @ g
        assert (g4 == np.eye(4, dtype=np.int64)).all()


def test_squares_are_central():
    eye = np.eye(8, dtype=np.int64)
    for g in xrep.closure(xrep.extraspecial_plus(3)):
        sq = g @ g
        assert (sq == eye).all() or (sq == -eye).all()


def test_char_norm_is_one_for_the_standard_module():
    assert [xrep.char_norm(xrep.extraspecial_plus(m))
            for m in range(1, 5)] == [1, 1, 1, 1]


def test_central_product_sizes_and_norms():
    for m in (1, 2):
        h = xrep.extraspecial_plus(m)
        prod = xrep.central_product(h, h)
        assert prod.dim == (2 ** m) ** 2
        # centers get identified: |A| * |B| / 2 = 2^(1+4m)
        assert len(xrep.closure(prod)) == 2 ** (1 + 4 * m)
        assert xrep.char_norm(prod) == 1


def test_block_double_is_reducible():
    doubled = xrep.block_double(xrep.extraspecial_plus(2))
    assert doubled.dim == 8
    assert xrep.char_norm(doubled) == 4


def test_closure_cap(monkeypatch):
    monkeypatch.setattr(xrep, "CLOSURE_CAP", 10)
    with pytest.raises(xrep.ClosureCapError):
        xrep.closure(xrep.extraspecial_plus(3))


def test_extraspecial_range():
    with pytest.raises(ValueError):
        xrep.extraspecial_plus(0)
    with pytest.raises(ValueError):
        xrep.extraspecial_plus(5)


def test_generators_are_signed_permutations():
    g = xrep.extraspecial_plus(3)
    for mat in g.generators:
        arr = np.abs(np.array(mat))
        assert (arr.sum(axis=0) == 1).all()
        assert (arr.sum(axis=1) == 1).all()


def test_matrix_group_rejects_singular_generator():
    with pytest.raises(ValueError):
        xrep.MatrixGroup.from_arrays([np.zeros((2, 2), dtype=np.int64)])
    # exact determinant 0, but the float determinant rounds to a nonzero value
    big = 1 << 53
    near = ((3 * big, big), (3 * big + 3, big + 1))
    with pytest.raises(ValueError, match="singular"):
        xrep.MatrixGroup((near,), 2)


def test_matrix_group_rejects_flat_generator():
    # one matrix passed where the tuple of generators belongs
    with pytest.raises(ValueError, match="shape"):
        xrep.MatrixGroup(((0, 1), (1, 0)), 2)
    with pytest.raises(ValueError, match="shape"):
        xrep.MatrixGroup((((0, 1), (1,)),), 2)


def test_char_norm_counts_trace_squares():
    # dihedral-of-8 closure: traces are (+-2, 0 x 6); sum 8 over order 8
    elements = xrep.closure(xrep.extraspecial_plus(1))
    total = sum(int(np.trace(g)) ** 2 for g in elements)
    assert total // len(elements) == xrep.char_norm(xrep.extraspecial_plus(1))
