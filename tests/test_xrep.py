"""Extraspecial 2-group representations via signed Kronecker chains."""

from functools import reduce

import numpy as np
import pytest

from bwlab import xrep
from ._oracles import closure_by_queue, dense_closure, signed_perm_matrix

GROUPS = {
    **{f"plus-{m}": (lambda m=m: xrep.extraspecial_plus(m)) for m in range(1, 5)},
    **{f"central-{m}": (lambda m=m: xrep.central_product(
        xrep.extraspecial_plus(m), xrep.extraspecial_plus(m))) for m in (1, 2)},
    "double-2": lambda: xrep.block_double(xrep.extraspecial_plus(2)),
    # no generators: the identity alone, character norm 3^2 / 1
    "trivial-3": lambda: xrep.MatrixGroup((), 3),
}


def _dense_elements(g):
    return [signed_perm_matrix(e) for e in xrep.closure(g)]


@pytest.mark.parametrize("name", GROUPS)
def test_closure_matches_dense_oracle(name):
    g = GROUPS[name]()
    elements = xrep.closure(g)
    oracle = dense_closure([signed_perm_matrix(x) for x in g.generators], g.dim)
    # same elements in the same breadth-first order, identity first
    assert len(elements) == len(oracle)
    for e, m in zip(elements, oracle):
        assert (signed_perm_matrix(e) == m).all()
    # the squared traces of the dense matrices, summed exactly
    total = sum(int(np.trace(m)) ** 2 for m in oracle)
    assert xrep.char_norm(g) * len(oracle) == total


QUEUE_GROUPS = {
    **{f"plus-{m}": (lambda m=m: xrep.extraspecial_plus(m)) for m in range(1, 7)},
    **{k: v for k, v in GROUPS.items() if not k.startswith("plus-")},
}


@pytest.mark.parametrize("name", QUEUE_GROUPS)
def test_closure_matches_the_fifo_queue(name):
    # the layer-at-a-time closure lists the elements the per-element
    # queue meets, in the order it meets them
    g = QUEUE_GROUPS[name]()
    elements = xrep.closure(g)
    assert elements == closure_by_queue(g)
    assert all(type(x) is int for e in elements for x in e)


def test_generators_match_dense_kronecker_products():
    x = np.array([[0, 1], [1, 0]])
    z = np.array([[1, 0], [0, -1]])
    eye2 = np.eye(2, dtype=np.int64)

    def dense(g):
        return [signed_perm_matrix(a) for a in g.generators]

    def same(got, expected):
        assert len(got) == len(expected)
        assert all((a == b).all() for a, b in zip(got, expected))

    for m in range(1, 5):
        h = xrep.extraspecial_plus(m)
        same(dense(h), [reduce(np.kron, [p if j == i else eye2 for j in range(m)])
                        for i in range(m) for p in (x, z)])
        if m <= 2:
            eye = np.eye(h.dim, dtype=np.int64)
            same(dense(xrep.central_product(h, h)),
                 [np.kron(a, eye) for a in dense(h)]
                 + [np.kron(eye, a) for a in dense(h)])
        if m == 2:
            zero = np.zeros((4, 4), dtype=np.int64)
            same(dense(xrep.block_double(h)),
                 [np.block([[a, zero], [zero, a]]) for a in dense(h)])


def test_closure_orders():
    assert [len(xrep.closure(xrep.extraspecial_plus(m)))
            for m in range(1, 5)] == [8, 32, 128, 512]


def test_closure_contains_identity_and_center():
    for m in (1, 2, 3):
        eye = np.eye(2 ** m, dtype=np.int64)
        elements = _dense_elements(xrep.extraspecial_plus(m))
        assert (elements[0] == eye).all()
        assert any((g == -eye).all() for g in elements)


def test_every_element_has_order_dividing_four():
    for g in _dense_elements(xrep.extraspecial_plus(2)):
        g4 = g @ g @ g @ g
        assert (g4 == np.eye(4, dtype=np.int64)).all()


def test_squares_are_central():
    eye = np.eye(8, dtype=np.int64)
    for g in _dense_elements(xrep.extraspecial_plus(3)):
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
    # built before the patch: the range check reads the cap too.  The cap
    # is the largest order allowed: 32 closes 2^(1+4), 31 does not
    g = xrep.extraspecial_plus(2)
    monkeypatch.setattr(xrep, "CLOSURE_CAP", 32)
    assert len(xrep.closure(g)) == 32 and xrep.char_norm(g) == 1
    monkeypatch.setattr(xrep, "CLOSURE_CAP", 31)
    for fn in (xrep.closure, xrep.char_norm):
        with pytest.raises(xrep.ClosureCapError, match="cap 31"):
            fn(g)


def test_extraspecial_range():
    with pytest.raises(ValueError):
        xrep.extraspecial_plus(0)
    with pytest.raises(ValueError, match="closure cap 8192"):
        xrep.extraspecial_plus(7)
    h = xrep.extraspecial_plus(5)
    assert len(xrep.closure(h)) == 2048 and xrep.char_norm(h) == 1


def test_generators_are_signed_permutations():
    for g in xrep.extraspecial_plus(3).generators:
        arr = np.abs(signed_perm_matrix(g))
        assert (arr.sum(axis=0) == 1).all()
        assert (arr.sum(axis=1) == 1).all()


@pytest.mark.parametrize("gen", [(1, 1), (0, 2), (3, 1), (1, 2, 3), (2,)],
                         ids=["repeated", "zero", "out-of-range",
                              "too-long", "too-short"])
def test_matrix_group_rejects_non_signed_permutation(gen):
    with pytest.raises(ValueError, match="signed permutation"):
        xrep.MatrixGroup((gen,), 2)


def test_matrix_group_rejects_dimension_zero():
    with pytest.raises(ValueError, match="at least 1"):
        xrep.MatrixGroup((), 0)


def test_matrix_group_rejects_flat_generator():
    # one generator passed where the tuple of generators belongs
    with pytest.raises(ValueError, match="signed permutation"):
        xrep.MatrixGroup((2, 1), 2)
    # a dense matrix is not a signed permutation either
    with pytest.raises(ValueError, match="signed permutation"):
        xrep.MatrixGroup((((0, 1), (1, 0)),), 2)


def test_char_norm_counts_trace_squares():
    # dihedral-of-8 closure: traces are (+-2, 0 x 6); sum 8 over order 8
    elements = _dense_elements(xrep.extraspecial_plus(1))
    assert sorted(int(np.trace(g)) for g in elements) == [-2] + [0] * 6 + [2]
    total = sum(int(np.trace(g)) ** 2 for g in elements)
    assert total // len(elements) == xrep.char_norm(xrep.extraspecial_plus(1))
