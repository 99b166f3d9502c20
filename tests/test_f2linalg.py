"""Bit-packed GF(2) matrices, codes, and the length-16 RM(1,4) code."""

import random

import pytest

from bwlab import f2linalg as fl

from . import _oracles


def test_vec_bits_roundtrip():
    assert fl.vec_from_bits((1, 0, 1, 1)) == 0b1101
    assert fl.vec_to_bits(0b1101, 4) == (1, 0, 1, 1)
    for x in range(64):
        assert fl.vec_from_bits(fl.vec_to_bits(x, 6)) == x


def test_identity_rank_and_inverse():
    m = fl.F2Matrix.identity(7)
    assert fl.rank(m) == 7
    assert m.mul(m) == m


def test_rank_drops_on_dependent_rows():
    for rows in ([[1, 0, 1], [0, 1, 1], [1, 1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        m = fl.F2Matrix.from_rows(rows)
        assert fl.rank(m) == 2
        # the image of x -> m x has 2^rank elements
        assert len({_oracles.mul_vec(m, x) for x in range(8)}) == 4


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 10)
        m = _oracles.random_invertible(n, rng)
        assert fl.rank(m) == n
        # x -> m x is a bijection of F2^n, so an inverse exists
        assert len({_oracles.mul_vec(m, x) for x in range(1 << n)}) == 1 << n


def test_mul_vec_agrees_with_matrix_mul():
    rng = random.Random(11)
    m = _oracles.random_invertible(6, rng)
    for x in range(64):
        col = fl.F2Matrix(6, 1, tuple((x >> i) & 1 for i in range(6)))
        expect = fl.vec_from_bits(m.mul(col).bits)
        assert _oracles.mul_vec(m, x) == expect


def test_transpose_involution():
    rng = random.Random(3)
    m = _oracles.random_invertible(5, rng)
    assert m.transpose().transpose() == m


def test_rm14_dimension():
    assert fl.rank(fl.rm14()) == 5


def test_rm14_codeword_count():
    words = fl.enumerate_codewords(fl.rm14())
    assert len(words) == 32
    assert len(set(words)) == 32
    assert 0 in words and 0xFFFF in words


def test_rm14_weight_distribution():
    assert fl.weight_enumerator(fl.rm14()) == {0: 1, 8: 30, 16: 1}


def test_rm14_closed_under_addition():
    words = set(fl.enumerate_codewords(fl.rm14()))
    for a in words:
        for b in words:
            assert (a ^ b) in words


def test_enumeration_guard():
    gens = fl.F2Matrix.identity(fl.MAX_ENUM_DIM + 1)
    with pytest.raises(ValueError):
        fl.enumerate_codewords(gens)
