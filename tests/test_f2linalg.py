"""Bit-packed GF(2) matrices, codes, and the length-16 RM(1,4) code."""

import random
from itertools import product

import pytest

from bwlab import f2linalg as fl

from . import _oracles


def test_vec_bits_roundtrip():
    assert fl.vec_from_bits((1, 0, 1, 1)) == 0b1101
    assert fl.vec_to_bits(0b1101, 4) == (1, 0, 1, 1)
    for x in range(64):
        assert fl.vec_from_bits(fl.vec_to_bits(x, 6)) == x


def test_matrix_shape_is_checked():
    with pytest.raises(ValueError):
        fl.F2Matrix(2, 2, (4, 0))  # bit 2 is past the two columns
    with pytest.raises(ValueError):
        fl.F2Matrix(2, 2, (1,))


def test_identity_rank_and_inverse():
    m = _oracles.identity(7)
    assert fl.rank(m) == 7
    assert m.transpose() == m
    assert _oracles.mat_mul(m, m) == m


def test_rank_drops_on_dependent_rows():
    for rows in ([[1, 0, 1], [0, 1, 1], [1, 1, 0]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]):
        m = fl.F2Matrix.from_rows(rows)
        assert fl.rank(m) == 2
        # the image of x -> m x has 2^rank elements
        assert len({_oracles.mul_vec(m, x) for x in range(8)}) == 4
    # random shapes and every rank: rows drawn from the span of k vectors
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        rows, cols, k = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 9)
        span = [rng.getrandbits(cols) for _ in range(k)]
        bits = []
        for _ in range(rows):
            v = 0
            for g in span:
                v ^= g if rng.getrandbits(1) else 0
            bits.append(v)
        m = fl.F2Matrix(rows, cols, tuple(bits))
        r = fl.rank(m)
        image = {_oracles.mul_vec(m, x) for x in range(1 << cols)}
        assert len(image) == 1 << r, (m, r)
        assert r == fl.rank(m.transpose())
        # the echelon behind rank: distinct leading bits, descending
        echelon = []
        picked = [v for v in bits if fl.extend_echelon(echelon, v)]
        leads = [row.bit_length() for row in echelon]
        assert len(picked) == r and leads == sorted(set(leads), reverse=True)
        seen.add(r)
    assert seen >= set(range(9))


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
        expect = fl.vec_from_bits(_oracles.mat_mul(m, col).bits)
        assert _oracles.mul_vec(m, x) == expect


@pytest.mark.parametrize("rows", [
    [[1, 0], [2, 1]],
    [[1, 3]],
    [[-1, 0]],
    [[1, 0, 1], [1]],
    [[1], [0, 1]],
], ids=["entry-2", "entry-3", "entry-minus-1", "short-row", "long-row"])
def test_from_rows_rejects_bad_entries_and_ragged_rows(rows):
    with pytest.raises(ValueError):
        fl.F2Matrix.from_rows(rows)
    if all(len(r) == len(rows[0]) for r in rows):
        with pytest.raises(ValueError):
            fl.vec_from_bits([b for r in rows for b in r])


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
    # lexicographic in the message over the independent rows, first slowest;
    # the repeated and zero rows of the second matrix are skipped
    gens = fl.rm14().bits
    dependent = fl.F2Matrix(8, 16, (0, gens[1], gens[1], gens[0], gens[1] ^ gens[0],
                                    gens[4], gens[2], gens[3]))
    for m, basis in ((fl.rm14(), gens),
                     (dependent, (gens[1], gens[0], gens[4], gens[2], gens[3]))):
        expect = []
        for msg in product((0, 1), repeat=len(basis)):
            w = 0
            for bit, g in zip(msg, basis):
                w ^= g if bit else 0
            expect.append(w)
        assert fl.enumerate_codewords(m) == expect


def test_rm14_weight_distribution():
    assert fl.weight_enumerator(fl.rm14()) == {0: 1, 8: 30, 16: 1}


def test_rm14_closed_under_addition():
    words = set(fl.enumerate_codewords(fl.rm14()))
    for a in words:
        for b in words:
            assert (a ^ b) in words


def test_enumeration_guard():
    gens = _oracles.identity(fl.MAX_ENUM_DIM + 1)
    with pytest.raises(ValueError):
        fl.enumerate_codewords(gens)
