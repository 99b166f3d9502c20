"""Quadratic spaces over GF(2): counts, Arf type, transports, isometries."""

import random
import time

import pytest

from bwlab import f2linalg as fl
from bwlab import f2quad as fq

from . import _oracles


def _random_upper(rng, dim):
    rows = []
    for i in range(dim):
        bits = 0
        for j in range(i, dim):
            bits |= rng.randint(0, 1) << j
        rows.append(bits)
    return fq.QuadSpace(dim, fl.F2Matrix(dim, dim, tuple(rows)))


def test_hyperbolic_singular_counts():
    assert tuple(fq.singular_count(fq.hyperbolic(m))
                 for m in range(1, 6)) == (2, 9, 35, 135, 527)


def test_elliptic_singular_counts():
    assert tuple(fq.singular_count(fq.elliptic(m))
                 for m in range(1, 5)) == (0, 5, 27, 119)


def test_counts_match_closed_forms():
    for m in range(1, 6):
        h = fq.singular_count(fq.hyperbolic(m), include_zero=True)
        assert h == (1 << (2 * m - 1)) + (1 << (m - 1))
    for m in range(1, 5):
        e = fq.singular_count(fq.elliptic(m), include_zero=True)
        assert e == (1 << (2 * m - 1)) - (1 << (m - 1))


def test_arf_types():
    for m in range(1, 6):
        assert fq.arf_type(fq.hyperbolic(m)) == "plus"
    for m in range(1, 5):
        assert fq.arf_type(fq.elliptic(m)) == "minus"


def test_polarization_identity():
    # b(x, y) = q(x + y) + q(x) + q(y) over GF(2), for arbitrary forms
    rng = random.Random(31)
    for _ in range(10):
        s = _random_upper(rng, 8)
        for _ in range(40):
            x, y = rng.randrange(256), rng.randrange(256)
            lhs = fq.eval_b(s, x, y)
            rhs = fq.eval_q(s, x ^ y) ^ fq.eval_q(s, x) ^ fq.eval_q(s, y)
            assert lhs == rhs


def test_bilinear_form_is_alternating():
    rng = random.Random(32)
    s = _random_upper(rng, 10)
    for _ in range(100):
        x, y = rng.randrange(1024), rng.randrange(1024)
        assert fq.eval_b(s, x, x) == 0
        assert fq.eval_b(s, x, y) == fq.eval_b(s, y, x)


def test_singular_vectors_are_the_singular_ones():
    s = fq.hyperbolic(3)
    vecs = fq.singular_vectors(s)
    assert len(vecs) == 35
    assert all(fq.eval_q(s, v) == 0 and v != 0 for v in vecs)
    brute = [x for x in range(1, 64) if fq.eval_q(s, x) == 0]
    assert sorted(vecs) == sorted(brute)


def test_singular_vectors_match_brute_force_on_random_forms():
    # dims below, at and above one 64-lane word; many forms are degenerate
    rng = random.Random(37)
    for dim in (2, 4, 6, 8, 12):
        forms = [_random_upper(rng, dim) for _ in range(4)]
        forms.append(fq.QuadSpace(dim, fl.F2Matrix(dim, dim, (0,) * dim)))
        forms.append(fq.QuadSpace(dim, fl.F2Matrix.identity(dim)))
        for s in forms:
            brute = [x for x in range(1, 2 ** dim) if fq.eval_q(s, x) == 0]
            vecs = fq.singular_vectors(s)
            assert vecs == sorted(brute, key=lambda v: fl.vec_to_bits(v, dim))
            assert fq.singular_count(s) == len(brute)
            assert fq.singular_count(s, include_zero=True) == len(brute) + 1


def test_degenerate_form_rejected():
    zero = fq.QuadSpace(2, fl.F2Matrix(2, 2, (0, 0)))
    assert not fq.is_nondegenerate(zero)
    with pytest.raises(ValueError):
        fq.arf_type(zero)


def test_quadspace_validation():
    lower = fl.F2Matrix(2, 2, (0, 1))  # bit below the diagonal
    with pytest.raises(ValueError):
        fq.QuadSpace(2, lower)
    with pytest.raises(ValueError):
        fq.hyperbolic(0)


def test_totally_singular_subspaces_of_hyperbolic():
    s = fq.hyperbolic(5)
    assert fq.totally_singular_subspace(s, 0) == []
    for k in range(1, 6):
        basis = fq.totally_singular_subspace(s, k)
        assert basis is not None and len(basis) == k
        m = fl.F2Matrix.from_rows([fl.vec_to_bits(v, 10) for v in basis])
        assert fl.rank(m) == k  # independent
        span = {0}
        for v in basis:
            span |= {x ^ v for x in span}
        assert all(fq.eval_q(s, x) == 0 for x in span)
        for a in basis:
            for b in basis:
                assert fq.eval_b(s, a, b) == 0
    assert fq.totally_singular_subspace(s, 6) is None


def test_elliptic_witt_index_is_m_minus_1():
    s = fq.elliptic(3)
    assert fq.totally_singular_subspace(s, 2) is not None
    # k = 3 passes the dimension bound; the Witt index rules it out
    assert fq.totally_singular_subspace(s, 3) is None


def test_subspace_past_witt_index_returns_at_once():
    # an ordered-basis search for these takes seconds to minutes
    start = time.perf_counter()
    assert fq.totally_singular_subspace(fq.elliptic(5), 5) is None
    assert fq.totally_singular_subspace(fq.elliptic(4), 4) is None
    assert time.perf_counter() - start < 1.0
    basis = fq.totally_singular_subspace(fq.hyperbolic(5), 5)
    assert basis is not None and len(basis) == 5


def test_degenerate_form_keeps_the_search():
    # q = x1 x2 on F2^4 has radical <e3, e4>
    s = fq.QuadSpace(4, fl.F2Matrix(4, 4, (0b10, 0, 0, 0)))
    assert not fq.is_nondegenerate(s)
    basis = fq.totally_singular_subspace(s, 2)
    assert basis is not None and len(basis) == 2


def test_degenerate_form_past_half_the_dimension():
    # <e2, e3, e4> is totally singular for q = x1 x2: dim 3 > 4 / 2
    s = fq.QuadSpace(4, fl.F2Matrix(4, 4, (0b10, 0, 0, 0)))
    assert fq.totally_singular_subspace(s, 3) == [8, 4, 2]
    assert fq.totally_singular_subspace(s, 4) is None
    zero = fq.QuadSpace(4, fl.F2Matrix(4, 4, (0, 0, 0, 0)))
    assert fq.totally_singular_subspace(zero, 4) == [8, 4, 2, 1]


def test_totally_singular_subspace_exists_iff_oracle_finds_one():
    rng = random.Random(15)
    forms = [_random_upper(rng, dim) for dim in (2, 4, 6) for _ in range(40)]
    forms += [fq.QuadSpace(dim, fl.F2Matrix(dim, dim, (0,) * dim))
              for dim in (2, 4, 6)]
    degenerate = 0
    for s in forms:
        degenerate += not fq.is_nondegenerate(s)
        best = _oracles.max_totally_singular_dim(s.upper.bits, s.dim)
        for k in range(s.dim + 1):
            basis = fq.totally_singular_subspace(s, k)
            assert (basis is not None) == (k <= best), (s.upper.bits, k)
            if basis is not None:
                m = fl.F2Matrix(len(basis), s.dim, tuple(basis))
                assert len(basis) == k and fl.rank(m) == k
    assert degenerate > 20


# witnesses from the backtracking search this pass replaced, for k = 1,
# 2, ...; each list stops at the Witt index, past which the answer is None
_WITNESSES = {
    "hyperbolic": {1: [2], 2: [8, 2], 3: [32, 8, 2], 4: [128, 32, 8, 2],
                   5: [512, 128, 32, 8, 2]},
    "elliptic": {1: [], 2: [2], 3: [8, 2], 4: [32, 8, 2], 5: [128, 32, 8, 2]},
}


@pytest.mark.parametrize("kind", sorted(_WITNESSES))
def test_standard_form_witnesses_are_frozen(kind):
    for m, chain in _WITNESSES[kind].items():
        s = getattr(fq, kind)(m)
        for k in range(2 * m + 1):
            want = chain[:k] if k <= len(chain) else None
            assert fq.totally_singular_subspace(s, k) == want, (kind, m, k)


def test_transport_preserves_invariants():
    rng = random.Random(33)
    for s in (fq.hyperbolic(3), fq.elliptic(3)):
        base_count = fq.singular_count(s)
        base_type = fq.arf_type(s)
        for _ in range(50):
            t = _oracles.random_invertible(6, rng)
            moved = fq.transport(s, t)
            assert fq.singular_count(moved) == base_count
            assert fq.arf_type(moved) == base_type


def test_transport_composes():
    rng = random.Random(34)
    s = fq.hyperbolic(2)
    t1 = _oracles.random_invertible(4, rng)
    t2 = _oracles.random_invertible(4, rng)
    assert fq.transport(fq.transport(s, t1), t2) == fq.transport(s, t1.mul(t2))


def test_transport_evaluates_through_the_matrix():
    rng = random.Random(35)
    s = fq.elliptic(2)
    t = _oracles.random_invertible(4, rng)
    moved = fq.transport(s, t)
    for x in range(16):
        assert fq.eval_q(moved, x) == fq.eval_q(s, _oracles.mul_vec(t, x))


def test_transport_rejects_singular_matrix():
    s = fq.hyperbolic(2)
    bad = fl.F2Matrix.from_rows([[1, 1, 0, 0], [1, 1, 0, 0],
                                 [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError):
        fq.transport(s, bad)
    with pytest.raises(ValueError):
        fq.transport(s, fl.F2Matrix.identity(6))


def test_isometry_group_orders_dim_2_and_4():
    # classical orders: O+-(2,2) dihedral of 2(q -+ 1), O+(4,2), O-(4,2)
    assert fq.isometry_counts(fq.hyperbolic(1)) == (2, 1)
    assert fq.isometry_counts(fq.elliptic(1)) == (6, 3)
    assert fq.isometry_counts(fq.hyperbolic(2)) == (72, 36)
    assert fq.isometry_counts(fq.elliptic(2)) == (120, 60)


def _isometry_counts_brute(s):
    # every dim x dim matrix; an isometry is invertible and keeps q everywhere
    n = s.dim
    ident = fl.F2Matrix.identity(n)
    full = kernel = 0
    for code in range(1 << (n * n)):
        g = fl.F2Matrix(n, n, tuple((code >> (n * i)) & ((1 << n) - 1)
                                    for i in range(n)))
        if all(fq.eval_q(s, _oracles.mul_vec(g, x)) == fq.eval_q(s, x)
               for x in range(1 << n)) and fl.rank(g) == n:
            full += 1
            kernel += fl.rank(g.add(ident)) % 2 == 0
    return full, kernel


def test_isometry_counts_match_brute_force():
    rng = random.Random(38)
    dim2 = [fq.QuadSpace(2, fl.F2Matrix(2, 2, (a | b << 1, c << 1)))
            for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    for s in dim2 + [_random_upper(rng, 4) for _ in range(3)]:
        assert fq.isometry_counts(s) == _isometry_counts_brute(s)


def test_isometry_guard():
    with pytest.raises(ValueError):
        fq.isometry_counts(fq.hyperbolic(3))


def test_sweep_guard():
    with pytest.raises(ValueError):
        fq.singular_count(fq.hyperbolic(14))


def test_form_file_roundtrip(tmp_path):
    rng = random.Random(36)
    s = _random_upper(rng, 8)
    path = tmp_path / "form.f2q"
    rows = [" ".join(map(str, fl.vec_to_bits(r, s.dim))) for r in s.upper.bits]
    path.write_text("\n".join([str(s.dim)] + rows) + "\n")
    assert fq.read_form(path) == s


@pytest.mark.parametrize("body", [
    "2\n0 1\n",
    "2\n0 1\n0\n",
    "2\n0 1\n0 0 0\n",
    "2\n0 1\n0 0\n1 0\n",
    "2\n0 2\n0 0\n",
    "2\n0 x\n0 0\n",
], ids=["missing-row", "short-row", "long-row", "extra-row", "entry-2",
        "entry-x"])
def test_read_form_rejects_malformed_files(tmp_path, body):
    path = tmp_path / "bad.f2q"
    path.write_text(body)
    with pytest.raises(ValueError):
        fq.read_form(path)
