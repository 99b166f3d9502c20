"""Acceptance gate: one test per shipped claim, timed against its budget.

Each test recomputes its facts from scratch, asserts exact equality
(zero tolerance), asserts the wall-clock budget, and prints one
PASS line.  Budgets for the two sub-millisecond items are taken as
best-of-five after one warm-up call; everything else is timed cold
in collection order, so the rank-32 norm-4 enumeration is paid inside
item 3 and explicitly excluded from item 4's budget.
"""

import random
import time
from fractions import Fraction

from bwlab import bw, exlat, f2linalg, f2quad, gord, qser, srg, xrep

from . import _oracles


def _best_of_five_ms(fn) -> float:
    fn()  # warm-up, not measured
    times = []
    for _ in range(5):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1000


def _line(num: int, label: str, elapsed_s: float, budget: str) -> None:
    print(f"criterion {num:02d} {label}: PASS "
          f"({elapsed_s:.3f} s, budget {budget})")


def test_criterion_01_rm14_code():
    code = f2linalg.rm14()
    assert f2linalg.rank(code) == 5
    assert dict(f2linalg.weight_enumerator(code)) == {0: 1, 8: 30, 16: 1}

    def body():
        c = f2linalg.rm14()
        return f2linalg.rank(c), f2linalg.weight_enumerator(c)

    ms = _best_of_five_ms(body)
    assert ms < 1.0
    _line(1, "rm14 code", ms / 1000, "1 ms")


def test_criterion_02_rank16_lattice():
    start = time.perf_counter()
    b = bw.bw16()
    g = exlat.gram(b)
    assert exlat.is_even(g)
    assert exlat.determinant(g) == 2 ** 8
    assert exlat.quotient_invariants(exlat.dual(b), b) == (2,) * 8
    assert exlat.minimum_norm(b) == 4
    assert exlat.enumerate_norm(b, 4) == 4320
    assert exlat.generated_by_norm_vectors(b, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _line(2, "rank-16 lattice", elapsed, "5 s")


def test_criterion_03_rank32_lattice():
    start = time.perf_counter()
    b = bw.bw32()
    g = exlat.gram(b)
    assert exlat.is_even(g)
    assert exlat.determinant(g) == 1
    assert exlat.lattice_equal(exlat.dual(b), b)
    assert exlat.minimum_norm(b) == 4
    assert exlat.enumerate_norm(b, 4) == 146880
    assert exlat.generated_by_norm_vectors(b, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _line(3, "rank-32 lattice", elapsed, "600 s")


def test_criterion_04_tower_and_similarities():
    # item 3's enumeration is excluded from this budget; pay it first
    exlat.enumerate_norm(bw.bw32(), 4)
    start = time.perf_counter()
    assert exlat.quotient_invariants(bw.bw32(), bw.bw1()) == (2,) * 16
    assert bw.tower_check()
    assert exlat.lattice_equal(bw.phi(exlat.dual(bw.bw16())), bw.bw16())
    assert exlat.lattice_equal(bw.phi(bw.bw32()), bw.bw1())
    assert bw.similarity_invariants(
        exlat.rescale_metric(exlat.dual(bw.bw16()), 2), bw.bw16(), 1,
        (2, 4, 6, 8))
    assert bw.similarity_invariants(bw.bw1(), bw.bw32(), 2, (2, 4))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _line(4, "tower and similarities", elapsed, "30 s")


def test_criterion_05_quadratic_space():
    start = time.perf_counter()
    h5 = f2quad.hyperbolic(5)
    assert f2quad.singular_count(h5) == 527
    assert f2quad.arf_type(h5) == "plus"
    assert f2quad.totally_singular_subspace(h5, 2) is not None
    sweep = tuple(f2quad.singular_count(f2quad.hyperbolic(m))
                  for m in range(1, 6))
    assert sweep == (2, 9, 35, 135, 527)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _line(5, "quadratic space", elapsed, "1 s")


def test_criterion_06_strongly_regular_graphs():
    small = srg.srg_params(srg.perp_graph(f2quad.hyperbolic(2)))
    assert isinstance(small, srg.SrgParams)
    assert (small.v, small.k, small.lam, small.mu) == (9, 4, 1, 2)

    start = time.perf_counter()
    big = srg.srg_params(srg.perp_graph(f2quad.hyperbolic(5)))
    cert_elapsed = time.perf_counter() - start
    assert isinstance(big, srg.SrgParams)
    assert (big.v, big.k, big.lam, big.mu) == (527, 270, 141, 135)
    assert (big.r, big.s, big.f, big.g) == (15, -9, 186, 340)
    assert cert_elapsed < 10.0

    start = time.perf_counter()
    rows = srg.feasible_pairs(139503, 4590)
    scan_elapsed = time.perf_counter() - start
    assert [(p.lam, p.mu, p.r, p.s, p.f, p.g) for p in rows] == \
        [(621, 135, 495, -9, 2482, 137020)]
    assert scan_elapsed < 1.0
    _line(6, "strongly regular graphs", cert_elapsed + scan_elapsed,
          "10 s + 1 s")


def test_criterion_07_group_orders():
    e6 = gord.e6_order(2)
    assert str(e6) == "2^36·3^6·5^2·7^3·13·17·31·73"
    assert e6.value == 214841575522005575270400
    idx = e6.div(gord.shape_order("2^{16}.OmegaPlus(10,2)"))
    assert idx.value == 139503
    assert str(idx) == "3·7^2·13·73"
    part = gord.sylow_part(
        gord.shape_order("2^{1+32}.2^{10}.OmegaPlus(10,2)"), 2)
    assert str(part) == "2^63"
    top = gord.shape_order("2^{27}.E6(2)")
    assert str(top) == "2^63·3^6·5^2·7^3·13·17·31·73"

    def body():
        order = gord.e6_order(2)
        order.div(gord.shape_order("2^{16}.OmegaPlus(10,2)"))
        gord.sylow_part(
            gord.shape_order("2^{1+32}.2^{10}.OmegaPlus(10,2)"), 2)
        return gord.shape_order("2^{27}.E6(2)")

    ms = _best_of_five_ms(body)
    assert ms < 1.0
    _line(7, "group orders", ms / 1000, "1 ms")


def test_criterion_08_extraspecial_representations():
    start = time.perf_counter()
    sizes = tuple(len(xrep.closure(xrep.extraspecial_plus(m)))
                  for m in range(1, 5))
    assert sizes == (8, 32, 128, 512)
    assert all(xrep.char_norm(xrep.extraspecial_plus(m)) == 1
               for m in range(1, 5))
    assert all(
        xrep.char_norm(xrep.central_product(xrep.extraspecial_plus(m),
                                            xrep.extraspecial_plus(m))) == 1
        for m in range(1, 3))
    assert xrep.char_norm(xrep.block_double(xrep.extraspecial_plus(2))) == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _line(8, "extraspecial representations", elapsed, "5 s")


def test_criterion_09_q_series():
    start = time.perf_counter()
    root = qser.cube_root_j(6)
    assert root.coeffs[:3] == (1, 248, 4124)
    t1 = qser.t1_series(6)
    assert t1.exponent(0) == Fraction(-4, 3)
    assert t1.exponent(2) == Fraction(2, 3)
    assert t1.coeffs[:3] == (1, 0, 139504)
    assert 139504 == 1 + 527 + 73440 + 65536
    assert 139504 == 2 * 2296 + 527 * 256
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    _line(9, "q-series", elapsed, "100 ms")


def test_criterion_10_property_suites():
    start = time.perf_counter()
    rng = random.Random(101)
    for _ in range(100):
        b = _oracles.random_small_basis(rng)
        once = exlat.hnf_basis(b)
        assert exlat.hnf_basis(once) == once
        assert exlat.lattice_equal(exlat.dual(exlat.dual(b)), b)
        step = b.frame_scale / (b.den * b.den)
        for mult in (1, 2, 3):
            n = step * mult
            assert exlat.enumerate_norm(b, n) == _oracles.box_norm_count(b, n)
    for i in range(100):
        m = 1 + i % 4
        s = f2quad.hyperbolic(m) if i % 2 else f2quad.elliptic(m)
        t = _oracles.random_invertible(2 * m, rng)
        assert f2quad.arf_type(f2quad.transport(s, t)) == f2quad.arf_type(s)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _line(10, "property suites", elapsed, "60 s")
