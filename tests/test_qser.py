"""Exact q-expansions, cross-checked by an independent Newton oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

from bwlab import qser
from bwlab.qser import QSeries

from . import _oracles


def test_eisenstein4_coefficients():
    e4 = qser.eisenstein4(8)
    assert e4.offset_thirds == 0
    assert e4.coeffs == (1, 240, 2160, 6720, 17520, 30240, 60480, 82560)


def test_delta_is_the_ramanujan_tau_series():
    d = _oracles.delta(12)
    assert d.offset_thirds == 3
    assert d.coeffs == (1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                        -113643, -115920, 534612, -370944)


def test_euler_product_inverse_counts_partitions():
    inv = qser.euler_product(12, -1)
    assert inv.coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 400])
def test_pentagonal_euler_product_matches_the_factor_loop(n):
    for e in (-24, -8, -1, 0, 1, 24):
        assert qser.euler_product(n, e) == _oracles.euler_product_by_factors(n, e)


def test_euler_product_to_the_zero_is_one():
    one = qser.euler_product(6, 0)
    assert one.offset_thirds == 0
    assert one.coeffs == (1, 0, 0, 0, 0, 0)


def test_j_series_classical_values():
    j = qser.j_series(40)
    assert j.offset_thirds == -3
    assert j.coeffs[:5] == (1, 744, 196884, 21493760, 864299970)
    # j = E4^3 / Delta, with Delta's product taken factor by factor
    assert j == qser.eisenstein4(40).power(3).mul(_oracles.delta(40).power(-1))


def test_cube_root_j_coefficients():
    c = qser.cube_root_j(8)
    assert c.offset_thirds == -1
    assert c.coeffs[:4] == (1, 248, 4124, 34752)


@pytest.mark.parametrize("n", [12, 40])
def test_cube_root_matches_newton_oracle(n):
    c = qser.cube_root_j(n)
    # j * q as an offset-free rational series with constant term 1
    y = [Fraction(x) for x in qser.j_series(n).coeffs]
    oracle = _oracles.newton_cube_root(y, n)
    assert all(o.denominator == 1 for o in oracle)
    assert tuple(int(o) for o in oracle) == c.coeffs


def test_cube_root_certification_catches_corruption(monkeypatch):
    good = qser.j_series

    def tainted(n):
        j = good(n)
        return QSeries(j.offset_thirds,
                       j.coeffs[:2] + (j.coeffs[2] + 1,) + j.coeffs[3:])

    monkeypatch.setattr(qser, "j_series", tainted)
    with pytest.raises(RuntimeError):
        qser.cube_root_j(6)


@pytest.mark.parametrize("delta", [1, -1])
def test_cube_root_certification_checks_the_top_coefficient(monkeypatch, delta):
    good = qser.j_series

    def tainted(n):
        j = good(n)
        return QSeries(j.offset_thirds, j.coeffs[:-1] + (j.coeffs[-1] + delta,))

    monkeypatch.setattr(qser, "j_series", tainted)
    with pytest.raises(RuntimeError):
        qser.cube_root_j(400)


def test_t1_series_values():
    t1 = qser.t1_series(8)
    assert t1.offset_thirds == -4
    assert t1.exponent(0) == Fraction(-4, 3)
    assert t1.coeffs[:3] == (1, 0, 139504)
    assert t1.coefficient(Fraction(2, 3)) == 139504
    assert all(c >= 0 for c in t1.coeffs)


def test_t1_series_400_is_pinned():
    t1 = qser.t1_series(400)
    assert t1.offset_thirds == -4
    text = ",".join(map(str, t1.coeffs)).encode()
    assert hashlib.sha256(text).hexdigest() == \
        "84d7fdc4d584d6160ece65ac164695375d74eafd5788db315a5032b0459d852a"


@pytest.mark.parametrize("name, offset, digest", [
    ("j_series", -3,
     "af3b831cb759048979582b5aa902d7ba81e70b6c34ce7aa005540fd73aec2a5a"),
    ("cube_root_j", -1,
     "56790871d722d4aac0cb9cade668904aecbaf81b7daf3e7dff8cfaec49fef762"),
])
def test_series_400_is_pinned(name, offset, digest):
    s = getattr(qser, name)(400)
    assert s.offset_thirds == offset
    text = ",".join(map(str, s.coeffs)).encode()
    assert hashlib.sha256(text).hexdigest() == digest


def test_t1_divided_by_cube_root_recovers_j_shift():
    n = 10
    t1 = qser.t1_series(n)
    back = t1.mul(qser.cube_root_j(n).power(-1)).add_scalar(992)
    j = qser.j_series(n)
    assert back.offset_thirds == j.offset_thirds
    assert back.coeffs == j.coeffs[:len(back.coeffs)]


def test_mul_add_and_scalars():
    a = QSeries(0, (1, 2, 3))
    b = QSeries(3, (5, 6))
    assert a.mul(b).coeffs == (5, 16)
    assert a.mul(b).offset_thirds == 3
    assert a.add_scalar(10).coeffs == (11, 2, 3)
    # q^0 sits at index 1 of a series starting at q^-1
    assert QSeries(-3, (1, 2, 3)).add_scalar(-2).coeffs == (1, 0, 3)
    with pytest.raises(ValueError):
        b.add_scalar(1)  # q^0 below the stored window
    with pytest.raises(ValueError):
        QSeries(-3, (1,)).add_scalar(1)  # q^0 above it
    with pytest.raises(ValueError):
        QSeries(1, (1, 2)).add_scalar(1)  # q^0 not on the lattice of thirds


def _edge_coefficient(rng):
    """0, or +-2^k, +-(2^k - 1) or a random k-bit value, k up to 2000 and
    often next to a multiple of 8, where a packed slot ends."""
    k = rng.choice([rng.randrange(2001),
                    8 * rng.randrange(1, 250) + rng.choice((-1, 0, 1))])
    c = rng.choice([0, 1 << k, (1 << k) - 1, rng.getrandbits(k)])
    return rng.choice((1, -1)) * c


def _edge_series(rng):
    n = rng.choice([1, 1, 2, 3, rng.randrange(1, 30)])
    shape = rng.randrange(4)
    if shape == 0:  # all zero
        coeffs = (0,) * n
    elif shape == 1:  # one extreme value throughout: slot sums at their widest
        coeffs = (_edge_coefficient(rng),) * n
    else:
        coeffs = tuple(_edge_coefficient(rng) if rng.random() < 0.7 else 0
                       for _ in range(n))
    return QSeries(rng.randrange(-9, 10), coeffs)


def test_mul_matches_the_dense_product():
    rng = random.Random(25)
    for _ in range(3000):
        a, b = _edge_series(rng), _edge_series(rng)
        assert a.mul(b) == _oracles.series_mul_dense(a, b)
        assert a.mul(a) == _oracles.series_mul_dense(a, a)


def test_inverse_needs_unit_leading_coefficient():
    with pytest.raises(ValueError):
        QSeries(0, (2, 1)).power(-1)
    inv = QSeries(-3, (-1, 4)).power(-1)
    assert inv.offset_thirds == 3
    assert QSeries(-3, (-1, 4)).mul(inv).coeffs == (1, 0)


def test_power_and_validation():
    a = QSeries(0, (1, 1, 0, 0))
    assert a.power(2).coeffs == (1, 2, 1, 0)
    assert a.power(0) == QSeries(0, (1, 0, 0, 0))
    assert QSeries(-1, (2, 1)).power(0) == QSeries(0, (1, 0))
    with pytest.raises(ValueError):
        QSeries(0, ())
    with pytest.raises(ValueError):
        qser.euler_product(0)
    with pytest.raises(ValueError):
        qser.eisenstein4(0)
    with pytest.raises(ValueError):
        qser.cube_root_j(2)


def _random_series(rng, lead):
    return QSeries(rng.randrange(-6, 7),
                   (lead,) + tuple(rng.randrange(-9, 10) for _ in range(11)))


def test_power_property_on_random_series():
    rng = random.Random(8)
    for _ in range(40):
        s = _random_series(rng, rng.choice([-3, -2, -1, 1, 2, 5]))
        repeated = s
        for e in range(1, 6):
            assert s.power(e) == repeated
            repeated = repeated.mul(s)
    for lead in (1, -1):
        for _ in range(20):
            s = _random_series(rng, lead)
            for e in range(1, 7):  # lead -1, even e: g_0 = a_0^|e| is +1
                one = s.power(e).mul(s.power(-e))
                assert one == QSeries(0, (1,) + (0,) * 11)


def test_power_rejects_leads_without_an_exact_recurrence():
    rng = random.Random(9)
    for lead in (2, -2, 3):
        s = _random_series(rng, lead)
        for e in (-1, -2, -5):
            with pytest.raises(ValueError):
                s.power(e)
    zero_lead = QSeries(0, (0, 1, 2))
    for e in (-3, -1, 0, 1, 4):
        with pytest.raises(ValueError):
            zero_lead.power(e)


def test_coefficient_window_errors():
    t1 = qser.t1_series(4)
    with pytest.raises(ValueError):
        t1.coefficient(Fraction(1, 2))  # not a third
    with pytest.raises(ValueError):
        t1.coefficient(0)  # between stored thirds
    with pytest.raises(ValueError):
        t1.coefficient(100)  # past the truncation


def test_terms_listing():
    d = _oracles.delta(3)
    assert d.terms() == [(Fraction(1), 1), (Fraction(2), -24),
                         (Fraction(3), 252)]
