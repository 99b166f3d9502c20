"""Factored group order arithmetic and dotted shape strings."""

import hashlib
import random

import pytest
import sympy

from bwlab import gord
from bwlab.gord import FactoredInteger


def test_from_int_roundtrip():
    for n in (1, 2, 12, 360, 139503, 2 ** 20 * 3 ** 5):
        assert FactoredInteger.from_int(n).value == n


def test_factorint_and_isprime_match_sympy():
    rng = random.Random(41)
    prime_powers = [q for q in range(2, 65) if len(sympy.factorint(q)) == 1]
    cases = list(range(1, 20001))
    cases += [q ** e - 1 for q in prime_powers for e in range(1, 13)]
    cases += [rng.getrandbits(k - 1) | 1 << (k - 1)
              for k in (rng.randint(20, 62) for _ in range(300))]
    for n in cases:
        assert gord._factorint(n) == sympy.factorint(n), n
        assert gord._isprime(n) == sympy.isprime(n), n


def test_isprime_needs_all_thirteen_bases():
    # the least strong pseudoprime to the bases 2..37 (Sorenson and
    # Webster); base 41, the 13th prime, shows it composite
    assert not gord._isprime(318665857834031151167461)
    assert gord._isprime(2 ** 61 - 1) and gord._isprime(2 ** 89 - 1)
    assert not gord._isprime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_rho_gives_up_past_its_step_budget(monkeypatch):
    # two 20-bit primes: rho needs about a thousand steps to split them
    p, q = 999983, 1000003
    assert gord._isprime(p) and gord._isprime(q)
    assert gord._factorint(p * q) == {p: 1, q: 1}
    monkeypatch.setattr(gord, "_RHO_STEPS", 16)
    with pytest.raises(ValueError, match=f"cannot factor {p * q} in 16"):
        gord._factorint(p * q)


def test_from_int_rejects_nonpositive():
    with pytest.raises(ValueError):
        FactoredInteger.from_int(0)
    with pytest.raises(ValueError):
        FactoredInteger.from_int(-6)


def test_str_formatting():
    assert str(FactoredInteger.from_int(1)) == "1"
    assert str(FactoredInteger.from_int(12)) == "2^2·3"
    assert str(FactoredInteger.from_int(139503)) == "3·7^2·13·73"


def test_mul_div_pow():
    a = FactoredInteger.from_int(360)
    b = FactoredInteger.from_int(14)
    assert a.mul(b).value == 360 * 14
    assert a.mul(b).div(b).value == 360
    assert a.pow(3).value == 360 ** 3
    assert a.pow(0).value == 1
    with pytest.raises(ValueError):
        a.pow(-1)
    with pytest.raises(ValueError):
        b.div(a)


def test_valuation():
    a = FactoredInteger.from_int(360)  # 2^3 3^2 5
    assert a.valuation(2) == 3
    assert a.valuation(3) == 2
    assert a.valuation(7) == 0


def test_sylow_part():
    a = FactoredInteger.from_int(360)
    assert str(gord.sylow_part(a, 2)) == "2^3"
    assert gord.sylow_part(a, 7).value == 1
    with pytest.raises(ValueError):
        gord.sylow_part(a, 6)


def test_omega_plus_orders_match_classical_values():
    assert gord.omega_plus_order(4, 2).value == 36
    assert gord.omega_plus_order(6, 2).value == 20160  # isomorphic to A8
    assert str(gord.omega_plus_order(10, 2)) == "2^20·3^5·5^2·7·17·31"
    # odd q, from independent classical orders: Omega+(4, 3) is the
    # central product SL2(3) o SL2(3), and Omega+(6, 3) = PSL4(3), its
    # centre being trivial as gcd(4, 3^3 - 1) / 2 = 1
    sl2_3 = 3 * (3 ** 2 - 1)
    assert gord.omega_plus_order(4, 3).value == 288 == sl2_3 ** 2 // 2
    psl4_3 = 3 ** 6 * (3 ** 2 - 1) * (3 ** 3 - 1) * (3 ** 4 - 1) // 2
    assert gord.omega_plus_order(6, 3).value == 6065280 == psl4_3


def test_omega_plus_input_validation():
    with pytest.raises(ValueError):
        gord.omega_plus_order(5, 2)  # odd dimension
    with pytest.raises(ValueError):
        gord.omega_plus_order(2, 2)  # needs dimension >= 4
    with pytest.raises(ValueError):
        gord.omega_plus_order(4, 6)  # 6 is not a prime power
    with pytest.raises(ValueError):
        gord.e6_order(1)


# sha256 of the newline-joined results of e6_order(q) and then
# omega_plus_order(two_m, q), two_m outer, for 0 <= q <= 32 and
# 0 <= two_m <= 16: str(order), or "TypeName: message" if it raises
ORDERS_DIGEST = \
    "b594875b254a0332383d8643a542421b74c0ccd7337ed2d771c524dafd7ee022"


def test_order_formulas_pinned_with_their_errors():
    def line(order, *args):
        try:
            return str(order(*args))
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    lines = [line(gord.e6_order, q) for q in range(33)]
    lines += [line(gord.omega_plus_order, two_m, q)
              for two_m in range(17) for q in range(33)]
    assert len(lines) == 594
    text = "\n".join(lines).encode()
    assert hashlib.sha256(text).hexdigest() == ORDERS_DIGEST


def test_e6_order_at_2():
    fi = gord.e6_order(2)
    assert str(fi) == "2^36·3^6·5^2·7^3·13·17·31·73"
    assert fi.value == 214841575522005575270400


def test_e6_order_at_3_divisible_by_centre_gcd():
    # gcd(3, q - 1) = 1 at q = 3, so the simple order formula is exact
    fi = gord.e6_order(3)
    assert fi.valuation(3) == 36


def test_index_139503():
    stab = gord.shape_order("2^{16}.OmegaPlus(10,2)")
    quotient = gord.e6_order(2).div(stab)
    assert quotient.value == 139503
    assert str(quotient) == "3·7^2·13·73"


def test_shape_parsing_and_orders():
    total = gord.shape_order("2^{1+32}.2^{10}.OmegaPlus(10,2)")
    assert total.value == 2 ** 43 * gord.omega_plus_order(10, 2).value
    assert str(gord.sylow_part(total, 2)) == "2^63"
    assert gord.shape_order("2^{27}.E6(2)").value == \
        2 ** 27 * gord.e6_order(2).value
    assert str(gord.shape_order("2^{27}.E6(2)")) == \
        "2^63·3^6·5^2·7^3·13·17·31·73"


def test_shape_plain_integer_layers():
    assert gord.shape_order("65536.36").value == 65536 * 36


def test_shape_rejects_bad_tokens():
    for bad in ("2^{1+}", "Foo(4,2)", "E7(2)", "", "2..3", "x",
                "2^{3", "2^3}", "2^{3}}"):
        with pytest.raises(ValueError):
            gord.shape_order(bad)
    assert gord.shape_order("2^{3}").value == gord.shape_order("2^3").value == 8
