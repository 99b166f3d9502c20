"""Reference values computed without bwlab.

Every expected value the benchmark checks comes from here, by a route
that shares no code with the package:

- theta series from modular forms: BW16 from the basis E4(t)^2,
  E4(t)E4(2t), E4(2t)^2 of M8(Gamma0(2)) fitted to (1, 0, 4320), and
  BW32 from E4^4 - 960 E4 Delta (Conway and Sloane, SPLAG ch. 4 s. 10);
- j from sigma_3 and the Euler product, its cube root by solving
  g^3 = q j coefficient by coefficient;
- singular counts 2^(2m-1) +- 2^(m-1) - 1 and the closed-form
  collinearity-graph parameters of the O+-(2m, 2) polar spaces;
- group orders from the order formulas as plain integers;
- the two rank-16 lattices built here from Reed-Muller codes, with a
  row Hermite normal form, a determinant and a discriminant-group
  exponent of this module's own.

Lattices use bwlab's file convention: integer rows, one denominator
`den` and the squared norm `frame` of each orthogonal frame vector.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import numpy as np

# --------------------------------------------------------------------------
# integer power series, coefficient lists from q^0, truncated to n terms


def series_mul(a, b):
    n = min(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def series_inverse(a):
    """1/a for a series with constant term 1."""
    if a[0] != 1:
        raise ValueError("constant term must be 1")
    inv = [1] + [0] * (len(a) - 1)
    for i in range(1, len(a)):
        inv[i] = -sum(a[j] * inv[i - j] for j in range(1, i + 1))
    return inv


def series_pow(a, e: int):
    """a^e for e >= 1, by repeated squaring."""
    out = None
    while e:
        if e & 1:
            out = a if out is None else series_mul(out, a)
        e >>= 1
        if e:
            a = series_mul(a, a)
    return out


def sigma3(k: int) -> int:
    return sum(d ** 3 for d in range(1, k + 1) if k % d == 0)


def e4(n: int):
    """E4 = 1 + 240 sum sigma_3(k) q^k."""
    return [1] + [240 * sigma3(k) for k in range(1, n)]


def euler(n: int):
    """prod_{k>=1} (1 - q^k), by multiplying the factors in."""
    c = [1] + [0] * (n - 1)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            c[i] -= c[i - k]
    return c


def delta(n: int):
    """Delta = q prod (1 - q^k)^24, coefficients from q^0 (the first is 0)."""
    return [0] + series_pow(euler(n), 24)[:n - 1]


def q_times_j(n: int):
    """q * j = E4^3 / prod (1 - q^k)^24: coefficient i belongs to q^(i-1) in j."""
    return series_mul(series_pow(e4(n), 3),
                      series_inverse(series_pow(euler(n), 24)))


def cube_root(f):
    """The series g with g^3 = f and g(0) = 1, solved term by term."""
    if f[0] != 1:
        raise ValueError("constant term must be 1")
    g = [1] + [0] * (len(f) - 1)
    for k in range(1, len(f)):
        cube = series_pow(g[:k + 1], 3)
        rest = f[k] - cube[k]  # g[k] is still 0, so 3 g[k] is missing
        if rest % 3:
            raise ArithmeticError("cube root is not integral")
        g[k] = rest // 3
    return g


def _q_times_j_minus_992(qj):
    """q (j - 992) from q j: 992 leaves the q^1 coefficient."""
    out = list(qj)
    out[1] -= 992
    return out


def t1_head(n: int):
    """First n >= 2 coefficients of t1 = j^(1/3) (j - 992), from q^(-4/3).

    j^(1/3) = q^(-1/3) g with g^3 = q j, and j - 992 = q^(-1) (q j - 992 q).
    """
    qj = q_times_j(n)
    return series_mul(cube_root(qj), _q_times_j_minus_992(qj))


T1_OFFSET = Fraction(-4, 3)


def t1_cube_target(n: int):
    """q^4 j (j - 992)^3 to n >= 2 terms: what the cube of t1 must equal."""
    qj = q_times_j(n)
    return series_mul(qj, series_pow(_q_times_j_minus_992(qj), 3))


# --------------------------------------------------------------------------
# theta series: coefficient k counts the vectors of norm 2k (even lattices)


def _dilate(a, n):
    """a(q^2) to n terms."""
    out = [0] * n
    for i, x in enumerate(a):
        if 2 * i < n:
            out[2 * i] = x
    return out


def theta_bw16(n: int):
    """BW16's theta series as the element of M8(Gamma0(2)) starting 1, 0, 4320."""
    if n < 3:
        raise ValueError("need at least three terms")
    a, b = e4(n), _dilate(e4(n), n)
    basis = [series_mul(a, a), series_mul(a, b), series_mul(b, b)]
    target = [1, 0, 4320]
    m = [[Fraction(f[i]) for f in basis] + [Fraction(target[i])] for i in range(3)]
    for c in range(3):  # Gauss-Jordan on the 3x3 system
        p = next(r for r in range(c, 3) if m[r][c])
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(3):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    coef = [m[i][3] for i in range(3)]
    theta = [sum(c * f[i] for c, f in zip(coef, basis)) for i in range(n)]
    if any(t.denominator != 1 for t in theta):
        raise ArithmeticError("fitted theta series is not integral")
    return [int(t) for t in theta]


def theta_bw32(n: int):
    """BW32's theta series E4^4 - 960 E4 Delta (even unimodular, no roots)."""
    a = e4(n)
    a4 = series_pow(a, 4)
    ad = series_mul(a, delta(n))
    return [x - 960 * y for x, y in zip(a4, ad)]


def shell(theta, norm) -> int:
    """Number of vectors of norm `norm` in an even lattice with this theta series."""
    norm = Fraction(norm)
    if norm.denominator != 1 or norm % 2:
        return 0
    return theta[int(norm) // 2]


def minimum_norm(theta) -> int:
    return 2 * next(k for k in range(1, len(theta)) if theta[k])


# --------------------------------------------------------------------------
# GF(2) quadratic spaces and polar-space graphs


def singular_count(m: int, plus: bool) -> int:
    """Nonzero singular vectors of the plus or minus form on F2^(2m)."""
    sign = 1 if plus else -1
    return 2 ** (2 * m - 1) + sign * 2 ** (m - 1) - 1


def polar_graph(m: int, plus: bool):
    """(v, k, lambda, mu) of the collinearity graph of O+-(2m, 2).

    A polar space of rank d and type e over GF(q) (e = 0 for O+(2d, q),
    e = 2 for O-(2d + 2, q)) has v = (q^d - 1)(q^(d-1+e) + 1)/(q - 1)
    points; two points are adjacent when they are perpendicular.
    """
    q = 2
    d, e = (m, 0) if plus else (m - 1, 2)
    if d < 2:
        raise ValueError("polar space rank must be at least 2")

    def f(a, b):  # (q^a - 1)(q^b + 1)/(q - 1), and 0 when a = 0
        return 0 if a == 0 else (q ** a - 1) * (q ** b + 1) // (q - 1)

    v = f(d, d - 1 + e)
    k = q * f(d - 1, d - 2 + e)
    lam = q * q * f(d - 2, d - 3 + e) + q - 1
    mu = f(d - 1, d - 2 + e)
    return v, k, lam, mu


def srg_spectrum(v: int, k: int, lam: int, mu: int):
    """(r, s, f, g): the restricted eigenvalues and their multiplicities."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = isqrt(disc)
    if root * root != disc:
        raise ValueError("irrational eigenvalues")
    balance, rem = divmod(2 * k + (v - 1) * (lam - mu), root)
    if rem:
        raise ValueError("non-integral multiplicities")
    return ((lam - mu + root) // 2, (lam - mu - root) // 2,
            (v - 1 - balance) // 2, (v - 1 + balance) // 2)


# --------------------------------------------------------------------------
# group orders as integers


def e6_order(q: int) -> int:
    n = q ** 36
    for i in (2, 5, 6, 8, 9, 12):
        n *= q ** i - 1
    return n // gcd(3, q - 1)


def omega_plus_order_even_q(m: int, q: int) -> int:
    """|Omega+(2m, q)| for q even: half of |O+(2m, q)|."""
    n = q ** (m * (m - 1)) * (q ** m - 1)
    for i in range(1, m):
        n *= q ** (2 * i) - 1
    return n


def parse_factored(text: str) -> int:
    """'2^36·3^6·13' -> the integer it names."""
    n = 1
    for part in text.split("·"):
        p, _, e = part.partition("^")
        n *= int(p) ** int(e or 1)
    return n


# --------------------------------------------------------------------------
# the rank-16 lattices, built from Reed-Muller codes


def reed_muller(r: int, m: int = 4):
    """All codewords of RM(r, m) as 0/1 tuples indexed by the points of F2^m."""
    points = list(range(1 << m))
    gens = []
    for mono in range(1 << m):
        if bin(mono).count("1") <= r:
            gens.append(tuple(int(p & mono == mono) for p in points))
    words = set()
    for coeffs in product((0, 1), repeat=len(gens)):
        w = [0] * len(points)
        for c, g in zip(coeffs, gens):
            if c:
                w = [x ^ y for x, y in zip(w, g)]
        words.add(tuple(w))
    return sorted(words)


def hnf(rows):
    """Canonical row Hermite normal form of an integer row lattice.

    Positive pivots, entries above a pivot in [0, pivot), zero rows
    dropped: equal lattices give equal results.
    """
    m = [list(r) for r in rows if any(r)]
    out = []
    for c in range(len(m[0]) if m else 0):
        live = [r for r in m if r[c]]
        m = [r for r in m if not r[c]]
        while len(live) > 1:  # Euclid on column c across the live rows
            live.sort(key=lambda r: abs(r[c]))
            p, rest = live[0], []
            for r in live[1:]:
                f = r[c] // p[c]
                r = [x - f * y for x, y in zip(r, p)]
                if r[c]:
                    rest.append(r)
                elif any(r):
                    m.append(r)
            live = [p] + rest
        if not live:
            continue
        p = live[0] if live[0][c] > 0 else [-x for x in live[0]]
        out = [[x - (r[c] // p[c]) * y for x, y in zip(r, p)] for r in out]
        out.append(p)
    return out


def bw16_rows():
    """BW16 with den 2, frame 2: 2e_i + 2e_j (i <= j) and RM(1, 4) words."""
    rows = []
    for i in range(16):
        for j in range(i, 16):
            row = [0] * 16
            row[i] += 2
            row[j] += 2
            rows.append(row)
    rows += [list(w) for w in reed_muller(1)]
    return rows, 2, 2


def bw16_dual_scaled_rows():
    """sqrt(2) * BW16^* with den 4, frame 4.

    With <u, v> = 2 u.v, BW16 = D16 + (1/2) RM(1, 4), whose dual is
    (1/2) [{z : z mod 2 in RM(2, 4)} + {0, (1/2) 1}] because RM(1, 4)'s
    dual code is RM(2, 4); doubling the frame norm scales by sqrt(2).
    """
    rows = [[4 * (i == j) for j in range(16)] for i in range(16)]
    rows += [[2 * x for x in w] for w in reed_muller(2)]
    rows.append([1] * 16)
    return rows, 4, 4


LATTICES = {"bw16": bw16_rows, "sqrt2-bw16-dual": bw16_dual_scaled_rows}


def base_lattice(kind: str):
    """(HNF rows, den, frame) of the lattice named `kind` in LATTICES."""
    rows, den, frame = LATTICES[kind]()
    return hnf(rows), den, frame


def generated_by_norm4(kind: str) -> bool:
    """True iff the norm-4 rows of the construction span the whole lattice."""
    rows, den, frame = LATTICES[kind]()
    short = [r for r in rows if frame * sum(x * x for x in r) == 4 * den * den]
    return hnf(short) == hnf(rows)


def gram_float(rows, den, frame) -> np.ndarray:
    m = np.array(rows, dtype=np.float64)
    return (m @ m.T) * (float(frame) / (den * den))


def determinant(rows, den, frame) -> int:
    """Gram determinant by floating LU; exact for the small integers here."""
    d = float(np.linalg.det(gram_float(rows, den, frame)))
    n = round(d)
    if abs(d - n) > 1e-6 * max(1.0, abs(d)):
        raise ArithmeticError("Gram determinant is not an integer")
    return n


def discriminant_invariants(rows, den, frame):
    """Invariant factors of L^*/L when that group has exponent 2.

    Its order is det(G); its exponent divides 2 exactly when 2 G^-1 is
    integral.  Any other shape raises, since the lattices here have none.
    """
    g = gram_float(rows, den, frame)
    if not np.allclose(g, np.round(g), atol=1e-9):
        raise ArithmeticError("lattice is not integral")
    twice_inv = 2 * np.linalg.inv(g)
    if not np.allclose(twice_inv, np.round(twice_inv), atol=1e-9):
        raise ArithmeticError("discriminant group exponent is not 2")
    order = determinant(rows, den, frame)
    k = order.bit_length() - 1
    if order != 1 << k:
        raise ArithmeticError("discriminant group order is not a power of 2")
    return (2,) * k
