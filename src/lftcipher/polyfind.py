"""Enumeration and classification of irreducible and primitive polynomials
over GF(2).

Irreducibility is decided by its definition: every product of two monic
factors of degree 1..n-1 is formed and struck out of the degree-n census.
The test suite's trial division is the independent reference it must agree
with.  A polynomial is primitive when x has multiplicative order 2^n - 1
modulo it; :class:`lftcipher.gf2n.FieldSpec` accepts no other modulus.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .gf2n import MAX_DEGREE, BinaryPoly


class PolyClassification(NamedTuple):
    """Classification of one monic polynomial.

    order is the multiplicative order of x modulo the polynomial, present
    for irreducible polynomials (None for the single degenerate irreducible
    f = x, where x reduces to 0).
    """

    poly: BinaryPoly
    irreducible: bool
    primitive: bool
    order: int | None


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    ps = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            ps.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        ps.append(n)
    return ps


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    m = n
    count = 0
    for p in _prime_factors(n):
        if m % (p * p) == 0:
            return 0
        m //= p
        count += 1
    return -1 if count % 2 else 1


def _totient(n: int) -> int:
    r = n
    for p in _prime_factors(n):
        r -= r // p
    return r


def _irreducible(n: int) -> np.ndarray:
    """Whether each monic f of degree n is irreducible, indexed by f - 2^n.

    f is reducible iff f = g * h for monic g of some degree d in 1..n/2.
    For each d all 2^d * 2^(n - d) carry-less products g * h are formed in
    one array, one bit of g at a time, and struck out.
    """
    irreducible = np.ones(1 << n, dtype=bool)
    for d in range(1, n // 2 + 1):
        g = np.arange(1 << d, 2 << d, dtype=np.uint32)[:, None]
        h = np.arange(1 << (n - d), 2 << (n - d), dtype=np.uint32)
        f = np.zeros((g.size, h.size), dtype=np.uint32)
        for k in range(d + 1):
            f ^= (g >> k & 1) * (h << k)
        irreducible[f - (1 << n)] = False
    return irreducible


# ---------------------------------------------------------------------------
# array arithmetic modulo a batch of polynomials of one degree n <= 16
# ---------------------------------------------------------------------------
# One column per modulus f.  Residues have degree < n, so squares have
# degree <= 2n - 2 <= 30 and uint32 holds every value.  x^e needs only two
# steps: squaring, and multiplying by x.

@functools.cache
def _spread() -> np.ndarray:
    """Each byte with bit k moved to bit 2k: its carry-less square."""
    b = np.arange(256, dtype=np.uint32)
    out = np.zeros(256, dtype=np.uint32)
    for k in range(8):
        out |= (b >> k & 1) << 2 * k
    return out


def _sqrmod(a: np.ndarray, fs: np.ndarray, n: int) -> np.ndarray:
    """a^2 mod f: spread the bits, then clear bits 2n - 2 down to n."""
    spread = _spread()
    r = spread[a & 0xFF]
    if n > 8:
        r |= spread[a >> 8] << 16
    for d in range(2 * n - 2, n - 1, -1):
        r ^= (r >> d & 1) * (fs << (d - n))
    return r


def _times_x(r: np.ndarray, fs: np.ndarray, n: int, bit: np.ndarray) -> np.ndarray:
    """r * x mod f in place on the columns where bit is 1, for r of degree
    < n: one shift and one conditional subtraction of f."""
    r <<= bit
    r ^= (r >> n & 1) * fs
    return r


def _x_power(e: np.ndarray, fs: np.ndarray, n: int) -> np.ndarray:
    """x^e mod f, by left-to-right square-and-multiply from the top bit of e."""
    r = np.ones_like(fs)
    for k in reversed(range(int(e.max()).bit_length())):
        r = _times_x(_sqrmod(r, fs, n), fs, n, e >> k & 1)
    return r


def _orders(fs: np.ndarray, n: int) -> np.ndarray:
    """Multiplicative order of x modulo each f; 0 for f = x.

    The order divides 2^n - 1, so start from o = 2^n - 1 and, for each prime
    p of it, divide o by p while x^(o/p) = 1 (Lidl & Niederreiter, Finite
    Fields, ch. 3).
    """
    order = np.full(fs.size, (1 << n) - 1, dtype=np.uint32)
    for p in _prime_factors((1 << n) - 1):
        cols = np.arange(order.size)
        while cols.size:
            e = order[cols] // p
            one = _x_power(e, fs[cols], n) == 1
            cols = cols[one]
            order[cols] = e[one]
            cols = cols[order[cols] % p == 0]
    order[fs == 0b10] = 0
    return order


def _check_degree(n: int) -> None:
    if not 1 <= n <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}")


def count_irreducible(n: int) -> int:
    """Number of monic irreducible degree-n polynomials over GF(2):
    (1/n) * sum over d | n of mu(d) * 2^(n/d)."""
    _check_degree(n)
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * 2 ** (n // d)
    return total // n


def count_primitive(n: int) -> int:
    """Number of primitive degree-n polynomials over GF(2): phi(2^n - 1) / n."""
    _check_degree(n)
    return _totient(2**n - 1) // n


def enumerate_classified(n: int) -> list[PolyClassification]:
    """Classify monic degree-n polynomials, sorted by bitmask ascending.

    Candidates with constant term 0 are omitted for n >= 2 since they are
    divisible by x; for n = 1 the polynomial x itself is included (it is
    the one irreducible polynomial with constant term 0).  All candidates
    are classified in one batch: one sieve of products decides
    irreducibility, and square-and-multiply-by-x modulo each irreducible
    candidate gives the order of x.
    """
    _check_degree(n)
    if n == 1:
        fs = np.array([0b10, 0b11], dtype=np.uint32)
    else:
        fs = np.arange((1 << n) + 1, 1 << (n + 1), 2, dtype=np.uint32)
    irreducible = _irreducible(n)[fs - (1 << n)]
    order = np.zeros_like(fs)
    order[irreducible] = _orders(fs[irreducible], n)
    full = (1 << n) - 1
    return [
        PolyClassification(BinaryPoly(f), irr, o == full, o or None)
        for f, irr, o in zip(fs.tolist(), irreducible.tolist(), order.tolist())
    ]
