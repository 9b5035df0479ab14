"""Enumeration and classification of irreducible and primitive polynomials
over GF(2).

Candidates are classified by Rabin's irreducibility test; the test suite's
exhaustive trial division is the independent reference it must agree with.
A polynomial is primitive when x has multiplicative order 2^n - 1 modulo
it; :class:`lftcipher.gf2n.FieldSpec` accepts no other modulus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gf2n import BinaryPoly


@dataclass(frozen=True)
class PolyClassification:
    """Classification of one monic polynomial.

    order is the multiplicative order of x modulo the polynomial, present
    for irreducible polynomials (None for the single degenerate irreducible
    f = x, where x reduces to 0).
    """

    poly: BinaryPoly
    irreducible: bool
    primitive: bool
    order: int | None

    def __post_init__(self) -> None:
        if self.primitive and not self.irreducible:
            raise ValueError("primitive implies irreducible")


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


# ---------------------------------------------------------------------------
# array arithmetic modulo a batch of polynomials of one degree n <= 16
# ---------------------------------------------------------------------------
# One column per modulus f.  Residues have degree < n, so products have
# degree <= 2n - 2 <= 30 and uint32 holds every value.

@functools.cache
def _spread() -> np.ndarray:
    """Each byte with bit k moved to bit 2k: its carry-less square."""
    b = np.arange(256, dtype=np.uint32)
    out = np.zeros(256, dtype=np.uint32)
    for k in range(8):
        out |= (b >> k & 1) << 2 * k
    return out


def _moduli(fs, n: int) -> np.ndarray:
    """Rows f << k, k < max(n - 1, 1), of the degree-n moduli fs: every
    multiple of f that reducing a product subtracts."""
    shifts = np.arange(max(n - 1, 1), dtype=np.uint32)[:, None]
    return np.asarray(fs, dtype=np.uint32) << shifts


def _reduce(r: np.ndarray, mods: np.ndarray, n: int, top: int) -> np.ndarray:
    """r mod f in place, for r of degree at most top: clear bits top..n."""
    t = np.empty_like(r)
    for d in range(top, n - 1, -1):
        np.right_shift(r, d, out=t)
        t &= 1
        t *= mods[d - n]
        r ^= t
    return r


def _sqrmod(a: np.ndarray, mods: np.ndarray, n: int) -> np.ndarray:
    spread = _spread()
    r = spread[a & 0xFF]
    if n > 8:
        r |= spread[a >> 8] << 16
    return _reduce(r, mods, n, 2 * n - 2)


def _mulmod(a: np.ndarray, b: np.ndarray, mods: np.ndarray, n: int) -> np.ndarray:
    r = np.zeros_like(a)
    t = np.empty_like(a)
    for k in range(n):
        np.right_shift(b, k, out=t)
        t &= 1
        t *= a << k
        r ^= t
    return _reduce(r, mods, n, 2 * n - 2)


def _x_chain(mods: np.ndarray, n: int) -> np.ndarray:
    """Row k holds x^(2^k) mod f, for k = 0..n: n squarings from x."""
    chain = np.empty((n + 1, mods.shape[1]), dtype=np.uint32)
    chain[0] = _reduce(np.full(mods.shape[1], 2, dtype=np.uint32), mods, n, 1)
    for k in range(n):
        chain[k + 1] = _sqrmod(chain[k], mods, n)
    return chain


def _strip_x(a: np.ndarray) -> np.ndarray:
    """a with every factor x divided out; 0 stays 0."""
    return a // np.maximum(a & (~a + 1), 1)


def _coprime(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether gcd(a, b) = 1, by the binary Euclid algorithm.

    x divides both when both constant terms are 0.  Otherwise x is divided
    out of both, and the larger of two odd values is replaced by their sum,
    x divided out, until one side is 0; the other is then the gcd.
    """
    coprime = ((a | b) & 1) == 1
    a, b = _strip_x(a), _strip_x(b)
    while (live := b != 0).any():
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        a = np.where(live, lo, a)
        b = np.where(live, _strip_x(hi ^ lo), 0)
    return coprime & (a == 1)


def _x_power(e: np.ndarray, chain: np.ndarray, mods: np.ndarray, n: int) -> np.ndarray:
    """x^e mod f for exponents 0 < e < 2^n: the product of chain[k] over
    the set bits k of e."""
    power = None
    for k in range(n):
        bit = e >> k & 1
        if not bit.any():
            continue
        factor = chain[k] if bit.all() else np.where(bit, chain[k], 1)
        power = factor if power is None else _mulmod(power, factor, mods, n)
    return power


def _orders(chain: np.ndarray, mods: np.ndarray, n: int) -> np.ndarray:
    """Multiplicative order of x modulo each f; 0 where x reduces to 0.

    The order divides 2^n - 1, so start from o = 2^n - 1 and, for each prime
    p of it, divide o by p while x^(o/p) = 1 (Lidl & Niederreiter, Finite
    Fields, ch. 3).
    """
    order = np.full(mods.shape[1], (1 << n) - 1, dtype=np.uint32)
    for p in _prime_factors((1 << n) - 1):
        cols = np.arange(order.size)
        while cols.size:
            e = order[cols] // p
            one = _x_power(e, chain[:, cols], mods[:, cols], n) == 1
            cols = cols[one]
            order[cols] = e[one]
            cols = cols[order[cols] % p == 0]
    order[chain[0] == 0] = 0
    return order


def _rabin(mods: np.ndarray, chain: np.ndarray, n: int) -> np.ndarray:
    """Rabin's test on each modulus f = mods[0], given its chain x^(2^k) mod f.

    f of degree n is irreducible iff f divides x^(2^n) - x and
    gcd(f, x^(2^(n/p)) - x mod f) = 1 for every prime p dividing n.
    """
    x = chain[0]
    irreducible = chain[n] == x
    for p in _prime_factors(n):
        cols = np.flatnonzero(irreducible)
        irreducible[cols] = _coprime(mods[0, cols], chain[n // p, cols] ^ x[cols])
    return irreducible


def count_irreducible(n: int) -> int:
    """Number of monic irreducible degree-n polynomials over GF(2):
    (1/n) * sum over d | n of mu(d) * 2^(n/d)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * 2 ** (n // d)
    return total // n


def count_primitive(n: int) -> int:
    """Number of primitive degree-n polynomials over GF(2): phi(2^n - 1) / n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _totient(2**n - 1) // n


def enumerate_classified(n: int) -> list[PolyClassification]:
    """Classify monic degree-n polynomials, sorted by bitmask ascending.

    Candidates with constant term 0 are omitted for n >= 2 since they are
    divisible by x; for n = 1 the polynomial x itself is included (it is
    the one irreducible polynomial with constant term 0).  All candidates
    are classified in one batch: one chain of squarings of x serves both
    Rabin's test and the order of x.
    """
    if not 1 <= n <= 16:
        raise ValueError("degree must be in 1..16")
    if n == 1:
        fs = np.array([0b10, 0b11], dtype=np.uint32)
    else:
        fs = np.arange((1 << n) + 1, 1 << (n + 1), 2, dtype=np.uint32)
    mods = _moduli(fs, n)
    chain = _x_chain(mods, n)
    irreducible = _rabin(mods, chain, n)
    order = np.zeros_like(fs)
    order[irreducible] = _orders(chain[:, irreducible], mods[:, irreducible], n)
    full = (1 << n) - 1
    return [
        PolyClassification(BinaryPoly(f), irr, o == full, o or None)
        for f, irr, o in zip(fs.tolist(), irreducible.tolist(), order.tolist())
    ]
