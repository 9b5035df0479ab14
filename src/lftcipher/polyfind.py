"""Enumeration and classification of irreducible and primitive polynomials
over GF(2).

Candidates are classified by Rabin's irreducibility test; exhaustive trial
division (`is_irreducible_trial`, from :mod:`lftcipher.gf2n`) is the
independent reference it must agree with.  A polynomial is primitive when
x has multiplicative order 2^n - 1 modulo it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2n import BinaryPoly, _coprime, _moduli, _orders, _prime_factors, _x_chain


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


def count_irreducible(n: int, p: int = 2) -> int:
    """Number of monic irreducible degree-n polynomials over GF(p):
    (1/n) * sum over d | n of mu(d) * p^(n/d)."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius(d) * p ** (n // d)
    return total // n


def count_primitive(n: int, q: int = 2) -> int:
    """Number of primitive degree-n polynomials over GF(q): phi(q^n - 1) / n."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return _totient(q**n - 1) // n


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
