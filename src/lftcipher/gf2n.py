"""Arithmetic in binary extension fields GF(2^n).

Polynomials over GF(2) are plain non-negative ints whose set bits are the
coefficients (bit k is the coefficient of x^k), optionally wrapped in
:class:`BinaryPoly` for parsing/printing.  Field elements are plain ints
interpreted against an explicit :class:`FieldSpec`; there is no global
field state, so any number of fields can coexist in one process.

A FieldSpec is immutable after construction and all operations are pure,
so specs and elements may be shared freely between threads.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

NEG_INF_DEGREE = float("-inf")  # degree of the zero polynomial

MAX_DEGREE = 16  # keeps exhaustive validation feasible; 4 and 8 used in practice


class GeneratorSpanError(ValueError):
    """x does not generate the multiplicative group of the field."""


# ---------------------------------------------------------------------------
# raw polynomial arithmetic on int bitmasks
# ---------------------------------------------------------------------------

def poly_degree(bits: int) -> int | float:
    """Degree of the polynomial, NEG_INF_DEGREE for the zero polynomial."""
    if bits == 0:
        return NEG_INF_DEGREE
    return bits.bit_length() - 1


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials (no reduction)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of polynomial division."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m."""
    return poly_divmod(a, m)[1]


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


_MONOMIAL = re.compile(r"^(?:1|x|x\^(\d+))$")


@dataclass(frozen=True)
class BinaryPoly:
    """A polynomial over GF(2), uniquely represented by its coefficient bitmask."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 0:
            raise ValueError("polynomial bitmask must be non-negative")

    @property
    def degree(self) -> int | float:
        return poly_degree(self.bits)

    @classmethod
    def parse(cls, text: str | int | BinaryPoly) -> BinaryPoly:
        """Parse a hex/int bitmask ("0x11D") or a monomial string ("x^8+x^4+1")."""
        if isinstance(text, BinaryPoly):
            return text
        if isinstance(text, int):
            return cls(text)
        s = text.strip()
        try:
            return cls(int(s, 0))
        except ValueError:
            pass
        bits = 0
        for term in s.replace(" ", "").split("+"):
            m = _MONOMIAL.match(term)
            if not m:
                raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
            if term == "1":
                k = 0
            elif term == "x":
                k = 1
            else:
                k = int(m.group(1))
            if bits >> k & 1:
                raise ValueError(f"duplicate term {term!r} in {text!r}")
            bits |= 1 << k
        return cls(bits)

    def to_hex(self) -> str:
        return f"0x{self.bits:X}"

    def monomials(self) -> str:
        """Human-readable form, highest degree first ("x^8+x^4+x^3+x^2+1")."""
        if self.bits == 0:
            return "0"
        terms = []
        for k in range(self.bits.bit_length() - 1, -1, -1):
            if self.bits >> k & 1:
                terms.append("1" if k == 0 else "x" if k == 1 else f"x^{k}")
        return "+".join(terms)

    def __str__(self) -> str:
        return self.monomials()

    def __repr__(self) -> str:
        return f"BinaryPoly({self.to_hex()})"

    def __add__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(poly_mul(self.bits, other.bits))

    def __mod__(self, other: BinaryPoly) -> BinaryPoly:
        return BinaryPoly(poly_mod(self.bits, other.bits))

    def __divmod__(self, other: BinaryPoly) -> tuple[BinaryPoly, BinaryPoly]:
        q, r = poly_divmod(self.bits, other.bits)
        return BinaryPoly(q), BinaryPoly(r)


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


def is_irreducible_trial(f: BinaryPoly | int) -> bool:
    """Irreducibility by trial division by every polynomial of degree <= n/2."""
    bits = BinaryPoly.parse(f).bits
    n = bits.bit_length() - 1
    if n < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    return all(poly_mod(bits, g) for g in range(2, 1 << (n // 2 + 1)))


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


class FieldSpec:
    """GF(2^n) fixed by an irreducible degree-n reduction polynomial.

    When the reduction polynomial is primitive (x generates the whole
    multiplicative group), log/antilog tables over the generator alpha = x
    are built at construction and back the fast multiplication path.  The
    shift-and-reduce path (:meth:`mul_naive`) is kept permanently as an
    independent reference.
    """

    def __init__(self, reduction: int | str | BinaryPoly):
        red = BinaryPoly.parse(reduction)
        n = red.degree
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"reduction polynomial must have degree >= 1, got {red!r}")
        if n > MAX_DEGREE:
            raise ValueError(f"extension degree {n} exceeds supported maximum {MAX_DEGREE}")
        if not is_irreducible_trial(red.bits):
            raise ValueError(f"{red.monomials()} is reducible and cannot define a field")
        self.reduction = red
        self.n = n
        self.order = 1 << n
        self.log_table: list[int | None] | None = None
        self.antilog_table: list[int] | None = None
        try:
            build_log_tables(self)  # sets generator_order and is_primitive
        except GeneratorSpanError:
            pass  # x spans a proper subgroup: no tables, mul() falls back to mul_naive

    # -- representation / identity ------------------------------------------

    def __repr__(self) -> str:
        return f"FieldSpec({self.reduction.to_hex()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and other.reduction == self.reduction

    def __hash__(self) -> int:
        return hash(self.reduction)

    # -- internals ------------------------------------------------------------

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} out of range for GF(2^{self.n})")

    # -- operations -------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition: bitwise XOR of the representations."""
        self._check(a)
        self._check(b)
        return a ^ b

    def mul_naive(self, a: int, b: int) -> int:
        """Shift-and-reduce product; table-free reference path."""
        self._check(a)
        self._check(b)
        r = 0
        red = self.reduction.bits
        top = 1 << self.n
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= red
        return r

    def mul(self, a: int, b: int) -> int:
        """Field product, via log/antilog tables when available."""
        if self.antilog_table is None or self.log_table is None:
            return self.mul_naive(a, b)
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        m = self.order - 1
        return self.antilog_table[(self.log_table[a] + self.log_table[b]) % m]

    def inv(self, a: int) -> int:
        """Multiplicative inverse by extended Euclid on polynomials."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.n})")
        red = self.reduction.bits
        r0, r1 = red, a
        t0, t1 = 0, 1
        while r1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, t0 ^ poly_mul(q, t1)
        # r0 is gcd(reduction, a) = 1 in a field
        return poly_mod(t0, red)

    def inv_fermat(self, a: int) -> int:
        """Multiplicative inverse as a^(2^n - 2); independent of inv()."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.n})")
        r = 1
        e = self.order - 2
        while e:
            if e & 1:
                r = self.mul_naive(r, a)
            a = self.mul_naive(a, a)
            e >>= 1
        return r

    def div(self, a: int, b: int) -> int:
        """Field division a/b."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """a raised to a non-negative integer power."""
        self._check(a)
        if e < 0:
            raise ValueError("negative exponents are not supported; invert first")
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 with a^k = 1; divides 2^n - 1."""
        self._check(a)
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        acc = a
        k = 1
        while acc != 1:
            acc = self.mul(acc, a)
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)


def build_log_tables(spec: FieldSpec) -> FieldSpec:
    """Populate spec's log/antilog tables by iterating powers of alpha = x.

    The walk stops at the first return to 1, which sets
    spec.generator_order (None when x reduces to 0) and spec.is_primitive.
    Raises GeneratorSpanError when the reduction polynomial is not
    primitive, since the powers of x then cycle before covering all
    nonzero elements.
    """
    red = spec.reduction.bits
    antilog = [1]
    v = poly_mod(2, red)
    while v > 1:
        antilog.append(v)
        v <<= 1
        if v & spec.order:
            v ^= red
    spec.generator_order = len(antilog) if v == 1 else None
    spec.is_primitive = spec.generator_order == spec.order - 1
    if not spec.is_primitive:
        raise GeneratorSpanError(
            f"generator does not span: x has order {spec.generator_order}, "
            f"need {spec.order - 1} under {spec.reduction.monomials()}"
        )
    log: list[int | None] = [None] * spec.order
    for k, v in enumerate(antilog):
        log[v] = k
    spec.antilog_table = antilog
    spec.log_table = log
    return spec


@functools.lru_cache(maxsize=None)
def field(reduction: int) -> FieldSpec:
    """Shared FieldSpec for a reduction bitmask; specs are immutable."""
    return FieldSpec(reduction)
