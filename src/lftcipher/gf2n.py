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

NEG_INF_DEGREE = float("-inf")  # degree of the zero polynomial

MAX_DEGREE = 16  # keeps exhaustive validation feasible; 4 and 8 used in practice


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
            if k > MAX_DEGREE:  # before 1 << k, which costs k / 8 bytes
                raise ValueError(f"a term's exponent exceeds the maximum degree {MAX_DEGREE}")
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


def is_irreducible_trial(f: BinaryPoly | int) -> bool:
    """Irreducibility by trial division by every polynomial of degree <= n/2."""
    bits = BinaryPoly.parse(f).bits
    n = bits.bit_length() - 1
    if n < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    return all(poly_mod(bits, g) for g in range(2, 1 << (n // 2 + 1)))


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
        # walk x, x^2, ... to the first return to 1; x reduces to 0 when f = x
        antilog = [1]
        v = poly_mod(2, red.bits)
        while v > 1:
            antilog.append(v)
            v <<= 1
            if v & self.order:
                v ^= red.bits
        self.generator_order = len(antilog) if v == 1 else None
        self.is_primitive = self.generator_order == self.order - 1
        self.log_table: list[int | None] | None = None
        self.antilog_table: list[int] | None = None
        if self.is_primitive:  # otherwise x spans a proper subgroup and mul() uses mul_naive
            log: list[int | None] = [None] * self.order
            for k, v in enumerate(antilog):
                log[v] = k
            self.antilog_table = antilog
            self.log_table = log

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

    def div(self, a: int, b: int) -> int:
        """Field division a/b."""
        return self.mul(a, self.inv(b))


@functools.lru_cache(maxsize=None)
def field(reduction: int) -> FieldSpec:
    """Shared FieldSpec for a reduction bitmask; specs are immutable."""
    return FieldSpec(reduction)
