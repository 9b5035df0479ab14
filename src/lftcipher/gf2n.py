"""Arithmetic in binary extension fields GF(2^n).

Polynomials over GF(2) are plain non-negative ints whose set bits are the
coefficients (bit k is the coefficient of x^k), optionally wrapped in
:class:`BinaryPoly` for parsing/printing.  Field elements are plain ints
interpreted against an explicit :class:`FieldSpec`, which takes only a
primitive reduction polynomial; there is no global field state, so any
number of fields can coexist in one process.

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
# polynomials as int bitmasks
# ---------------------------------------------------------------------------

def poly_degree(bits: int) -> int | float:
    """Degree of the polynomial, NEG_INF_DEGREE for the zero polynomial."""
    if bits == 0:
        return NEG_INF_DEGREE
    return bits.bit_length() - 1


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


class FieldSpec:
    """GF(2^n) fixed by a primitive degree-n reduction polynomial f.

    The constructor walks x, x^2, ... for at most 2^n - 1 steps and accepts
    f only if the first power equal to 1 is x^(2^n - 1).  Then the 2^n - 1
    powers of x are distinct units, so every nonzero residue is a unit and f
    is irreducible: the walk is the field's one irreducibility test, and no
    trial division is needed.  The walk is kept as the antilog table
    (k -> x^k) and its inverse, the log table, and mul, inv and div read
    them.
    """

    def __init__(self, reduction: int | str | BinaryPoly):
        red = BinaryPoly.parse(reduction)
        n = red.degree
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"reduction polynomial must have degree >= 1, got {red!r}")
        if n > MAX_DEGREE:
            raise ValueError(f"extension degree {n} exceeds supported maximum {MAX_DEGREE}")
        self.reduction = red
        self.n = n
        self.order = 1 << n
        # bounded: when x divides f but f is not a power of x (x^8+x^4, say),
        # the powers of x cycle without ever returning to 1
        antilog = [1]
        v = 1
        for _ in range(self.order - 1):
            v <<= 1
            if v & self.order:
                v ^= red.bits
            if v <= 1:
                break
            antilog.append(v)
        if v != 1 or len(antilog) != self.order - 1:
            raise ValueError(
                f"{red.monomials()} is not primitive: x does not have order 2^{n} - 1 modulo it"
            )
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

    def mul(self, a: int, b: int) -> int:
        """Field product x^(log a + log b)."""
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self.antilog_table[(self.log_table[a] + self.log_table[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse x^(-log a)."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF(2^{self.n})")
        return self.antilog_table[-self.log_table[a]]  # index -0 is x^0 = 1

    def div(self, a: int, b: int) -> int:
        """Field division a/b."""
        return self.mul(a, self.inv(b))


@functools.lru_cache(maxsize=None)
def field(reduction: int) -> FieldSpec:
    """Shared FieldSpec for a reduction bitmask; specs are immutable."""
    return FieldSpec(reduction)
