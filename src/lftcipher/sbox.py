"""Byte substitution boxes from linear fractional transformations over GF(2^8).

A transform g(z) = (az+b)/(cz+d) with ad+bc != 0 permutes GF(2^8) plus a
point at infinity.  Restricted to bytes it is made total by pairing the
unique pole (the z with cz+d = 0) with the image of infinity a/c, which is
the one convention that keeps the byte map a bijection.  One S-box is
produced per primitive reduction polynomial, giving a family of 16.

`LftSBox` is the one place a table is checked and inverted: built or
loaded, every box passes its bijection check and derives its inverse there.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import golden
from .gf2n import BinaryPoly, FieldSpec, field

_BYTES = np.arange(256)


class SBoxFormatError(ValueError):
    """Raw S-box input has the wrong shape (length, token count, ...)."""


class DegenerateLftError(ValueError):
    """ad + bc = 0: the transform is constant, not invertible."""


class TableAudit(NamedTuple):
    """Result of scanning a 256-entry table for bijectivity."""

    bijective: bool
    duplicates: dict[int, int]  # value -> number of occurrences (> 1)
    missing: tuple[int, ...]

    def describe(self) -> str:
        if self.bijective:
            return "bijective"
        dups = ", ".join(f"{v} (x{c})" for v, c in sorted(self.duplicates.items()))
        miss = ", ".join(str(v) for v in self.missing)
        return f"not a bijection: duplicated values {dups}; missing values {miss}"


class SBoxValidationError(ValueError):
    """Table is not a bijection; .audit carries the duplicate/missing scan."""

    def __init__(self, audit: TableAudit):
        super().__init__(audit.describe())
        self.audit = audit


@dataclass(frozen=True)
class LftParams:
    """Coefficients of g(z) = (az+b)/(cz+d) plus the polynomial selector.

    poly_index is 1-based into the golden primitive polynomial list.
    """

    a: int
    b: int
    c: int
    d: int
    poly_index: int = 1

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d", "poly_index"):
            v = getattr(self, name)
            # plain ints skip the ABC check, about 0.8 us a call on a 2 vCPU Xeon
            if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not 0 <= v <= 255:
                raise ValueError(f"coefficient {name}={v} out of byte range")
        if not 1 <= self.poly_index <= len(golden.PRIMITIVE_POLY_MASKS):
            raise ValueError(f"poly_index {self.poly_index} not in 1..16")

    @property
    def reduction(self) -> int:
        return golden.PRIMITIVE_POLY_MASKS[self.poly_index - 1]


@dataclass(frozen=True)
class LftSBox:
    """A 256-entry byte bijection with its provenance.

    `table` may be bytes, a sequence or an array of byte values; it is
    checked once, kept as bytes, and its inverse is derived from it.
    Equality and hashing depend on the table and provenance only.
    """

    table: bytes
    provenance: LftParams | str = "external"
    inverse: bytes = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        table = _byte_values(self.table)
        audit = validate_table(table)
        if not audit.bijective:
            raise SBoxValidationError(audit)
        inverse = np.empty(256, dtype=np.uint8)
        inverse[table] = _BYTES
        object.__setattr__(self, "table", table.astype(np.uint8).tobytes())
        object.__setattr__(self, "inverse", inverse.tobytes())

    def to_text(self) -> str:
        return format_table_text(self.table)


def _byte_values(raw) -> np.ndarray:
    """The 256 entries of a table as an integer array, checked to be bytes."""
    if isinstance(raw, (bytes, bytearray)):
        vals = np.frombuffer(raw, dtype=np.uint8)
    else:
        vals = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw))
    if vals.shape != (256,):
        raise SBoxFormatError(f"expected 256 entries in one row, got shape {vals.shape}")
    if vals.dtype == np.uint8:
        return vals
    if vals.dtype.kind not in "iuO" or (
        vals.dtype.kind == "O" and not all(isinstance(v, int) for v in vals)
    ):
        raise SBoxFormatError(f"entries must be integers, got {vals.dtype}")
    out_of_range = np.flatnonzero((vals < 0) | (vals > 255))
    if out_of_range.size:
        raise SBoxFormatError(f"entry {vals[out_of_range[0]]} out of byte range")
    return vals.astype(np.intp)


def validate_table(raw) -> TableAudit:
    """Scan a 256-entry table for duplicated and missing byte values."""
    counts = np.bincount(_byte_values(raw), minlength=256)
    duplicates = {int(v): int(counts[v]) for v in np.flatnonzero(counts > 1)}
    missing = tuple(int(v) for v in np.flatnonzero(counts == 0))
    return TableAudit(not duplicates and not missing, duplicates, missing)


def build_sbox(params: LftParams) -> LftSBox:
    """Evaluate g(z) = (az+b)/(cz+d) over all bytes under the selected field.

    For c != 0 the pole z* = d/c is sent to a/c (the image of infinity),
    closing the bijection; for c = 0 the map is affine and total.
    """
    spec = field(params.reduction)
    a, b, c, d = params.a, params.b, params.c, params.d
    det = spec.mul(a, d) ^ spec.mul(b, c)
    if det == 0:
        raise DegenerateLftError(
            f"degenerate transformation: ad+bc = 0 for (a,b,c,d)=({a},{b},{c},{d}) "
            f"under {spec.reduction.monomials()}"
        )
    log, antilog = _log_arrays(spec)
    num = _times_all_bytes(a, log, antilog) ^ b
    den = _times_all_bytes(c, log, antilog) ^ d
    # (log num - log den) lies in -254..254; +255 keeps it inside the doubled table
    table = antilog[log[num] - log[den] + 255]
    table[num == 0] = 0
    if c:
        table[den == 0] = spec.div(a, c)
    return LftSBox(table.tobytes(), params)


@lru_cache(maxsize=None)
def _log_arrays(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """spec's log table (log 0 read as 0) and its antilog table repeated
    to 510 entries, so that the sum of two logs indexes it without a mod."""
    log = np.array([0 if v is None else v for v in spec.log_table], dtype=np.intp)
    antilog = np.array(spec.antilog_table * 2, dtype=np.uint8)
    return log, antilog


def _times_all_bytes(k: int, log: np.ndarray, antilog: np.ndarray) -> np.ndarray:
    """k * z for every byte z, from the field's log tables."""
    if k == 0:
        return np.zeros(256, dtype=np.uint8)
    prod = antilog[log[k] + log]
    prod[0] = 0
    return prod


def family_polys(polys) -> tuple[int, ...]:
    """polys as a tuple of ints, checked to list the 16 primitive degree-8
    polynomials of the golden list, each once, in any order.

    This is the one check of a family's polynomials.  Each mask must be an
    integer and not a bool: a float equal to a mask is refused, not stored.
    A mask of another degree is named by its degree alone, so that a
    hostile mask of thousands of bits still gives a short message.
    """
    checked: list[int] = []
    for i, mask in enumerate(polys):
        if isinstance(mask, bool) or not isinstance(mask, numbers.Integral):
            raise ValueError(f"polynomial {i + 1} is a {type(mask).__name__}, not an integer mask")
        mask = int(mask)
        if mask not in golden.PRIMITIVE_POLY_MASKS:
            poly = BinaryPoly(mask)
            if poly.degree != 8:
                raise ValueError(f"polynomial {i + 1} has degree {poly.degree}, not degree 8")
            raise ValueError(f"{poly.monomials()} is not primitive")
        if mask in checked:
            raise ValueError(f"{BinaryPoly(mask).monomials()} is listed twice")
        checked.append(mask)
    if len(checked) != len(golden.PRIMITIVE_POLY_MASKS):
        raise ValueError(
            f"expected {len(golden.PRIMITIVE_POLY_MASKS)} polynomials, got {len(checked)}"
        )
    return tuple(checked)


def build_family(
    a: int, b: int, c: int, d: int, polys: tuple[int, ...] = golden.PRIMITIVE_POLY_MASKS
) -> tuple[LftSBox, ...]:
    """One S-box per polynomial of `polys` for fixed (a, b, c, d), in that order.

    `polys` must pass family_polys; each box carries LftParams provenance
    whose poly_index names its polynomial in the golden list.

    The last 8 families are memoised per (a, b, c, d, family_polys(polys)),
    with the types of a, b, c and d part of the key, so `True` or `1.0`
    still meets LftParams' check after `1` is cached.  polys is checked
    before the lookup, on every call, because the memo would take a float
    mask equal to an int one for it.  Equal arguments return the same
    tuple: its boxes are frozen and hold bytes, so CipherKeys share it.
    Errors are not cached; a bad LFT or polynomial list raises on every call.
    """
    return _family(a, b, c, d, family_polys(polys))


@lru_cache(maxsize=8, typed=True)  # a process or a key sweep uses one family
def _family(a: int, b: int, c: int, d: int, polys: tuple[int, ...]) -> tuple[LftSBox, ...]:
    return tuple(
        build_sbox(LftParams(a, b, c, d, poly_index=golden.PRIMITIVE_POLY_MASKS.index(mask) + 1))
        for mask in polys
    )


def format_table_text(table) -> str:
    """16 lines of 16 space-separated decimal bytes."""
    vals = list(table)
    if len(vals) != 256:
        raise SBoxFormatError(f"expected 256 entries, got {len(vals)}")
    lines = []
    for r in range(16):
        lines.append(" ".join(str(v) for v in vals[16 * r : 16 * r + 16]))
    return "\n".join(lines) + "\n"


def parse_table_text(text: str) -> list[int]:
    """Parse the 16x16 decimal text layout back into a flat table."""
    tokens = text.split()
    if len(tokens) != 256:
        raise SBoxFormatError(f"expected 256 values, got {len(tokens)}")
    try:
        vals = [int(t) for t in tokens]
    except ValueError as e:
        raise SBoxFormatError(f"non-numeric S-box entry: {e}") from None
    for v in vals:
        if not 0 <= v <= 255:
            raise SBoxFormatError(f"entry {v} out of byte range")
    return vals
