"""Byte substitution boxes from linear fractional transformations over GF(2^8).

A transform g(z) = (az+b)/(cz+d) with ad+bc != 0 permutes GF(2^8) plus a
point at infinity.  Restricted to bytes it is made total by pairing the
unique pole (the z with cz+d = 0) with the image of infinity a/c, which is
the one convention that keeps the byte map a bijection.  One S-box is
produced per primitive reduction polynomial, giving a family of 16.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from . import golden
from .gf2n import FieldSpec, field

_BYTES = np.arange(256)


class SBoxFormatError(ValueError):
    """Raw S-box input has the wrong shape (length, token count, ...)."""


class DegenerateLftError(ValueError):
    """ad + bc = 0: the transform is constant, not invertible."""


@dataclass(frozen=True)
class TableAudit:
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
    """A 256-entry byte bijection with its inverse and provenance."""

    table: bytes
    inverse: bytes
    provenance: LftParams | str = "external"

    def __post_init__(self) -> None:
        if len(self.table) != 256 or len(self.inverse) != 256:
            raise SBoxFormatError("S-box tables must have exactly 256 entries")
        table = _byte_values(self.table)
        audit = validate_table(table)
        if not audit.bijective:
            raise SBoxValidationError(audit)
        inverse = _byte_values(self.inverse)
        wrong = np.flatnonzero(inverse[table] != _BYTES)
        if wrong.size:
            raise ValueError(f"inverse table inconsistent at input {wrong[0]}")

    def apply(self, v: int) -> int:
        return self.table[v]

    def apply_inverse(self, v: int) -> int:
        return self.inverse[v]

    def to_text(self) -> str:
        return format_table_text(self.table)

    def to_bytes(self) -> bytes:
        return self.table


def _byte_values(raw) -> np.ndarray:
    """The 256 entries of a table as an integer array, checked to be bytes."""
    if isinstance(raw, (bytes, bytearray)):
        vals = np.frombuffer(raw, dtype=np.uint8)
    else:
        vals = np.asarray(raw if isinstance(raw, np.ndarray) else list(raw))
    if len(vals) != 256:
        raise SBoxFormatError(f"expected 256 entries, got {len(vals)}")
    if vals.dtype == np.uint8:
        return vals
    if vals.dtype.kind not in "iuO":
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


def invert_table(raw) -> list[int]:
    """Inverse of a bijective 256-entry table; raises with the audit if not."""
    vals = _byte_values(raw)
    audit = validate_table(vals)
    if not audit.bijective:
        raise SBoxValidationError(audit)
    inv = np.empty(256, dtype=np.intp)
    inv[vals] = _BYTES
    return inv.tolist()


def build_sbox(params: LftParams) -> LftSBox:
    """Evaluate g(z) = (az+b)/(cz+d) over all bytes under the selected field.

    For c != 0 the pole z* = d/c is sent to a/c (the image of infinity),
    closing the bijection; for c = 0 the map is affine and total.
    """
    return _build_sbox_in_field(field(params.reduction), params, params)


@lru_cache(maxsize=None)
def _log_arrays(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """spec's log table (log 0 read as 0) and its antilog table repeated
    to 510 entries, so that the sum of two logs indexes it without a mod."""
    log = np.array([0 if v is None else v for v in spec.log_table], dtype=np.intp)
    antilog = np.array(spec.antilog_table * 2, dtype=np.uint8)
    return log, antilog


def _build_sbox_in_field(
    spec: FieldSpec, params: LftParams, provenance: LftParams | str
) -> LftSBox:
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
    inverse = np.empty(256, dtype=np.uint8)
    inverse[table] = _BYTES
    return LftSBox(table.tobytes(), inverse.tobytes(), provenance)


def _times_all_bytes(k: int, log: np.ndarray, antilog: np.ndarray) -> np.ndarray:
    """k * z for every byte z, from the field's log tables."""
    if k == 0:
        return np.zeros(256, dtype=np.uint8)
    prod = antilog[log[k] + log]
    prod[0] = 0
    return prod


def build_family(
    a: int, b: int, c: int, d: int, polys: tuple[int, ...] | None = None
) -> tuple[LftSBox, ...]:
    """One S-box per primitive polynomial for fixed (a, b, c, d).

    With the default polynomial list each box carries LftParams provenance;
    a custom list gets string provenance naming the reduction polynomial.
    """
    boxes: list[LftSBox] = []
    if polys is None:
        for i in range(1, len(golden.PRIMITIVE_POLY_MASKS) + 1):
            boxes.append(build_sbox(LftParams(a, b, c, d, poly_index=i)))
        return tuple(boxes)
    params = LftParams(a, b, c, d)
    for mask in polys:
        spec = field(mask)
        if spec.n != 8:
            raise ValueError(f"{spec.reduction.monomials()} does not have degree 8")
        if not spec.is_primitive:
            raise ValueError(f"{spec.reduction.monomials()} is not primitive")
        provenance = f"lft({a},{b},{c},{d}) mod {spec.reduction.to_hex()}"
        boxes.append(_build_sbox_in_field(spec, params, provenance))
    return tuple(boxes)


def invert_sbox(s: LftSBox | bytes | list[int]) -> LftSBox:
    """Swap a box with its inverse; applying both in order is the identity.

    Raw 256-entry tables are accepted and validated; a non-bijective table
    raises SBoxValidationError listing its duplicated and missing values.
    """
    if isinstance(s, LftSBox):
        return LftSBox(s.inverse, s.table, s.provenance)
    inv = invert_table(s)
    return LftSBox(bytes(inv), bytes(list(s)), "external")


def load_external_sbox(raw: bytes) -> LftSBox:
    """Wrap 256 raw bytes as an S-box; non-bijective input raises with the scan."""
    if len(raw) != 256:
        raise SBoxFormatError(f"expected exactly 256 bytes, got {len(raw)}")
    inv = invert_table(raw)
    return LftSBox(bytes(raw), bytes(inv), "external")


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


@dataclass(frozen=True)
class ReferenceAudit:
    """Comparison of the published reference table with the canonical build."""

    audit: TableAudit
    canonical_matches: int
    mismatched_positions: tuple[int, ...] = dc_field(repr=False, default=())


def reference_audit() -> ReferenceAudit:
    """Audit the embedded reference table against canonical field arithmetic.

    The reference table is not a bijection as printed, and the canonical
    construction under the first polynomial agrees with it on only a
    handful of entries; the table therefore stays reference data only.
    """
    ref = golden.REFERENCE_SBOX
    audit = validate_table(ref)
    canonical = build_sbox(LftParams(*golden.DEFAULT_LFT, poly_index=1))
    mism = tuple(z for z in range(256) if canonical.table[z] != ref[z])
    return ReferenceAudit(audit, 256 - len(mism), mism)
