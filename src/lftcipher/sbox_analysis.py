"""Strength criteria for 8x8 substitution boxes.

All metrics are exhaustive, never sampled: nonlinearity and linear
probability come from full Walsh spectra, differential probability from
the complete difference distribution table, SAC/BIC from all input-bit
flips.  A full report on one box runs in well under a second.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .sbox import LftSBox, SBoxValidationError, validate_table

_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.uint8)
_COORD_MASKS = tuple(1 << j for j in range(8))
_PAIR_MASKS = tuple(
    (1 << j) | (1 << k) for j in range(8) for k in range(j + 1, 8)
)
_BYTES = np.arange(256, dtype=np.uint8)
_FLIPS = _BYTES ^ np.array(_COORD_MASKS, dtype=np.uint8)[:, None]  # x with bit i flipped
_ROW_BASE = np.arange(0, 256 * 256, 256)[:, None]  # dx * 256, the DDT row offsets


@functools.cache
def _hadamard() -> np.ndarray:
    """The 256x256 Sylvester-Hadamard matrix, H[i, j] = (-1)^parity(i & j),
    built on first use so that processes that never analyse a box skip it."""
    h = np.where(_PARITY[np.bitwise_and.outer(_BYTES, _BYTES)], np.float32(-1), np.float32(1))
    h.flags.writeable = False
    return h


@functools.cache
def _xor_index() -> np.ndarray:
    """idx[dx, x] = dx ^ x as uint8, the gather index of every DDT row."""
    idx = _BYTES[:, None] ^ _BYTES
    idx.flags.writeable = False
    return idx


def _as_table(s) -> np.ndarray:
    """Coerce an LftSBox / bytes / sequence to a validated bijective table."""
    if isinstance(s, LftSBox):  # validated when the box was made
        return np.frombuffer(s.table, dtype=np.uint8).astype(np.int64)
    vals = list(s)
    audit = validate_table(vals)
    if not audit.bijective:
        raise SBoxValidationError(audit)
    return np.array(vals, dtype=np.int64)


@functools.lru_cache(maxsize=16)  # the boxes of one family
def _found(key: bytes) -> dict:
    """The LP and DP results measured so far for the table with bytes `key`."""
    return {}


def _measured(s, criterion: str, kernel):
    """kernel(table) for the validated table of s, computed once per table
    while it stays among the 16 most recently measured ones."""
    table = _as_table(s)
    found = _found(table.astype(np.uint8).tobytes())
    if criterion not in found:
        found[criterion] = kernel(table)
    return found[criterion]


def _spectra(table: np.ndarray, masks=None) -> np.ndarray:
    """Walsh spectra of the output masks Gy in `masks` (all 256 when None),
    one row each: entry (row, Gx) is the sum over x of
    (-1)^(parity(Gy & s(x)) + parity(Gx & x)).

    The rows of H for the masks, their columns gathered by the table, times
    H: one float32 matrix product, exact because every partial sum is an
    integer of magnitude at most 256.
    """
    h = _hadamard()
    rows = h if masks is None else np.take(h, masks, axis=0)
    return np.take(rows, table, axis=1) @ h


def _nonlinearities(w: np.ndarray) -> np.ndarray:
    """2^7 - max|W|/2 for each spectrum row of w."""
    return 128 - np.abs(w).max(axis=1).astype(np.int64) // 2


def nonlinearity(s) -> tuple[list[int], float]:
    """Per-coordinate nonlinearity 2^7 - max|W|/2 and the mean over the 8."""
    per = _nonlinearities(_spectra(_as_table(s), _COORD_MASKS)).tolist()
    return per, sum(per) / 8.0


def sac_matrix(s) -> tuple[np.ndarray, float]:
    """Entry (i, j): fraction of inputs where flipping input bit i flips
    output bit j; also the mean over all 64 entries."""
    table = _as_table(s)
    d = table ^ table[_FLIPS]  # d[i, x] = s(x) + s(x with bit i flipped)
    m = (d[:, :, None] >> np.arange(8) & 1).mean(axis=1)
    return m, float(m.mean())


def bic(s) -> tuple[float, float]:
    """Mean nonlinearity and mean SAC over XORs of all output-bit pairs."""
    table = _as_table(s)
    nls = _nonlinearities(_spectra(table, _PAIR_MASKS))
    d = table ^ table[_FLIPS]
    sacs = _PARITY[d[:, :, None] & _PAIR_MASKS]
    return float(np.mean(nls)), float(sacs.mean())


def _linear_probability(table: np.ndarray) -> tuple[int, float]:
    w = _spectra(table)[1:, 1:]  # drop Gy = 0 and Gx = 0
    hi, lo = int(w.max()), int(w.min())
    return (256 + hi) // 2, max(hi, -lo) / 512


def linear_probability(s) -> tuple[int, float]:
    """Max match count over nonzero mask pairs and max bias |count/256 - 1/2|.

    count(Gx, Gy) = #{x : parity(x & Gx) = parity(s(x) & Gy)}, recovered
    from the Walsh spectrum as (256 + W_Gy(Gx)) / 2.  Measured once per
    table while it is among the 16 most recently measured.
    """
    return _measured(s, "lp", _linear_probability)


def _ddt(table: np.ndarray) -> np.ndarray:
    """Full 256x256 DDT; row dx, column dy, entries count inputs."""
    keys = np.take(table, _xor_index())  # keys[dx, x] = s(x + dx)
    keys ^= table  # dy = s(x) + s(x + dx)
    keys |= _ROW_BASE  # dx * 256 + dy
    return np.bincount(keys.ravel(), minlength=256 * 256).reshape(256, 256)


def _differential_probability(table: np.ndarray) -> float:
    return int(_ddt(table)[1:].max()) / 256


def differential_probability(s) -> float:
    """Max over dx != 0 and all dy of #{x : s(x)+s(x+dx) = dy} / 256.
    Measured once per table while it is among the 16 most recently measured."""
    return _measured(s, "dp", _differential_probability)


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
    """Compute all six criteria for one bijective 8x8 S-box."""
    per, avg = nonlinearity(s)
    _, sac_mean = sac_matrix(s)
    bic_nl, bic_sac = bic(s)
    lp_count, lp_bias = linear_probability(s)
    dp = differential_probability(s)
    return StrengthReport(
        nl_per_coordinate=tuple(per),
        nl_min=min(per),
        nl_average=avg,
        sac_mean=sac_mean,
        bic_nl=bic_nl,
        bic_sac=bic_sac,
        lp_count=lp_count,
        lp_bias=lp_bias,
        dp=dp,
    )
