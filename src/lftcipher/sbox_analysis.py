"""Strength criteria for 8x8 substitution boxes.

All metrics are exhaustive, never sampled: nonlinearity and linear
probability come from full Walsh spectra, differential probability from
the complete difference distribution table, SAC/BIC from all input-bit
flips.  A full report on one box runs in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sbox import LftSBox, SBoxValidationError, validate_table

_PARITY = np.array([bin(v).count("1") & 1 for v in range(256)], dtype=np.int64)
_COORD_MASKS = tuple(1 << j for j in range(8))
_PAIR_MASKS = tuple(
    (1 << j) | (1 << k) for j in range(8) for k in range(j + 1, 8)
)


def _as_table(s) -> np.ndarray:
    """Coerce an LftSBox / bytes / sequence to a validated bijective table."""
    if isinstance(s, LftSBox):  # validated when the box was made
        return np.frombuffer(s.table, dtype=np.uint8).astype(np.int64)
    vals = list(s)
    audit = validate_table(vals)
    if not audit.bijective:
        raise SBoxValidationError(audit)
    return np.array(vals, dtype=np.int64)


def fwht(values) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of two)."""
    a = np.array(values, dtype=np.int64, copy=True)
    n = a.shape[-1]
    h = 1
    while h < n:
        for i in range(0, n, 2 * h):
            lo = a[..., i : i + h].copy()
            hi = a[..., i + h : i + 2 * h].copy()
            a[..., i : i + h] = lo + hi
            a[..., i + h : i + 2 * h] = lo - hi
        h *= 2
    return a


def walsh_spectrum(bool_values) -> np.ndarray:
    """Spectrum of a Boolean function given as 0/1 values over all inputs."""
    f = np.asarray(bool_values, dtype=np.int64)
    return fwht(1 - 2 * f)


def _mask_spectra(table: np.ndarray, masks) -> np.ndarray:
    """Walsh spectra of parity(table & mask) for each output mask, stacked."""
    f = _PARITY[np.bitwise_and.outer(np.asarray(masks, dtype=np.int64), table)]
    return fwht(1 - 2 * f)


def _nl_from_spectrum(w: np.ndarray) -> int:
    return int(128 - np.max(np.abs(w)) // 2)


def nonlinearity(s) -> tuple[list[int], float]:
    """Per-coordinate nonlinearity 2^7 - max|W|/2 and the mean over the 8."""
    table = _as_table(s)
    w = _mask_spectra(table, _COORD_MASKS)
    per = [_nl_from_spectrum(w[j]) for j in range(8)]
    return per, sum(per) / 8.0


def sac_matrix(s) -> tuple[np.ndarray, float]:
    """Entry (i, j): fraction of inputs where flipping input bit i flips
    output bit j; also the mean over all 64 entries."""
    table = _as_table(s)
    xs = np.arange(256)
    m = np.empty((8, 8))
    for i in range(8):
        d = table ^ table[xs ^ (1 << i)]
        for j in range(8):
            m[i, j] = np.mean(d >> j & 1)
    return m, float(m.mean())


def bic(s) -> tuple[float, float]:
    """Mean nonlinearity and mean SAC over XORs of all output-bit pairs."""
    table = _as_table(s)
    xs = np.arange(256)
    w = _mask_spectra(table, _PAIR_MASKS)
    nls = [_nl_from_spectrum(w[p]) for p in range(len(_PAIR_MASKS))]
    sacs = []
    for mask in _PAIR_MASKS:
        g = _PARITY[table & mask]
        for i in range(8):
            sacs.append(np.mean(g ^ g[xs ^ (1 << i)]))
    return float(np.mean(nls)), float(np.mean(sacs))


def linear_probability(s) -> tuple[int, float]:
    """Max match count over nonzero mask pairs and max bias |count/256 - 1/2|.

    count(Gx, Gy) = #{x : parity(x & Gx) = parity(s(x) & Gy)}, recovered
    from the Walsh spectrum as (256 + W_Gy(Gx)) / 2.
    """
    table = _as_table(s)
    w = _mask_spectra(table, range(1, 256))[:, 1:]  # drop Gx = 0
    max_count = int((256 + w.max()) // 2)
    max_bias = float(np.abs(w).max() / 512)
    return max_count, max_bias


def difference_distribution_table(s) -> np.ndarray:
    """Full 256x256 DDT; row dx, column dy, entries count inputs."""
    table = _as_table(s)
    xs = np.arange(256)
    dx = xs[:, None]
    dy = table ^ table[dx ^ xs]  # dy[dx, x] = s(x) + s(x + dx)
    return np.bincount((dx * 256 + dy).ravel(), minlength=256 * 256).reshape(256, 256)


def differential_probability(s) -> float:
    """Max over dx != 0 and all dy of #{x : s(x)+s(x+dx) = dy} / 256."""
    return int(difference_distribution_table(s)[1:].max()) / 256


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
