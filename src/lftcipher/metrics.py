"""Statistical and security analyses for images and keys.

Correlation runs over the full adjacent-pair population by default for
determinism; a seeded sampled mode exists for parity with tools that use
random pairs.  GLCM features use a single configurable offset, (0, 1) by
default.  Multi-channel images pool pairs/bytes across channel planes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cipher import CipherKey, ImageBuffer, decrypt, encrypt
from .sbox_analysis import differential_probability, linear_probability

PGL_ORDER = 16776960  # invertible fractional transforms over GF(2^8), up to scale

_COUNT_CHUNK = 1 << 16  # elements per bincount call: a 512 KB intp buffer at most


@dataclass(frozen=True)
class AvalancheReport:
    npcr: float  # percent of differing byte positions
    uaci: float  # mean absolute difference as percent of 255
    location: str | None = None


@dataclass(frozen=True, eq=False)
class NoiseReport:
    corrupted: int
    match_fraction: float
    mean_abs_error: float
    recovered: ImageBuffer


class TooFewPairsError(ValueError):
    """The image is too narrow or too short to have adjacent pairs."""


class GlcmFeatures(NamedTuple):
    contrast: float
    homogeneity: float
    energy: float


def _planes(img: ImageBuffer):
    arr = img.to_array()
    if img.channels == 1:
        yield arr
    else:
        for ch in range(img.channels):
            yield arr[:, :, ch]


def adjacency_correlation(
    img: ImageBuffer,
    direction: str = "horizontal",
    sample_pairs: int | None = None,
    seed: int | None = None,
) -> float | None:
    """Pearson correlation of adjacent pixel pairs along one direction.

    Returns None (not 0) when either side of the pair population has zero
    variance, e.g. for a constant image.  With sample_pairs set, that many
    pairs are drawn with a seeded generator instead of the full population.
    Raises TooFewPairsError when the image has no pair in that direction.
    """
    if direction not in ("horizontal", "vertical"):
        raise ValueError(f"direction must be horizontal or vertical, got {direction!r}")
    if sample_pairs is not None and sample_pairs < 1:
        raise ValueError(f"sample_pairs must be at least 1, got {sample_pairs}")
    pairs = []
    for plane in _planes(img):
        if direction == "horizontal":
            if plane.shape[1] < 2:
                raise TooFewPairsError("image too narrow for horizontal pairs")
            pairs.append((plane[:, :-1], plane[:, 1:]))
        else:
            if plane.shape[0] < 2:
                raise TooFewPairsError("image too short for vertical pairs")
            pairs.append((plane[:-1, :], plane[1:, :]))
    if sample_pairs is not None:
        a = np.concatenate([a.ravel() for a, _ in pairs])
        b = np.concatenate([b.ravel() for _, b in pairs])
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, a.size, size=sample_pairs)
        pairs = [(a[idx], b[idx])]
    # exact integer moments over uint8 views: no float copy of the population,
    # and n * sum(a*a) - sum(a)**2 is exactly zero only for a constant side
    n = sa = sb = saa = sbb = sab = 0
    for a, b in pairs:
        n += a.size
        sa += int(a.sum(dtype=np.int64))
        sb += int(b.sum(dtype=np.int64))
        saa += int(np.square(a, dtype=np.uint16).sum(dtype=np.int64))
        sbb += int(np.square(b, dtype=np.uint16).sum(dtype=np.int64))
        sab += int(np.multiply(a, b, dtype=np.uint16).sum(dtype=np.int64))
    var_a = n * saa - sa * sa
    var_b = n * sbb - sb * sb
    if var_a == 0 or var_b == 0:
        return None
    return (n * sab - sa * sb) / math.sqrt(var_a * var_b)


def _histogram(values: np.ndarray, size: int) -> np.ndarray:
    """Counts of each value in 0..size-1 of a 1-D unsigned integer array.

    np.bincount converts its input to intp, so it is fed fixed-size chunks,
    each copied into one reused intp buffer, rather than the whole array.
    """
    counts = np.zeros(size, dtype=np.int64)
    buf = np.empty(min(values.size, _COUNT_CHUNK), dtype=np.intp)
    for start in range(0, values.size, _COUNT_CHUNK):
        chunk = values[start : start + _COUNT_CHUNK]
        part = buf[: chunk.size]
        np.copyto(part, chunk)
        counts += np.bincount(part, minlength=size)
    return counts


def entropy(img: ImageBuffer) -> float:
    """Shannon entropy of the byte histogram, in bits; 0*log(0) = 0."""
    counts = _histogram(np.frombuffer(img.data, dtype=np.uint8), 256)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def glcm(img: ImageBuffer, offset: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Normalized 256x256 gray-level co-occurrence matrix for one offset."""
    dr, dc = offset
    if dr == 0 and dc == 0:
        raise ValueError("offset must be nonzero")
    counts = np.zeros(256 * 256, dtype=np.int64)
    total = 0
    for plane in _planes(img):
        h, w = plane.shape
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r1 <= r0 or c1 <= c0:
            raise ValueError(f"image too small for GLCM offset ({dr},{dc})")
        pair = plane[r0:r1, c0:c1].astype(np.uint16)  # first << 8 | second
        pair <<= 8
        pair |= plane[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        counts += _histogram(pair.ravel(), 256 * 256)
        total += pair.size
    return (counts / total).reshape(256, 256)


def glcm_features(img: ImageBuffer, offset: tuple[int, int] = (0, 1)) -> GlcmFeatures:
    """Contrast, homogeneity and energy of the normalized GLCM."""
    p = glcm(img, offset)
    i, j = np.nonzero(p)
    v = p[i, j]
    diff = np.abs(i - j).astype(np.float64)
    contrast = float((diff**2 * v).sum())
    homogeneity = float((v / (1.0 + diff)).sum())
    energy = float((v**2).sum())
    return GlcmFeatures(contrast, homogeneity, energy)


def chi_square_uniform(img: ImageBuffer) -> float:
    """Chi-square statistic of the byte histogram against uniform (255 dof)."""
    counts = _histogram(np.frombuffer(img.data, dtype=np.uint8), 256)
    expected = counts.sum() / 256
    return float(((counts - expected) ** 2 / expected).sum())


def npcr_uaci(c1: ImageBuffer, c2: ImageBuffer, location: str | None = None) -> AvalancheReport:
    """Byte change rate and mean intensity change between two images."""
    if (c1.width, c1.height, c1.channels) != (c2.width, c2.height, c2.channels):
        raise ValueError(
            f"dimension mismatch: {c1.width}x{c1.height}x{c1.channels} vs "
            f"{c2.width}x{c2.height}x{c2.channels}"
        )
    a = np.frombuffer(c1.data, dtype=np.uint8)
    b = np.frombuffer(c2.data, dtype=np.uint8)
    diff = np.subtract(a, b, dtype=np.int16)
    np.abs(diff, out=diff)
    npcr = int(np.count_nonzero(diff)) / a.size * 100
    uaci = int(diff.sum(dtype=np.int64)) / 255 / a.size * 100
    return AvalancheReport(npcr, uaci, location)


def noise_experiment(img: ImageBuffer, key: CipherKey, corrupted: int) -> NoiseReport:
    """Encrypt, overwrite the first `corrupted` ciphertext bytes with 255,
    decrypt, and report how much of the plaintext survives."""
    if not 0 <= corrupted <= len(img.data):
        raise ValueError(f"corrupted must be in 0..{len(img.data)}, got {corrupted}")
    ct = encrypt(img, key)
    damaged = bytearray(ct.data)
    damaged[:corrupted] = b"\xff" * corrupted
    recovered = decrypt(ImageBuffer(ct.width, ct.height, ct.channels, bytes(damaged)), key)
    a = np.frombuffer(img.data, dtype=np.uint8).astype(np.int64)
    b = np.frombuffer(recovered.data, dtype=np.uint8).astype(np.int64)
    return NoiseReport(
        corrupted=corrupted,
        match_fraction=float((a == b).mean()),
        mean_abs_error=float(np.abs(a - b).mean()),
        recovered=recovered,
    )


def keyspace_report(key: CipherKey) -> str:
    """Human-readable account of the effective key space."""
    ic_bits = 3 * 53  # three float64 initial conditions, 53 significand bits each
    sbox_bits = math.log2(PGL_ORDER * len(key.polys))
    total = ic_bits + sbox_bits
    lines = [
        "key space report",
        "----------------",
        "initial conditions: 3 IEEE-754 doubles -> about 2^159 keys (3 x 53 significand bits)",
        f"transform choice: {PGL_ORDER} transforms x {len(key.polys)} polynomials"
        f" -> log2({PGL_ORDER}) = {math.log2(PGL_ORDER):.1f} bits per field,"
        f" 2^{sbox_bits:.1f} total",
        f"implementation total: about 2^{total:.0f}",
        "claimed figure: 10^60 (original design claim), about 2^199",
    ]
    return "\n".join(lines)


def cryptanalysis_report(sboxes) -> str:
    """Measured per-box LP/DP maxima plus the multiplicative extrapolation
    used in the original design, labeled as a heuristic (not a proven bound)."""
    lp_biases = []
    dps = []
    for s in sboxes:
        _, bias = linear_probability(s)
        lp_biases.append(bias)
        dps.append(differential_probability(s))
    lp_exp = -math.log2(sum(lp_biases) / len(lp_biases))
    dp_exp = -math.log2(sum(dps) / len(dps))
    lines = [
        "cryptanalysis report (measured, exhaustive per box)",
        "---------------------------------------------------",
        f"boxes analyzed: {len(dps)}",
        f"average max linear bias: 2^-{lp_exp:.2f}"
        f" (per-box max counts/biases measured over all nonzero mask pairs)",
        f"average max differential probability: 2^-{dp_exp:.2f}",
        f"256-box multiplicative extrapolation: LP 2^-{lp_exp * 256:.0f},"
        f" DP 2^-{dp_exp * 256:.0f}"
        " (heuristic product bound, not a proven multi-round bound)",
    ]
    return "\n".join(lines)
