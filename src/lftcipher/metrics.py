"""Statistical and security analyses for images and keys.

Correlation runs over the full adjacent-pair population by default for
determinism; a seeded sampled mode exists for parity with tools that use
random pairs.  GLCM features use a single configurable offset, (0, 1) by
default.  Multi-channel images pool pairs/bytes across channel planes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cipher import CipherKey, ImageBuffer, decrypt, encrypt
from .lorenz import MAX_KEYSTREAM_LENGTH
from .sbox_analysis import differential_probability, linear_probability

_COUNT_CHUNK = 1 << 16  # elements per bincount call: a 512 KB intp buffer at most


@dataclass(frozen=True)
class AvalancheReport:
    npcr: float  # percent of differing byte positions
    uaci: float  # mean absolute difference as percent of 255


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


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of a * b over two uint8 arrays of one shape.

    The uint16 products are formed for blocks of leading rows, about
    _COUNT_CHUNK elements each, so no temporary grows with the image.
    """
    rows = max(1, _COUNT_CHUNK // math.prod(a.shape[1:]))
    return sum(
        int(np.multiply(a[i : i + rows], b[i : i + rows], dtype=np.uint16).sum(dtype=np.int64))
        for i in range(0, len(a), rows)
    )


def _sums(x: np.ndarray) -> tuple[int, int]:
    """Exact sum and sum of squares of a uint8 array."""
    return int(x.sum(dtype=np.int64)), _dot(x, x)


def adjacency_correlation(
    img: ImageBuffer,
    direction: str = "horizontal",
    sample_pairs: int | None = None,
    seed: int | None = None,
) -> float | None:
    """Pearson correlation of adjacent pixel pairs along one direction.

    Returns None (not 0) when either side of the pair population has zero
    variance, e.g. for a constant image.  With sample_pairs set, that many
    pairs (at most MAX_KEYSTREAM_LENGTH) are drawn with a seeded generator
    instead of the full population.
    Raises TooFewPairsError when the image has no pair in that direction.
    """
    if direction not in ("horizontal", "vertical"):
        raise ValueError(f"direction must be horizontal or vertical, got {direction!r}")
    if sample_pairs is not None and not 1 <= sample_pairs <= MAX_KEYSTREAM_LENGTH:
        raise ValueError(
            f"sample_pairs must be at least 1 and at most {MAX_KEYSTREAM_LENGTH},"
            f" got {sample_pairs}"
        )
    arr = img.to_array()  # (height, width) or (height, width, channels)
    if direction == "horizontal":
        if arr.shape[1] < 2:
            raise TooFewPairsError("image too narrow for horizontal pairs")
        a, b, first, last = arr[:, :-1], arr[:, 1:], arr[:, 0], arr[:, -1]
    else:
        if arr.shape[0] < 2:
            raise TooFewPairsError("image too short for vertical pairs")
        a, b, first, last = arr[:-1], arr[1:], arr[0], arr[-1]
    # exact integer moments over uint8 views: no float copy of the population,
    # and n * sum(a*a) - sum(a)**2 is exactly zero only for a constant side
    if sample_pairs is not None:
        if arr.ndim == 3:  # pool the planes one after another
            a, b = np.moveaxis(a, 2, 0), np.moveaxis(b, 2, 0)
        idx = np.random.default_rng(seed).integers(0, a.size, size=sample_pairs)
        a, b = a.ravel()[idx], b.ravel()[idx]
        (sa, saa), (sb, sbb) = _sums(a), _sums(b)
    else:
        # a is the whole image but its last column (or row), b all but its first
        total, total_sq = _sums(arr)
        (s_first, sq_first), (s_last, sq_last) = _sums(first), _sums(last)
        sa, saa = total - s_last, total_sq - sq_last
        sb, sbb = total - s_first, total_sq - sq_first
    n = a.size
    sab = _dot(a, b)
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
    arr = img.to_array()  # every channel plane is paired at once
    h, w = arr.shape[:2]
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    if r1 <= r0 or c1 <= c0:
        raise ValueError(f"image too small for GLCM offset ({dr},{dc})")
    pair = arr[r0:r1, c0:c1].astype(np.uint16)  # first << 8 | second
    pair <<= 8
    pair |= arr[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    return (_histogram(pair.ravel(), 256 * 256) / pair.size).reshape(256, 256)


@functools.cache
def _glcm_weights() -> tuple[np.ndarray, np.ndarray]:
    """Per-cell weights of contrast, (i - j)^2, and of homogeneity, 1 / (1 + |i - j|)."""
    diff = np.abs(np.subtract.outer(np.arange(256.0), np.arange(256.0)))
    return diff * diff, 1.0 / (1.0 + diff)


def glcm_features(img: ImageBuffer, offset: tuple[int, int] = (0, 1)) -> GlcmFeatures:
    """Contrast, homogeneity and energy of the normalized GLCM."""
    p = glcm(img, offset)
    contrast_w, homogeneity_w = _glcm_weights()
    return GlcmFeatures(
        float(np.vdot(contrast_w, p)), float(np.vdot(homogeneity_w, p)), float(np.vdot(p, p))
    )


def chi_square_uniform(img: ImageBuffer) -> float:
    """Chi-square statistic of the byte histogram against uniform (255 dof)."""
    counts = _histogram(np.frombuffer(img.data, dtype=np.uint8), 256)
    expected = counts.sum() / 256
    return float(((counts - expected) ** 2 / expected).sum())


def _byte_diff(c1: ImageBuffer, c2: ImageBuffer) -> tuple[int, int, int]:
    """(bytes, bytes that differ, sum of |a - b|) over two images of one shape.

    The differences are held in one int16 array, two bytes per image byte.
    """
    if (c1.width, c1.height, c1.channels) != (c2.width, c2.height, c2.channels):
        raise ValueError(
            f"dimension mismatch: {c1.width}x{c1.height}x{c1.channels} vs "
            f"{c2.width}x{c2.height}x{c2.channels}"
        )
    a = np.frombuffer(c1.data, dtype=np.uint8)
    b = np.frombuffer(c2.data, dtype=np.uint8)
    diff = np.subtract(a, b, dtype=np.int16)
    np.abs(diff, out=diff)
    return a.size, int(np.count_nonzero(diff)), int(diff.sum(dtype=np.int64))


def npcr_uaci(c1: ImageBuffer, c2: ImageBuffer) -> AvalancheReport:
    """Byte change rate and mean intensity change between two images."""
    n, changed, total = _byte_diff(c1, c2)
    return AvalancheReport(changed / n * 100, total / 255 / n * 100)


def noise_experiment(img: ImageBuffer, key: CipherKey, corrupted: int) -> NoiseReport:
    """Encrypt, overwrite the first `corrupted` ciphertext bytes with 255,
    decrypt, and report how much of the plaintext survives."""
    if not 0 <= corrupted <= len(img.data):
        raise ValueError(f"corrupted must be in 0..{len(img.data)}, got {corrupted}")
    ct = encrypt(img, key).data
    ct = b"\xff" * corrupted + ct[corrupted:]  # the clean ciphertext is freed here
    recovered = decrypt(ImageBuffer(img.width, img.height, img.channels, ct), key)
    n, changed, total = _byte_diff(img, recovered)
    return NoiseReport(
        corrupted=corrupted,
        match_fraction=(n - changed) / n,
        mean_abs_error=total / n,
        recovered=recovered,
    )


def cryptanalysis_report(sboxes) -> str:
    """Measured per-box LP/DP maxima plus the multiplicative extrapolation
    used in the original design, labeled as a heuristic (not a proven bound)."""
    lp_biases = []
    dps = []
    for s in sboxes:
        _, bias = linear_probability(s)
        lp_biases.append(bias)
        dps.append(differential_probability(s))
    if not dps:
        raise ValueError("cryptanalysis_report needs at least one S-box, got none")
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
