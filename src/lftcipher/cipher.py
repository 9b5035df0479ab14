"""The two-phase image cipher: permute, XOR-mask, then substitute.

Encryption takes each channel plane in row-major pixel order (3-channel
images are processed plane by plane with the same keystream), shuffles
positions with the rank permutation of k, XORs the mask stream, and
substitutes every byte through the S-box chosen by its selector.
Decryption applies the exact inverse stages in reverse order; the mask and
permutation do not commute, so the stage order is normative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import golden, lorenz
from .lorenz import Keystream, LorenzParams
from .sbox import LftSBox, build_family

_GATHER_BLOCK = 1 << 16  # index entries per take: a 512 KB intp buffer


@dataclass(frozen=True)
class ImageBuffer:
    """An m x n (or m x n x 3) byte raster, row-major, channels interleaved."""

    width: int
    height: int
    channels: int
    data: bytes

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"dimensions must be positive, got {self.width}x{self.height}")
        if self.channels not in (1, 3):
            raise ValueError(f"channels must be 1 or 3, got {self.channels}")
        expected = self.width * self.height * self.channels
        if len(self.data) != expected:
            raise ValueError(
                f"data length {len(self.data)} != {self.width}x{self.height}x{self.channels}"
                f" = {expected}"
            )

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def to_array(self) -> np.ndarray:
        arr = np.frombuffer(self.data, dtype=np.uint8)
        if self.channels == 1:
            return arr.reshape(self.height, self.width)
        return arr.reshape(self.height, self.width, self.channels)

    @classmethod
    def from_array(cls, arr) -> ImageBuffer:
        a = np.asarray(arr)
        if a.dtype != np.uint8:
            raise ValueError(f"array must be uint8, got {a.dtype}")
        if a.ndim == 2:
            h, w = a.shape
            ch = 1
        elif a.ndim == 3 and a.shape[2] in (1, 3):
            h, w, ch = a.shape
        else:
            raise ValueError(f"unsupported array shape {a.shape}")
        return cls(w, h, ch, a.tobytes())


@dataclass(frozen=True)
class CipherKey:
    """Lorenz parameters plus the 16-box S-box family they select from."""

    lorenz: LorenzParams
    lft: tuple[int, int, int, int]
    polys: tuple[int, ...]
    sboxes: tuple[LftSBox, ...]

    @classmethod
    def create(
        cls,
        params: LorenzParams,
        lft: tuple[int, int, int, int] = golden.DEFAULT_LFT,
        polys: tuple[int, ...] = golden.PRIMITIVE_POLY_MASKS,
    ) -> CipherKey:
        sboxes = build_family(*lft, polys=polys)  # checks polys, once
        return cls(params, tuple(lft), tuple(box.provenance.reduction for box in sboxes), sboxes)

    def keystream(self, length: int) -> Keystream:
        return lorenz.keystream(self.lorenz, length)


def permute(v, perm) -> np.ndarray:
    """out[i] = v[perm[i]]."""
    v = np.asarray(v)
    perm = np.asarray(perm)
    if v.shape != perm.shape:
        raise ValueError(f"length mismatch: vector {v.size}, permutation {perm.size}")
    return np.take(v, perm)


def inverse_permute(v, perm) -> np.ndarray:
    """Inverse of permute: out[perm[i]] = v[i]."""
    v = np.asarray(v)
    perm = np.asarray(perm)
    if v.shape != perm.shape:
        raise ValueError(f"length mismatch: vector {v.size}, permutation {perm.size}")
    out = np.empty_like(v)
    out[perm] = v
    return out


def xor_mask(v, mask) -> np.ndarray:
    """Elementwise XOR; applying the same mask twice is the identity."""
    v = np.asarray(v)
    mask = np.asarray(mask)
    if v.shape != mask.shape:
        raise ValueError(f"length mismatch: vector {v.size}, mask {mask.size}")
    return v ^ mask


def _lookup(v, selectors, sboxes, inverse: bool) -> np.ndarray:
    """One gather through the concatenated tables: entry selector * 256 + byte.

    Row/column selection by high/low nibble is exactly a full-byte lookup,
    since row*16 + column reassembles the byte.  np.take wants an intp
    index, so the index is built in one reused intp buffer and gathered
    _GATHER_BLOCK entries at a time, not made whole.  Every entry is in
    range (the selectors are checked, bytes are below 256), so mode="clip"
    changes nothing but spares take from buffering `out`.
    """
    v = np.asarray(v)
    selectors = np.asarray(selectors)
    if v.dtype != np.uint8:
        raise ValueError(f"vector must be uint8 bytes, got {v.dtype}")
    if v.shape != selectors.shape:
        raise ValueError(f"length mismatch: vector {v.size}, selectors {selectors.size}")
    if selectors.size and not 0 <= int(selectors.min()) <= int(selectors.max()) < len(sboxes):
        raise ValueError(
            f"selectors {int(selectors.min())}..{int(selectors.max())}"
            f" out of range for {len(sboxes)} S-boxes"
        )
    tables = np.frombuffer(b"".join(s.inverse if inverse else s.table for s in sboxes), np.uint8)
    out = np.empty(v.shape, dtype=np.uint8)
    v, selectors, gathered = v.reshape(-1), selectors.reshape(-1), out.reshape(-1)
    buf = np.empty(min(v.size, _GATHER_BLOCK), dtype=np.intp)
    for start in range(0, v.size, _GATHER_BLOCK):
        block = slice(start, start + _GATHER_BLOCK)
        index = buf[: min(_GATHER_BLOCK, v.size - start)]
        index[...] = selectors[block]
        index <<= 8
        index |= v[block]
        np.take(tables, index, out=gathered[block], mode="clip")
    return out


def substitute(v, selectors, sboxes) -> np.ndarray:
    """Per position, replace the byte through the selector-designated S-box."""
    return _lookup(v, selectors, sboxes, inverse=False)


def inverse_substitute(v, selectors, sboxes) -> np.ndarray:
    """Undo substitute using the inverse tables."""
    return _lookup(v, selectors, sboxes, inverse=True)


def _stage_streams(img: ImageBuffer, key: CipherKey) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (perm, mask, selectors) the stages read; k is not among them.

    Only these three arrays outlive the call, so k and the integrator
    buffer it views are freed before any stage output is allocated.
    """
    ks = key.keystream(img.pixel_count)
    return ks.perm, ks.mask, ks.selectors


def _map_planes(img: ImageBuffer, stage) -> ImageBuffer:
    """Apply `stage` to each channel plane, its pixels in row-major order.

    The planes are strided views of the (pixels, channels) array, so no
    plane-major copy of the image is made.
    """
    pixels = np.frombuffer(img.data, dtype=np.uint8).reshape(img.pixel_count, img.channels)
    out = np.empty_like(pixels)
    for ch in range(img.channels):
        out[:, ch] = stage(pixels[:, ch])
    return ImageBuffer(img.width, img.height, img.channels, out.tobytes())


def encrypt(img: ImageBuffer, key: CipherKey) -> ImageBuffer:
    """permute -> xor_mask -> substitute, on each channel plane.

    The stream is derived here, and the stages run holding only perm, the
    mask and the selectors, not k.
    """
    perm, mask, selectors = _stage_streams(img, key)
    return _map_planes(
        img, lambda v: substitute(xor_mask(permute(v, perm), mask), selectors, key.sboxes)
    )


def decrypt(img: ImageBuffer, key: CipherKey) -> ImageBuffer:
    """Exact inverse of encrypt: unsubstitute -> unmask -> unpermute,
    again holding only perm, the mask and the selectors."""
    perm, mask, selectors = _stage_streams(img, key)
    return _map_planes(
        img,
        lambda v: inverse_permute(
            xor_mask(inverse_substitute(v, selectors, key.sboxes), mask), perm
        ),
    )
