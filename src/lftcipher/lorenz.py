"""Lorenz-system keystream generation.

The system

    dx/dt = a(y - x)
    dy/dt = bx - y - xz
    dz/dt = xy - cz

is integrated with classical fixed-step RK4 (cross-platform determinism;
an adaptive integrator would not give bit-identical streams).  After a
burn-in prefix is discarded, a small disturbance nudges x and y every
10000 samples to break any residual periodicity.  Fractional parts of the
samples, interleaved x1,y1,z1,x2,..., form the sequence k from which the
permutation, XOR mask and S-box selector streams are digested.

All real arithmetic is 64-bit binary floating point; identical parameters
give bit-identical keystreams on one platform.  The step loop runs in a
small C kernel (``_rk4.c``) compiled on first use, and in pure Python when
no compiler is available; the fallback is the same loop as ``lft_rk4``,
with the same IEEE operations in the same order, so both give the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
import numbers
import os
import platform
from dataclasses import dataclass

import numpy as np

DISTURBANCE_INTERVAL = 10000
DEFAULT_BURN_IN = 100
MAX_BURN_IN = 1_000_000
# 8192 x 8192 pixels; also keeps the rank sort's packed index within 26 bits
MAX_KEYSTREAM_LENGTH = 1 << 26
# elements per step of the blocked digest passes; their 128 KB temporaries are
# reused from the malloc heap, where 512 KB ones cost fresh page faults
_BLOCK = 1 << 14
# the largest double below 1.0: x - floor(x) rounds to exactly 1.0 for
# -2^-54 < x < 0, and clamping it here keeps k in [0, 1) and in rank order
_BELOW_ONE = np.nextafter(1.0, 0.0)

_KERNEL_SOURCE = os.path.join(os.path.dirname(__file__), "_rk4.c")
# no FMA contraction and no fast-math: either would change the rounding
# of the RK4 sums and break bit identity with the Python loop
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")


class IntegrationError(ArithmeticError):
    """State became non-finite during integration."""


@dataclass(frozen=True)
class LorenzParams:
    """Coefficients, initial conditions (the secret key) and step size."""

    x0: float
    y0: float
    z0: float
    a: float = 10.0
    b: float = 28.0
    c: float = 8 / 3
    step: float = 0.01
    burn_in: int = DEFAULT_BURN_IN

    def __post_init__(self) -> None:
        for name in ("x0", "y0", "z0", "a", "b", "c", "step"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if isinstance(self.burn_in, bool) or not isinstance(self.burn_in, numbers.Integral):
            raise ValueError(f"burn_in must be an integer, got {self.burn_in!r}")
        if not 0 <= self.burn_in <= MAX_BURN_IN:
            raise ValueError(f"burn_in must be in [0, {MAX_BURN_IN}], got {self.burn_in}")


@dataclass(frozen=True, eq=False)
class Keystream:
    """Digested chaotic material: k in [0,1), permutation, mask, selectors."""

    k: np.ndarray
    perm: np.ndarray
    mask: np.ndarray
    selectors: np.ndarray

    def __len__(self) -> int:
        return len(self.k)


def lorenz_derivatives(
    x: float, y: float, z: float, a: float, b: float, c: float
) -> tuple[float, float, float]:
    """Right-hand side of the Lorenz system."""
    return a * (y - x), b * x - y - x * z, x * y - c * z


def rk4_step(
    x: float, y: float, z: float, a: float, b: float, c: float, h: float
) -> tuple[float, float, float]:
    """One classical 4th-order Runge-Kutta step."""
    k1x, k1y, k1z = lorenz_derivatives(x, y, z, a, b, c)
    k2x, k2y, k2z = lorenz_derivatives(
        x + h / 2 * k1x, y + h / 2 * k1y, z + h / 2 * k1z, a, b, c
    )
    k3x, k3y, k3z = lorenz_derivatives(
        x + h / 2 * k2x, y + h / 2 * k2y, z + h / 2 * k2z, a, b, c
    )
    k4x, k4y, k4z = lorenz_derivatives(
        x + h * k3x, y + h * k3y, z + h * k3z, a, b, c
    )
    return (
        x + h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
        y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
        z + h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z),
    )


def _private_dir(path: str) -> bool:
    """Create `path` with mode 0700 if needed; True if only we can write it."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        st = os.stat(path)
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


@functools.cache
def _load_kernel():
    """The compiled step loop as a ctypes function, or None.

    The shared object is cached per user under
    ``${XDG_CACHE_HOME:-~/.cache}/lftcipher``, named by
    ``importlib.util.source_hash`` of the source, the flags and the machine.
    The name only has to tell kernel builds apart: the directory is refused
    when others can write to it, so a cryptographic hash would add nothing,
    and ``hashlib`` would load OpenSSL's libcrypto (about 3.5 MB resident)
    into every process that integrates.  A miss builds it in a fresh
    temporary directory: inside the cache when that is an absolute path only
    we can write to, and an atomic rename publishes it, so concurrent
    processes never load a partial file; else in the system temp dir.  A
    miss in the cache waits for an exclusive flock on the cache directory
    and looks again, so processes started together compile once.
    """
    try:
        with open(_KERNEL_SOURCE, "rb") as f:
            source = f.read()
        digest = importlib.util.source_hash(
            b"\0".join((source, " ".join(_KERNEL_FLAGS).encode(), platform.machine().encode()))
        ).hex()
        base = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(base):  # unset, empty or relative: the XDG default
            base = os.path.expanduser("~/.cache")
        cache = os.path.join(base, "lftcipher")
        # with no home directory "~" stays unexpanded: never build under the cwd
        private = os.path.isabs(cache) and _private_dir(cache)
        so_path = os.path.join(cache, f"rk4-{digest}.so")
        lock = -1
        if private and not os.path.exists(so_path):
            import fcntl

            try:
                lock = os.open(cache, os.O_RDONLY)
                fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time: the rest find its .so
            except OSError:
                pass  # no lock (NFS, say): each builds its own, the rename stays atomic
        try:
            if private and os.path.exists(so_path):
                lib = ctypes.CDLL(so_path)
            else:
                # only a cache miss compiles; keep these modules off the hit path
                import subprocess
                import tempfile

                with tempfile.TemporaryDirectory(dir=cache if private else None) as tmp:
                    build = os.path.join(tmp, "rk4.so")
                    subprocess.run(
                        ["cc", *_KERNEL_FLAGS, "-o", build, "-x", "c", "-"],
                        input=source,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                        check=True,
                        timeout=120,
                    )
                    lib = ctypes.CDLL(build)
                    if private:
                        os.replace(build, so_path)
        finally:
            if lock >= 0:
                os.close(lock)  # releases the flock
        kernel = lib.lft_rk4
    except Exception:
        # the Python loop gives the same bits, so a kernel that cannot be
        # built or loaded, for whatever reason, costs only speed: stay silent
        return None
    kernel.restype = ctypes.c_int64
    kernel.argtypes = (
        [ctypes.c_double] * 7 + [ctypes.c_int64] * 3 + [ctypes.POINTER(ctypes.c_double)]
    )
    return kernel


def _nonfinite(step: int, burn_in: int) -> IntegrationError:
    """The error for 1-based step `step`, counted from the start of burn-in."""
    if step <= burn_in:
        return IntegrationError(f"non-finite state at burn-in step {step}")
    return IntegrationError(f"non-finite state at step {step}")


def integrate(params: LorenzParams, count: int) -> np.ndarray:
    """Fixed-step RK4 trajectory of `count` samples after burn-in.

    Returns a C-contiguous (count, 3) float64 array whose rows are the
    samples (x, y, z); read flat, it is the interleaved x1, y1, z1, x2, ...
    Post-burn-in samples are indexed t = 1, 2, ...; at every t = 1 mod
    10000 the disturbance is applied to the freshly computed sample (and
    therefore feeds the following steps): x += 0.1, y -= 0.2 when z <= 0,
    else x += 0.2, y -= 0.1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    x, y, z = params.x0, params.y0, params.z0
    a, b, c, h = params.a, params.b, params.c, params.step
    # one block, not three heap arrays: at image sizes it is mapped and
    # unmapped whole, so no small block left above it can pin it in the heap
    out = np.empty((count, 3))
    kernel = _load_kernel()
    if kernel is not None:
        bad = kernel(
            x, y, z, a, b, c, h, params.burn_in, count, DISTURBANCE_INTERVAL,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        )
        if bad:
            raise _nonfinite(bad, params.burn_in)
        return out
    burn_in = params.burn_in
    flat = out.reshape(-1)  # a view, written as the kernel writes it
    for i in range(1, burn_in + count + 1):
        x, y, z = rk4_step(x, y, z, a, b, c, h)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise _nonfinite(i, burn_in)
        t = i - burn_in
        if t < 1:
            continue
        if t % DISTURBANCE_INTERVAL == 1:
            if z <= 0:
                x += 0.1
                y -= 0.2
            else:
                x += 0.2
                y -= 0.1
        flat[3 * t - 3] = x
        flat[3 * t - 2] = y
        flat[3 * t - 1] = z
    return out


def _rank_permutation(k: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.argsort(k, kind="stable") for k in [0, 1), by one sort of packed keys.

    `keys` holds the bit patterns of k + 0.0 (the + 0.0 folds -0.0 into
    +0.0) as uint64; it is sorted in place and returned, viewed as int64, as
    the permutation.  For non-negative doubles the bit patterns order as the
    values do, and below 1.0 the top two bits are clear.  So with b index
    bits, the key (bits >> b) << b | i keeps the 64 - b high bits of k_i
    above the index i; sorting the keys sorts k with ties broken by lower
    index, except inside runs of equal high parts, which are re-ordered by
    (k, index).  Sorted neighbours share a high part exactly when their XOR
    is below 2^b.  The keys' top two bits stay clear, so read as doubles
    they are finite and non-negative and order as the integers do; they are
    sorted as float64, which numpy sorts faster than uint64.  The indices
    are ORed in and the ties found _BLOCK keys at a time through one
    scratch block, so no full-size temporary is made.
    """
    n = k.size
    perm = keys.view(np.int64)
    b = (n - 1).bit_length()
    low = np.uint64((1 << b) - 1)
    keys >>= b
    keys <<= b
    scratch = np.arange(min(n, _BLOCK), dtype=np.uint64)  # the first block's indices
    for start in range(0, n, _BLOCK):
        block = keys[start : start + _BLOCK]
        block |= scratch[: block.size]
        scratch += _BLOCK
    keys.view(np.float64).sort()
    ties = []
    for start in range(0, n - 1, _BLOCK):
        block = keys[start : start + _BLOCK + 1]
        step = np.bitwise_xor(block[1:], block[:-1], out=scratch[: block.size - 1])
        tied = np.flatnonzero(step <= low)
        if tied.size:
            ties.append(tied + start)
    if ties:
        tied = np.concatenate(ties)
        # not np.union1d: np.unique's first call in a process costs 15-30 ms
        pos = np.concatenate((tied, tied + 1))
        pos.sort()
        pos = pos[np.diff(pos, prepend=-1) > 0]
        high = keys[pos] >> b  # saved before the indices are masked out
    keys &= low
    if ties:
        idx = perm[pos]
        perm[pos] = idx[np.lexsort((idx, k[idx], high))]
    return perm


def derive_keystream(k) -> Keystream:
    """Digest a k sequence (entries in [0,1)) into the cipher's streams.

    mask[i]      = round(k_i * 10^4) mod 256, round half away from zero
    perm         = stable argsort of k (ties broken by lower index first)
    selectors[i] = floor(k_i * 10^4) mod 16, one of the family's 16 boxes

    The position shuffle is realized as the rank permutation of k, the
    standard reading for this family of designs.  k_i * 10^4 lies in
    [0, 10^4], so truncation toward zero is the floor and uint16 holds it.
    A float64 array k is kept as the Keystream's k, not copied.  Beyond k,
    one full-size float64 buffer is made: it holds k * 10^4, then the sort
    keys, and is returned, viewed as int64, as perm.  The mask and
    selector bytes are written _BLOCK entries at a time, so their uint16
    temporaries stay small.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 1:
        raise ValueError("k must be one-dimensional")
    if k.size and not (k.min() >= 0.0 and k.max() < 1.0):
        raise ValueError("k entries must lie in [0, 1)")
    scaled = k * 1e4
    mask = np.empty(k.size, dtype=np.uint8)
    selectors = np.empty(k.size, dtype=np.uint8)
    for start in range(0, k.size, _BLOCK):
        block = scaled[start : start + _BLOCK]
        floor = block.astype(np.uint16)
        floor &= 15
        selectors[start : start + _BLOCK] = floor
        block += 0.5
        mask[start : start + _BLOCK] = block.astype(np.uint16)  # the low byte
    keys = np.add(k, 0.0, out=scaled).view(np.uint64)  # scaled is spent
    return Keystream(k=k, perm=_rank_permutation(k, keys), mask=mask, selectors=selectors)


def keystream(params: LorenzParams, length: int) -> Keystream:
    """Integrate, take fractional parts and digest in one call.

    k is the flat trajectory itself, reduced to its fractional parts in
    place _BLOCK samples at a time, so derive_keystream's buffer is the only
    full-size float array made beyond it.  A fractional part that rounds to
    1.0 is taken as the largest double below 1.0.
    """
    if not 1 <= length <= MAX_KEYSTREAM_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_KEYSTREAM_LENGTH}], got {length}")
    k = integrate(params, -(-length // 3)).reshape(-1)[:length]  # a view: rows are x, y, z
    whole = np.empty(min(length, _BLOCK))
    for start in range(0, length, _BLOCK):
        block = k[start : start + _BLOCK]
        # the fractional part, in [0, 1) for either sign
        block -= np.floor(block, out=whole[: block.size])
        np.minimum(block, _BELOW_ONE, out=block)
    return derive_keystream(k)
