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
no compiler is available; both do the same IEEE operations in the same
order, so they return the same bits.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import platform
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DISTURBANCE_INTERVAL = 10000
DEFAULT_BURN_IN = 100
MAX_BURN_IN = 1_000_000
# 8192 x 8192 pixels; also keeps the rank sort's packed index within 26 bits
MAX_KEYSTREAM_LENGTH = 1 << 26

_KERNEL_SOURCE = Path(__file__).with_name("_rk4.c")
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
class LorenzTrajectory:
    """Raw or normalized (x, y, z) sample streams."""

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray

    def __len__(self) -> int:
        return len(self.xs)


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


def _compile_kernel(source: bytes, out: str) -> None:
    import subprocess  # only a cache miss compiles; keep it out of import time

    subprocess.run(
        ["cc", *_KERNEL_FLAGS, "-o", out, "-x", "c", "-"],
        input=source,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=120,
    )


def _private_dir(path: Path) -> bool:
    """Create `path` with mode 0700 if needed; True if only we can write it."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = path.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


@functools.cache
def _load_kernel():
    """The compiled step loop as a ctypes function, or None.

    The shared object is cached per user under
    ``${XDG_CACHE_HOME:-~/.cache}/lftcipher``, named by a sha256 of the
    source, the flags and the machine, and published with an atomic
    rename so concurrent processes never load a partial file.  When that
    directory cannot be used it is built in a private temporary directory
    that is removed once loaded.
    """
    import hashlib  # not needed until the first integrate call

    try:
        source = _KERNEL_SOURCE.read_bytes()
        digest = hashlib.sha256(
            b"\0".join((source, " ".join(_KERNEL_FLAGS).encode(), platform.machine().encode()))
        ).hexdigest()
        base = os.environ.get("XDG_CACHE_HOME", "")
        if not os.path.isabs(base):  # unset, empty or relative: the XDG default
            base = os.path.expanduser("~/.cache")
        cache = Path(base) / "lftcipher"
        if _private_dir(cache):
            so_path = cache / f"rk4-{digest}.so"
            if not so_path.exists():
                fd, tmp = tempfile.mkstemp(dir=cache, prefix="rk4-", suffix=".tmp")
                os.close(fd)
                try:
                    _compile_kernel(source, tmp)
                    os.replace(tmp, so_path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            lib = ctypes.CDLL(str(so_path))
        else:
            with tempfile.TemporaryDirectory() as tmp:
                so_path = os.path.join(tmp, "rk4.so")
                _compile_kernel(source, so_path)
                lib = ctypes.CDLL(so_path)
        kernel = lib.lft_rk4
    except Exception:
        # the Python loop gives the same bits, so a kernel that cannot be
        # built or loaded, for whatever reason, costs only speed: stay silent
        return None
    kernel.restype = ctypes.c_int64
    kernel.argtypes = (
        [ctypes.c_double] * 7 + [ctypes.c_int64] * 3 + [ctypes.POINTER(ctypes.c_double)] * 3
    )
    return kernel


def _nonfinite(step: int, burn_in: int) -> IntegrationError:
    """The error for 1-based step `step`, counted from the start of burn-in."""
    if step <= burn_in:
        return IntegrationError(f"non-finite state at burn-in step {step}")
    return IntegrationError(f"non-finite state at step {step}")


def integrate(params: LorenzParams, count: int) -> LorenzTrajectory:
    """Fixed-step RK4 trajectory of `count` samples after burn-in.

    Post-burn-in samples are indexed t = 1, 2, ...; at every t = 1 mod
    10000 the disturbance is applied to the freshly computed sample (and
    therefore feeds the following steps): x += 0.1, y -= 0.2 when z <= 0,
    else x += 0.2, y -= 0.1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    x, y, z = params.x0, params.y0, params.z0
    a, b, c, h = params.a, params.b, params.c, params.step
    xs = np.empty(count)
    ys = np.empty(count)
    zs = np.empty(count)
    kernel = _load_kernel()
    if kernel is not None:
        ptr = ctypes.POINTER(ctypes.c_double)
        bad = kernel(
            x, y, z, a, b, c, h, params.burn_in, count, DISTURBANCE_INTERVAL,
            xs.ctypes.data_as(ptr), ys.ctypes.data_as(ptr), zs.ctypes.data_as(ptr),
        )
        if bad:
            raise _nonfinite(bad, params.burn_in)
        return LorenzTrajectory(xs, ys, zs)
    for i in range(params.burn_in):
        x, y, z = rk4_step(x, y, z, a, b, c, h)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise _nonfinite(i + 1, params.burn_in)
    for t in range(1, count + 1):
        x, y, z = rk4_step(x, y, z, a, b, c, h)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise _nonfinite(params.burn_in + t, params.burn_in)
        if t % DISTURBANCE_INTERVAL == 1:
            if z <= 0:
                x += 0.1
                y -= 0.2
            else:
                x += 0.2
                y -= 0.1
        xs[t - 1] = x
        ys[t - 1] = y
        zs[t - 1] = z
    return LorenzTrajectory(xs, ys, zs)


def fractional(traj: LorenzTrajectory) -> LorenzTrajectory:
    """Keep v - floor(v) per coordinate, landing in [0, 1) for any sign."""
    return LorenzTrajectory(
        traj.xs - np.floor(traj.xs),
        traj.ys - np.floor(traj.ys),
        traj.zs - np.floor(traj.zs),
    )


def interleave(traj: LorenzTrajectory, length: int) -> np.ndarray:
    """k = x1, y1, z1, x2, y2, z2, ... truncated to exactly `length`."""
    if length < 0:
        raise ValueError("length must be >= 0")
    need = -(-length // 3)
    if len(traj) < need:
        raise ValueError(
            f"trajectory too short: {len(traj)} samples, need {need} for length {length}"
        )
    return np.stack((traj.xs, traj.ys, traj.zs), axis=1).ravel()[:length]


def _rank_permutation(k: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """np.argsort(k, kind="stable") for k in [0, 1), by one sort of packed keys.

    `keys` holds the bit patterns of k + 0.0 (the + 0.0 folds -0.0 into
    +0.0) as uint64 and is overwritten.  For non-negative doubles the bit
    patterns order as the values do, and below 1.0 the top two bits are
    clear.  So with b index bits, the key (bits >> (b - 2)) << b | i keeps
    the 64 - b high bits of k_i above the index i and fits in 64 bits;
    sorting the keys sorts k with ties broken by lower index, except inside
    runs of equal high parts, which are re-ordered by (k, index).
    """
    n = k.size
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    b = (n - 1).bit_length()
    keys >>= max(b - 2, 0)
    keys <<= b
    keys |= perm.view(np.uint64)
    keys.sort()
    np.bitwise_and(keys, (1 << b) - 1, out=perm.view(np.uint64))
    keys >>= b
    ties = np.flatnonzero(keys[1:] == keys[:-1])
    if ties.size:
        pos = np.concatenate((ties, ties + 1))
        pos.sort()
        pos = pos[np.diff(pos, prepend=-1) > 0]
        idx = perm[pos]
        perm[pos] = idx[np.lexsort((idx, k[idx], keys[pos]))]
    return perm


def derive_keystream(k, sbox_count: int = 16) -> Keystream:
    """Digest a k sequence (entries in [0,1)) into the cipher's streams.

    mask[i]      = round(k_i * 10^4) mod 256, round half away from zero
    perm         = stable argsort of k (ties broken by lower index first)
    selectors[i] = floor(k_i * 10^4) mod sbox_count

    The position shuffle is realized as the rank permutation of k, the
    standard reading for this family of designs.  k_i * 10^4 lies in
    [0, 10^4], so truncation toward zero is the floor and int32 and uint16
    hold it.  A float64 array k is kept as the Keystream's k, not copied.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 1:
        raise ValueError("k must be one-dimensional")
    if k.size and not (k.min() >= 0.0 and k.max() < 1.0):
        raise ValueError("k entries must lie in [0, 1)")
    if not 1 <= sbox_count <= 256:
        raise ValueError(f"sbox_count must be in [1, 256], got {sbox_count}")
    scaled = k * 1e4
    floor = scaled.astype(np.uint16)
    # u - u // m * m is u % m; numpy vectorises integer floor division but
    # not the remainder, which is about ten times slower
    quotient = floor // sbox_count
    quotient *= sbox_count
    floor -= quotient
    selectors = floor.astype(np.uint8)
    scaled += 0.5
    mask = scaled.astype(np.int32).astype(np.uint8)
    keys = np.add(k, 0.0, out=scaled).view(np.uint64)  # scaled is spent
    return Keystream(k=k, perm=_rank_permutation(k, keys), mask=mask, selectors=selectors)


def keystream(params: LorenzParams, length: int, sbox_count: int = 16) -> Keystream:
    """Integrate, interleave, take fractional parts and digest in one call."""
    if not 1 <= length <= MAX_KEYSTREAM_LENGTH:
        raise ValueError(f"length must be in [1, {MAX_KEYSTREAM_LENGTH}], got {length}")
    k = interleave(integrate(params, -(-length // 3)), length)
    k -= np.floor(k)  # the fractional part, as `fractional` takes it per coordinate
    return derive_keystream(k, sbox_count)
