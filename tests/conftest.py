import io
import shutil

import numpy as np
import pytest
from hypothesis import settings

from lftcipher import CipherKey, FieldSpec, ImageBuffer, LorenzParams, build_family, lorenz

# the same examples on every run, no example database written to the
# checkout, and no per-example time limit on slow machines
settings.register_profile("lftcipher", derandomize=True, database=None, deadline=None)
settings.load_profile("lftcipher")


def make_natural_image(seed: int, width: int = 256, height: int = 256) -> ImageBuffer:
    """Deterministic synthetic photograph-like image: smooth low-frequency
    content plus soft blobs and mild sensor noise, so adjacent pixels are
    strongly correlated and the histogram is far from flat."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    img = 120 + 55 * np.sin(2 * np.pi * xx / 97 + rng.uniform(0, 2 * np.pi)) * np.cos(
        2 * np.pi * yy / 71 + rng.uniform(0, 2 * np.pi)
    )
    for _ in range(6):
        cx = rng.uniform(0, width)
        cy = rng.uniform(0, height)
        r = rng.uniform(15, 60)
        amp = rng.uniform(-75, 75)
        img += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * r * r)))
    img += rng.normal(0, 2.0, img.shape)
    return ImageBuffer.from_array(np.clip(img, 0, 255).astype(np.uint8))


class Unseekable(io.BytesIO):
    """A binary stream that cannot seek, as a pipe cannot. Its read(n) does
    not allocate n bytes ahead as a real pipe's does, so the memory tests
    use os.pipe()."""

    def seekable(self) -> bool:
        return False


def walk_order_of_x(bits: int) -> int | None:
    """Step-by-step reference: multiply by x until the power returns to 1."""
    n = bits.bit_length() - 1
    power = 1
    for k in range(1, 1 << n):
        power <<= 1
        if power >> n & 1:
            power ^= bits
        if power in (0, 1):
            return k if power else None
    return None


def mul_naive(spec: FieldSpec, a: int, b: int) -> int:
    """Reference product: shift-and-reduce, one bit of b at a time, with no
    log tables."""
    assert 0 <= a < spec.order and 0 <= b < spec.order
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & spec.order:
            a ^= spec.reduction.bits
    return r


def inv_fermat(spec: FieldSpec, a: int) -> int:
    """Reference inverse a^(2^n - 2) by shift-and-reduce products,
    independent of the log tables behind FieldSpec.inv."""
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in GF(2^{spec.n})")
    r = 1
    e = spec.order - 2
    while e:
        if e & 1:
            r = mul_naive(spec, r, a)
        a = mul_naive(spec, a, a)
        e >>= 1
    return r


def poly_mod(a: int, m: int) -> int:
    """Remainder of the GF(2) polynomial a modulo m != 0."""
    while a.bit_length() >= m.bit_length():
        a ^= m << (a.bit_length() - m.bit_length())
    return a


def is_irreducible_trial(bits: int) -> bool:
    """Reference irreducibility test for degree >= 1: trial division by
    every polynomial of degree 1..n/2."""
    n = bits.bit_length() - 1
    assert n >= 1
    return all(poly_mod(bits, g) for g in range(2, 1 << (n // 2 + 1)))


def flatten(img: ImageBuffer) -> np.ndarray:
    """Plane-order reference: row-major 1-D byte vector, 3-channel images as
    concatenated planes, the order in which the cipher treats the pixels."""
    arr = img.to_array()
    if img.channels == 1:
        return arr.ravel().copy()
    return arr.transpose(2, 0, 1).ravel().copy()


def unflatten(flat, width: int, height: int, channels: int) -> ImageBuffer:
    """Inverse of flatten."""
    v = np.asarray(flat, dtype=np.uint8)
    if v.size != width * height * channels:
        raise ValueError(f"vector length {v.size} != {width}x{height}x{channels}")
    if channels == 1:
        return ImageBuffer.from_array(v.reshape(height, width))
    return ImageBuffer.from_array(
        v.reshape(channels, height, width).transpose(1, 2, 0).copy()
    )


@pytest.fixture(scope="session")
def field_p1() -> FieldSpec:
    return FieldSpec(0x11D)


@pytest.fixture(scope="session")
def gf16() -> FieldSpec:
    # x^4 + x^3 + 1, primitive
    return FieldSpec(0b11001)


@pytest.fixture(scope="session")
def family():
    return build_family(32, 22, 11, 8)


@pytest.fixture(scope="session")
def test_key() -> CipherKey:
    return CipherKey.create(LorenzParams(x0=1.1, y0=2.3, z0=3.7))


@pytest.fixture(scope="session")
def natural_image() -> ImageBuffer:
    return make_natural_image(seed=7)


def require_kernel() -> None:
    """Skip without a C compiler; fail if there is one but the RK4 kernel did not load."""
    if lorenz._load_kernel() is None:
        if shutil.which("cc") is None:
            pytest.skip("no C compiler to build the RK4 kernel")
        pytest.fail("cc is on PATH but the RK4 kernel did not build or load")


@pytest.fixture(params=["kernel", "fallback"])
def rk4_path(request, monkeypatch):
    """Run a test once on the compiled RK4 kernel and once on the Python loop."""
    if request.param == "kernel":
        require_kernel()
    else:
        monkeypatch.setattr(lorenz, "_load_kernel", lambda: None)
    return request.param
