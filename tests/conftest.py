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
