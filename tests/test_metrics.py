import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_natural_image
from lftcipher import ImageBuffer
from lftcipher.metrics import (
    _COUNT_CHUNK,
    AvalancheReport,
    TooFewPairsError,
    _histogram,
    adjacency_correlation,
    chi_square_uniform,
    cryptanalysis_report,
    entropy,
    glcm,
    glcm_features,
    noise_experiment,
    npcr_uaci,
)


def planes(img: ImageBuffer) -> list[np.ndarray]:
    arr = img.to_array()
    return [arr] if img.channels == 1 else [arr[:, :, ch] for ch in range(img.channels)]


def five_sum_correlation(img, direction):
    """Reference: pair views per plane, five separate sums per plane."""
    if direction == "horizontal":
        if img.width < 2:
            raise TooFewPairsError("image too narrow for horizontal pairs")
        pairs = [(p[:, :-1], p[:, 1:]) for p in planes(img)]
    else:
        if img.height < 2:
            raise TooFewPairsError("image too short for vertical pairs")
        pairs = [(p[:-1, :], p[1:, :]) for p in planes(img)]
    n = sa = sb = saa = sbb = sab = 0
    for a, b in pairs:
        a, b = a.astype(np.int64), b.astype(np.int64)
        n += a.size
        sa += int(a.sum())
        sb += int(b.sum())
        saa += int((a * a).sum())
        sbb += int((b * b).sum())
        sab += int((a * b).sum())
    var_a = n * saa - sa * sa
    var_b = n * sbb - sb * sb
    if var_a == 0 or var_b == 0:
        return None
    return (n * sab - sa * sb) / math.sqrt(var_a * var_b)


def per_plane_glcm(img: ImageBuffer, offset: tuple[int, int]) -> np.ndarray:
    """Reference: pair codes counted plane by plane, then pooled."""
    dr, dc = offset
    counts = np.zeros(256 * 256, dtype=np.int64)
    for p in planes(img):
        h, w = p.shape
        rows, cols = slice(max(0, -dr), min(h, h - dr)), slice(max(0, -dc), min(w, w - dc))
        first = p[rows, cols].astype(np.int64)
        second = p[rows.start + dr : rows.stop + dr, cols.start + dc : cols.stop + dc]
        counts += np.bincount((first * 256 + second).ravel(), minlength=256 * 256)
    return (counts / counts.sum()).reshape(256, 256)


def gathered_glcm_features(p: np.ndarray) -> tuple[float, float, float]:
    """Reference: the features summed over the nonzero cells only."""
    i, j = np.nonzero(p)
    v = p[i, j]
    diff = np.abs(i - j).astype(np.float64)
    return float((diff**2 * v).sum()), float((v / (1.0 + diff)).sum()), float((v**2).sum())


@st.composite
def images(draw):
    width = draw(st.integers(1, 24))
    height = draw(st.integers(1, 24))
    channels = draw(st.sampled_from([1, 3]))
    size = width * height * channels
    levels = draw(st.sampled_from([1, 2, 256]))  # constant, two-level or any bytes
    data = draw(st.lists(st.integers(0, levels - 1), min_size=size, max_size=size))
    return ImageBuffer(width, height, channels, bytes(v * (255 // max(levels - 1, 1)) for v in data))


@given(images(), st.sampled_from(["horizontal", "vertical"]))
def test_correlation_equals_five_sum_reference(img, direction):
    try:
        expected = five_sum_correlation(img, direction)
    except TooFewPairsError as exc:
        with pytest.raises(TooFewPairsError, match=str(exc)):
            adjacency_correlation(img, direction)
        return
    assert adjacency_correlation(img, direction) == expected


@given(images(), st.sampled_from([(0, 1), (1, 0), (1, 1), (-1, 2)]))
def test_glcm_features_match_gathered_reference(img, offset):
    try:
        p = glcm(img, offset)
    except ValueError:
        with pytest.raises(ValueError):
            glcm_features(img, offset)
        return
    assert np.array_equal(p, per_plane_glcm(img, offset))
    for got, want in zip(glcm_features(img, offset), gathered_glcm_features(p)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def checkerboard(size: int = 256) -> ImageBuffer:
    yy, xx = np.mgrid[0:size, 0:size]
    return ImageBuffer.from_array((((xx + yy) % 2) * 255).astype(np.uint8))


class TestAdjacencyCorrelation:
    def test_constant_image_is_undefined(self):
        img = ImageBuffer(8, 8, 1, bytes([42]) * 64)
        assert adjacency_correlation(img, "horizontal") is None
        assert adjacency_correlation(img, "vertical") is None

    def test_gradient_rows_perfectly_correlated(self):
        row = np.arange(256, dtype=np.uint8)
        img = ImageBuffer.from_array(np.tile(row, (64, 1)))
        r = adjacency_correlation(img, "horizontal")
        assert r == pytest.approx(1.0, abs=1e-6)

    def test_transpose_swaps_directions(self):
        img = make_natural_image(seed=30, width=40, height=24)
        transposed = ImageBuffer.from_array(img.to_array().T.copy())
        assert adjacency_correlation(img, "horizontal") == pytest.approx(
            adjacency_correlation(transposed, "vertical")
        )
        assert adjacency_correlation(img, "vertical") == pytest.approx(
            adjacency_correlation(transposed, "horizontal")
        )

    def test_natural_image_is_highly_correlated(self, natural_image):
        assert adjacency_correlation(natural_image, "horizontal") > 0.9

    def test_bad_direction(self, natural_image):
        with pytest.raises(ValueError):
            adjacency_correlation(natural_image, "diagonal")

    def test_too_small(self):
        img = ImageBuffer(1, 3, 1, bytes(3))
        with pytest.raises(TooFewPairsError):
            adjacency_correlation(img, "horizontal")
        with pytest.raises(TooFewPairsError):
            adjacency_correlation(ImageBuffer(3, 1, 1, bytes(3)), "vertical")


class TestEntropy:
    def test_constant_is_zero(self):
        assert entropy(ImageBuffer(4, 4, 1, bytes(16))) == 0.0

    def test_uniform_bytes_exactly_eight(self):
        img = ImageBuffer(16, 16, 1, bytes(range(256)))
        assert entropy(img) == 8.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(31)
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        img1 = ImageBuffer(64, 64, 1, data.tobytes())
        shuffled = data.copy()
        rng.shuffle(shuffled)
        img2 = ImageBuffer(64, 64, 1, shuffled.tobytes())
        assert entropy(img1) == pytest.approx(entropy(img2), abs=1e-12)

    def test_range(self, natural_image):
        assert 0.0 <= entropy(natural_image) <= 8.0


class TestGlcm:
    def test_normalized_sums_to_one(self, natural_image):
        p = glcm(natural_image)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_constant_image_single_cell(self):
        img = ImageBuffer(8, 8, 1, bytes([9]) * 64)
        p = glcm(img)
        assert np.count_nonzero(p) == 1
        assert p[9, 9] == 1.0

    def test_constant_image_features(self):
        img = ImageBuffer(8, 8, 1, bytes([9]) * 64)
        contrast, homogeneity, energy = glcm_features(img)
        assert contrast == 0.0
        assert homogeneity == 1.0
        assert energy == 1.0

    def test_checkerboard_features(self):
        contrast, homogeneity, energy = glcm_features(checkerboard())
        assert contrast == pytest.approx(255**2)
        assert homogeneity == pytest.approx(1 / 256)
        assert energy == pytest.approx(0.5)

    def test_vertical_offset(self):
        # two-row image: vertical pairs all (10, 200)
        arr = np.array([[10, 10], [200, 200]], dtype=np.uint8)
        p = glcm(ImageBuffer.from_array(arr), offset=(1, 0))
        assert p[10, 200] == 1.0

    def test_degenerate_offset_rejected(self):
        img = ImageBuffer(2, 2, 1, bytes(4))
        with pytest.raises(ValueError):
            glcm(img, offset=(0, 0))
        with pytest.raises(ValueError):
            glcm(img, offset=(0, 5))

    def test_encrypted_image_features_are_noise_like(self, test_key, natural_image):
        # a near-uniform cipher image has contrast ~ 256^2/6, homogeneity
        # ~ 0.037 and energy ~ 2/65536; measured values are reported as-is
        # (no agreement with any published figure is forced)
        from lftcipher import encrypt

        contrast, homogeneity, energy = glcm_features(encrypt(natural_image, test_key))
        assert 9500 < contrast < 12500
        assert 0.02 < homogeneity < 0.06
        assert energy < 1e-4


class TestNpcrUaci:
    def test_equal_images(self, natural_image):
        rep = npcr_uaci(natural_image, natural_image)
        assert rep.npcr == 0.0
        assert rep.uaci == 0.0

    def test_bitwise_not(self, natural_image):
        inverted = ImageBuffer.from_array(255 - natural_image.to_array())
        rep = npcr_uaci(natural_image, inverted)
        assert rep.npcr == 100.0
        x = np.frombuffer(natural_image.data, np.uint8).astype(np.int64)
        expected = float(np.abs(2 * x - 255).mean() / 255 * 100)
        assert rep.uaci == pytest.approx(expected)

    def test_symmetry(self, natural_image):
        other = make_natural_image(seed=32)
        r1 = npcr_uaci(natural_image, other)
        r2 = npcr_uaci(other, natural_image)
        assert r1.npcr == r2.npcr
        assert r1.uaci == r2.uaci

    def test_dimension_mismatch(self):
        a = ImageBuffer(2, 2, 1, bytes(4))
        b = ImageBuffer(4, 1, 1, bytes(4))
        with pytest.raises(ValueError):
            npcr_uaci(a, b)

    def test_report_carries_location(self):
        a = ImageBuffer(1, 1, 1, b"\x00")
        rep = npcr_uaci(a, a)
        assert isinstance(rep, AvalancheReport)


class TestNoiseExperiment:
    def test_no_corruption_is_lossless(self, natural_image, test_key):
        rep = noise_experiment(natural_image, test_key, 0)
        assert rep.match_fraction == 1.0
        assert rep.mean_abs_error == 0.0

    def test_full_corruption_is_chance_level(self, natural_image, test_key):
        rep = noise_experiment(natural_image, test_key, 65536)
        assert rep.match_fraction == pytest.approx(1 / 256, abs=0.01)

    def test_ten_thousand_bytes(self, natural_image, test_key):
        rep = noise_experiment(natural_image, test_key, 10000)
        assert rep.match_fraction >= 0.80
        assert rep.recovered.width == 256

    def test_fractions_equal_the_int64_means(self, natural_image, test_key):
        rep = noise_experiment(natural_image, test_key, 10000)
        a = np.frombuffer(natural_image.data, dtype=np.uint8).astype(np.int64)
        b = np.frombuffer(rep.recovered.data, dtype=np.uint8).astype(np.int64)
        assert rep.match_fraction == float((a == b).mean())
        assert rep.mean_abs_error == float(np.abs(a - b).mean())
        assert 0 < rep.mean_abs_error

    def test_bounds_checked(self, natural_image, test_key):
        with pytest.raises(ValueError):
            noise_experiment(natural_image, test_key, 65537)
        with pytest.raises(ValueError):
            noise_experiment(natural_image, test_key, -1)


@pytest.mark.parametrize("n", [0, 1, _COUNT_CHUNK, 2 * _COUNT_CHUNK + 3])
@pytest.mark.parametrize("dtype, size", [(np.uint8, 256), (np.uint16, 256 * 256)])
def test_histogram_matches_bincount_across_chunks(n, dtype, size):
    values = np.random.default_rng(n).integers(0, size, n).astype(dtype)
    assert np.array_equal(_histogram(values, size), np.bincount(values, minlength=size))


class TestChiSquare:
    def test_uniform_histogram_is_zero(self):
        img = ImageBuffer(16, 16, 1, bytes(range(256)))
        assert chi_square_uniform(img) == 0.0

    def test_constant_is_maximal(self):
        img = ImageBuffer(16, 16, 1, bytes(256))
        assert chi_square_uniform(img) == pytest.approx(255 * 256)


class TestReports:
    def test_cryptanalysis_report_refuses_no_boxes(self):
        with pytest.raises(ValueError, match="at least one S-box"):
            cryptanalysis_report([])

    def test_cryptanalysis_report(self, family):
        text = cryptanalysis_report(family)
        # canonical boxes all have bias 1/16 and DP 1/64
        assert "2^-4.00" in text
        assert "2^-6.00" in text
        assert "2^-1024" in text
        assert "heuristic" in text
