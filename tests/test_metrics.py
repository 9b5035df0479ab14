import numpy as np
import pytest

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
    keyspace_report,
    noise_experiment,
    npcr_uaci,
)


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

    @pytest.mark.parametrize("pairs", [0, -1])
    def test_sample_pairs_below_one_rejected(self, natural_image, pairs):
        with pytest.raises(ValueError, match="sample_pairs must be at least 1") as exc:
            adjacency_correlation(natural_image, "horizontal", sample_pairs=pairs, seed=1)
        assert not isinstance(exc.value, TooFewPairsError)

    def test_sampled_mode_is_seeded(self, natural_image):
        a = adjacency_correlation(natural_image, "horizontal", sample_pairs=1000, seed=5)
        b = adjacency_correlation(natural_image, "horizontal", sample_pairs=1000, seed=5)
        c = adjacency_correlation(natural_image, "horizontal", sample_pairs=1000, seed=6)
        assert a == b
        assert a != c


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
        rep = npcr_uaci(a, a, location="first")
        assert isinstance(rep, AvalancheReport)
        assert rep.location == "first"


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
    def test_keyspace_report_strings(self, test_key):
        text = keyspace_report(test_key)
        assert "2^" in text
        assert "10^60" in text
        assert "24.0 bits per field" in text

    def test_cryptanalysis_report(self, family):
        text = cryptanalysis_report(family)
        # canonical boxes all have bias 1/16 and DP 1/64
        assert "2^-4.00" in text
        assert "2^-6.00" in text
        assert "2^-1024" in text
        assert "heuristic" in text
