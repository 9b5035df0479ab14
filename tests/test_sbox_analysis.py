import numpy as np
import pytest

from lftcipher.gf2n import field
from lftcipher.sbox import SBoxValidationError, load_external_sbox
from lftcipher.sbox_analysis import (
    analyze,
    bic,
    difference_distribution_table,
    differential_probability,
    fwht,
    linear_probability,
    nonlinearity,
    sac_matrix,
    walsh_spectrum,
)

IDENTITY = bytes(range(256))


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def direct_walsh(f, a: int) -> int:
    """O(2^n) definition-level Walsh sum, independent of the fwht path."""
    return sum((-1) ** (f[x] ^ parity(a & x)) for x in range(256))


def direct_count_lat(table: np.ndarray) -> np.ndarray:
    """LAT counts by plain counting expressed as a sign-matrix product."""
    par8 = np.array([parity(v) for v in range(256)], dtype=np.int64)
    masks = np.arange(256)
    s_in = 1 - 2 * par8[np.bitwise_and.outer(masks, masks)]  # (Gx, x)
    s_out = 1 - 2 * par8[np.bitwise_and.outer(masks, table)]  # (Gy, x)
    agree = (256 + s_in @ s_out.T) // 2  # (Gx, Gy)
    return agree


def inversion_box() -> bytes:
    spec = field(0x11D)
    return bytes([0] + [spec.inv(a) for a in range(1, 256)])


def random_bijection(rng) -> bytes:
    t = np.arange(256, dtype=np.uint8)
    rng.shuffle(t)
    return t.tobytes()


class TestWalshMachinery:
    def test_fwht_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        f = rng.integers(0, 2, 256)
        w = walsh_spectrum(f)
        for a in (0, 1, 5, 77, 128, 255):
            assert w[a] == direct_walsh(f.tolist(), a)

    def test_parseval_per_coordinate(self, family):
        for box in family[:4]:
            t = np.frombuffer(box.table, dtype=np.uint8)
            for bit in range(8):
                w = walsh_spectrum(t >> bit & 1)
                assert int((w.astype(np.int64) ** 2).sum()) == 1 << 16

    def test_fwht_constant_function(self):
        w = walsh_spectrum(np.zeros(256, dtype=np.int64))
        assert w[0] == 256
        assert np.all(w[1:] == 0)


class TestNonlinearity:
    def test_identity_coordinates_are_linear(self):
        per, avg = nonlinearity(IDENTITY)
        assert per == [0] * 8
        assert avg == 0.0

    def test_inversion_map_is_112_per_coordinate(self):
        inv = inversion_box()
        per, avg = nonlinearity(inv)
        assert per == [112] * 8
        assert avg == 112.0
        # cross-check one coordinate against the definition-level oracle
        f = [inv[x] & 1 for x in range(256)]
        max_abs = max(abs(direct_walsh(f, a)) for a in range(256))
        assert 128 - max_abs // 2 == 112

    def test_family_per_coordinate(self, family):
        # canonical fractional transforms are affine-equivalent to inversion
        for box in family:
            per, _ = nonlinearity(box)
            assert per == [112] * 8


class TestSac:
    def test_identity_pattern(self):
        m, mean = sac_matrix(IDENTITY)
        assert np.array_equal(m, np.eye(8))
        assert mean == pytest.approx(1 / 8)

    def test_random_bijections_near_half(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            _, mean = sac_matrix(random_bijection(rng))
            assert 0.45 <= mean <= 0.55

    def test_family_means(self, family):
        for box in family:
            _, mean = sac_matrix(box)
            assert 0.45 <= mean <= 0.55


class TestBic:
    def test_identity_is_linear(self):
        bic_nl, _ = bic(IDENTITY)
        assert bic_nl == 0.0

    def test_inversion_map_against_pair_oracle(self):
        inv = inversion_box()
        bic_nl, bic_sac = bic(inv)
        oracle_nls = []
        for j in range(8):
            for k in range(j + 1, 8):
                g = [(inv[x] >> j ^ inv[x] >> k) & 1 for x in range(256)]
                max_abs = max(abs(direct_walsh(g, a)) for a in range(256))
                oracle_nls.append(128 - max_abs // 2)
        assert bic_nl == pytest.approx(np.mean(oracle_nls))
        assert 0.45 <= bic_sac <= 0.55


class TestLinearProbability:
    def test_identity_is_perfectly_linear(self):
        count, bias = linear_probability(IDENTITY)
        assert count == 256
        assert bias == 0.5

    def test_direct_count_equals_walsh_for_random_bijections(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            t = random_bijection(rng)
            counts = direct_count_lat(np.frombuffer(t, dtype=np.uint8).astype(np.int64))
            nonzero = counts[1:, 1:]
            expected_count = int(nonzero.max())
            expected_bias = float(np.abs(nonzero / 256 - 0.5).max())
            count, bias = linear_probability(t)
            assert count == expected_count
            assert bias == pytest.approx(expected_bias)

    def test_family_values(self, family):
        for box in family:
            count, bias = linear_probability(box)
            assert count == 144
            assert bias == 0.0625

    def test_triple_loop_spot_check(self):
        # literal definition for a handful of masks on the inversion map
        inv = inversion_box()
        count, _ = linear_probability(inv)
        spot = 0
        for gx, gy in ((1, 1), (3, 7), (170, 85)):
            c = sum(parity(x & gx) == parity(inv[x] & gy) for x in range(256))
            spot = max(spot, c)
        assert spot <= count


class TestDifferentialProbability:
    def test_identity(self):
        assert differential_probability(IDENTITY) == 1.0

    def test_inversion_map_exact(self):
        assert differential_probability(inversion_box()) == 4 / 256

    def test_ddt_rows_sum_to_256(self, family):
        ddt = difference_distribution_table(family[0])
        assert np.all(ddt.sum(axis=1) == 256)

    def test_exhaustive_loop_oracle(self):
        inv = inversion_box()
        best = 0
        for dx in range(1, 256):
            counts = [0] * 256
            for x in range(256):
                counts[inv[x] ^ inv[x ^ dx]] += 1
            best = max(best, max(counts))
        assert best / 256 == differential_probability(inv)

    def test_ddt_matches_per_dx_loop(self, family):
        rng = np.random.default_rng(3)
        for t in (family[2].table, random_bijection(rng), IDENTITY):
            vals = np.frombuffer(t, dtype=np.uint8).astype(np.int64)
            xs = np.arange(256)
            expected = np.array(
                [np.bincount(vals ^ vals[xs ^ dx], minlength=256) for dx in range(256)]
            )
            assert np.array_equal(difference_distribution_table(t), expected)

    def test_inverse_box_has_same_dp(self, family):
        rng = np.random.default_rng(7)
        boxes = [family[0].table, family[5].table] + [random_bijection(rng) for _ in range(3)]
        for t in boxes:
            inv = bytes(np.argsort(np.frombuffer(t, dtype=np.uint8)).astype(np.uint8).tobytes())
            assert differential_probability(t) == differential_probability(inv)

    def test_family_values(self, family):
        for box in family:
            assert differential_probability(box) == 4 / 256


class TestAnalyze:
    def test_report_fields(self, family):
        rep = analyze(family[0])
        assert rep.nl_per_coordinate == (112,) * 8
        assert rep.nl_min == 112
        assert rep.nl_average == 112.0
        assert rep.dp == 4 / 256
        assert rep.lp_count == 144
        assert rep.lp_bias == 0.0625
        assert 0.45 <= rep.sac_mean <= 0.55

    def test_key_value_names(self, family):
        names = [name for name, _ in analyze(family[1]).as_key_values()]
        assert names == ["N.L", "BIC", "BIC of SAC", "SAC", "LP", "DP"]

    def test_lp_reported_in_dual_format(self, family):
        kv = dict(analyze(family[0]).as_key_values())
        assert kv["LP"] == "144/0.0625"

    def test_rejects_non_bijective_input(self):
        with pytest.raises(SBoxValidationError):
            analyze([0] * 256)

    def test_invariant_ranges(self, family):
        rep = analyze(family[2])
        for v in rep.nl_per_coordinate:
            assert 0 <= v <= 120 and v % 2 == 0
        assert 0.0 <= rep.sac_mean <= 1.0
        assert 0.0 <= rep.lp_bias <= 0.5
        assert 0 < rep.dp <= 1.0
        assert round(rep.dp * 256) % 2 == 0  # even numerator for a bijection


class TestAcceptedExternalBoxes:
    def test_loaded_box_analyzable(self):
        rng = np.random.default_rng(8)
        box = load_external_sbox(random_bijection(rng))
        rep = analyze(box)
        assert rep.dp < 1.0
