import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftcipher import sbox_analysis
from lftcipher.gf2n import field
from lftcipher.metrics import cryptanalysis_report
from lftcipher.sbox import SBoxValidationError, load_external_sbox
from lftcipher.sbox_analysis import (
    _as_table,
    _ddt,
    _spectra,
    analyze,
    bic,
    differential_probability,
    linear_probability,
    nonlinearity,
    sac_matrix,
)

IDENTITY = bytes(range(256))


def parity(v: int) -> int:
    return bin(v).count("1") & 1


def direct_walsh(f, a: int) -> int:
    """O(2^n) definition-level Walsh sum, independent of the matrix product."""
    return sum((-1) ** (f[x] ^ parity(a & x)) for x in range(256))


def direct_count_lat(table: np.ndarray) -> np.ndarray:
    """LAT counts by plain counting expressed as a sign-matrix product."""
    par8 = np.array([parity(v) for v in range(256)], dtype=np.int64)
    masks = np.arange(256)
    s_in = 1 - 2 * par8[np.bitwise_and.outer(masks, masks)]  # (Gx, x)
    s_out = 1 - 2 * par8[np.bitwise_and.outer(masks, table)]  # (Gy, x)
    agree = (256 + s_in @ s_out.T) // 2  # (Gx, Gy)
    return agree


def per_dx_ddt(vals: np.ndarray) -> np.ndarray:
    """DDT built one input difference at a time."""
    xs = np.arange(256)
    return np.array([np.bincount(vals ^ vals[xs ^ dx], minlength=256) for dx in range(256)])


def inversion_box() -> bytes:
    spec = field(0x11D)
    return bytes([0] + [spec.inv(a) for a in range(1, 256)])


def random_bijection(rng) -> bytes:
    t = np.arange(256, dtype=np.uint8)
    rng.shuffle(t)
    return t.tobytes()


class TestWalshMachinery:
    def test_spectra_match_direct_sum(self, family):
        rng = np.random.default_rng(4)
        for t in (family[3].table, random_bijection(rng), IDENTITY):
            table = np.frombuffer(t, dtype=np.uint8).astype(np.int64)
            w = _spectra(table)
            for gy in range(256):
                f = [parity(gy & v) for v in table.tolist()]
                for gx in (0, 1, 5, 77, 128, 255, gy):
                    assert w[gy, gx] == direct_walsh(f, gx)
            assert np.array_equal((256 + w.T) // 2, direct_count_lat(table))
            assert np.array_equal(_spectra(table, (3, 200)), w[[3, 200]])

    def test_parseval_per_coordinate(self, family):
        for box in family[:4]:
            w = _spectra(np.frombuffer(box.table, dtype=np.uint8).astype(np.int64))
            for bit in range(8):
                assert int((w[1 << bit] ** 2).sum()) == 1 << 16

    def test_spectra_constant_function(self):
        # output mask 0 gives the constant function 0, for any table
        rng = np.random.default_rng(9)
        w = _spectra(rng.integers(0, 256, 256))
        assert w[0, 0] == 256
        assert np.all(w[0, 1:] == 0)


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

    def test_matches_per_cell_count(self, family):
        rng = np.random.default_rng(10)
        for t in (family[1].table, random_bijection(rng), inversion_box()):
            m, _ = sac_matrix(t)
            for i in range(8):
                d = [t[x] ^ t[x ^ 1 << i] for x in range(256)]
                assert m[i].tolist() == [sum(v >> j & 1 for v in d) / 256 for j in range(8)]


class TestBic:
    def test_identity_is_linear(self):
        bic_nl, _ = bic(IDENTITY)
        assert bic_nl == 0.0

    def test_inversion_map_against_pair_oracle(self):
        inv = inversion_box()
        bic_nl, bic_sac = bic(inv)
        oracle_nls = []
        oracle_sacs = []
        for j in range(8):
            for k in range(j + 1, 8):
                g = [(inv[x] >> j ^ inv[x] >> k) & 1 for x in range(256)]
                max_abs = max(abs(direct_walsh(g, a)) for a in range(256))
                oracle_nls.append(128 - max_abs // 2)
                for i in range(8):
                    oracle_sacs.append(sum(g[x] ^ g[x ^ 1 << i] for x in range(256)) / 256)
        assert bic_nl == pytest.approx(np.mean(oracle_nls))
        assert bic_sac == np.mean(oracle_sacs)
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
        ddt = _ddt(_as_table(family[0]))
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
            assert np.array_equal(_ddt(_as_table(t)), per_dx_ddt(vals))

    def test_inverse_box_has_same_dp(self, family):
        rng = np.random.default_rng(7)
        boxes = [family[0].table, family[5].table] + [random_bijection(rng) for _ in range(3)]
        for t in boxes:
            inv = bytes(np.argsort(np.frombuffer(t, dtype=np.uint8)).astype(np.uint8).tobytes())
            assert differential_probability(t) == differential_probability(inv)

    def test_family_values(self, family):
        for box in family:
            assert differential_probability(box) == 4 / 256


@settings(max_examples=25)
@given(st.permutations(range(256)))
def test_lp_and_dp_match_oracles_on_random_bijections(perm):
    vals = np.array(perm, dtype=np.int64)
    counts = direct_count_lat(vals)[1:, 1:]
    assert linear_probability(perm) == (
        int(counts.max()), float(np.abs(counts / 256 - 0.5).max()))
    assert differential_probability(perm) == per_dx_ddt(vals)[1:].max() / 256


class TestSharedResult:
    """LP and DP are measured once per table and shared by later callers."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        sbox_analysis._found.cache_clear()
        calls = {"lp": [], "dp": []}
        for name, attr in (("lp", "_linear_probability"), ("dp", "_differential_probability")):
            def counted(table, name=name, kernel=getattr(sbox_analysis, attr)):
                calls[name].append(table.astype(np.uint8).tobytes())
                return kernel(table)
            monkeypatch.setattr(sbox_analysis, attr, counted)
        yield calls
        sbox_analysis._found.cache_clear()

    def test_analyze_then_report_measures_each_box_once(self, family, kernel_calls):
        reports = [analyze(box) for box in family]
        text = cryptanalysis_report(family)
        tables = [box.table for box in family]
        assert kernel_calls == {"lp": tables, "dp": tables}
        assert all((r.lp_count, r.lp_bias, r.dp) == (144, 0.0625, 4 / 256) for r in reports)
        assert "2^-4.00" in text and "2^-6.00" in text

    def test_equal_tables_from_different_objects_hit(self, family, kernel_calls):
        box = family[4]
        for s in (box, bytes(box.table), list(box.table),
                  np.frombuffer(box.table, dtype=np.uint8), load_external_sbox(box.table)):
            assert linear_probability(s) == (144, 0.0625)
            assert differential_probability(s) == 4 / 256
        assert kernel_calls == {"lp": [box.table], "dp": [box.table]}

    def test_invalid_table_raises_before_lookup(self, kernel_calls):
        before = sbox_analysis._found.cache_info()
        for fn in (linear_probability, differential_probability):
            with pytest.raises(SBoxValidationError):
                fn([0] * 256)
        assert sbox_analysis._found.cache_info() == before
        assert kernel_calls == {"lp": [], "dp": []}

    def test_memo_holds_one_family(self, family, kernel_calls):
        rng = np.random.default_rng(11)
        for t in [box.table for box in family] + [random_bijection(rng)]:
            differential_probability(t)
        assert sbox_analysis._found.cache_info().currsize == 16
        differential_probability(family[0])  # the oldest entry was evicted
        assert len(kernel_calls["dp"]) == 18


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
