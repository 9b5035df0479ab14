import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftcipher import sbox_analysis
from lftcipher.gf2n import field
from lftcipher.metrics import cryptanalysis_report
from lftcipher.sbox import LftSBox, SBoxFormatError, SBoxValidationError
from lftcipher.sbox_analysis import (
    StrengthReport,
    _half_ddt,
    _spectra,
    analyze,
    differential_probability,
    linear_probability,
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

    def test_parseval_per_coordinate(self, family):
        for box in family[:4]:
            w = _spectra(np.frombuffer(box.table, dtype=np.uint8).astype(np.int64))
            for bit in range(8):
                assert int((w[1 << bit].astype(np.int64) ** 2).sum()) == 1 << 16

    def test_spectra_constant_function(self):
        # output mask 0 gives the constant function 0, for any table
        rng = np.random.default_rng(9)
        w = _spectra(rng.integers(0, 256, 256))
        assert w[0, 0] == 256
        assert np.all(w[0, 1:] == 0)


class TestNonlinearity:
    def test_identity_coordinates_are_linear(self):
        report = analyze(IDENTITY)
        assert report.nl_per_coordinate == (0,) * 8
        assert report.nl_average == 0.0

    def test_inversion_map_is_112_per_coordinate(self):
        inv = inversion_box()
        report = analyze(inv)
        assert report.nl_per_coordinate == (112,) * 8
        assert report.nl_average == 112.0
        # cross-check one coordinate against the definition-level oracle
        f = [inv[x] & 1 for x in range(256)]
        max_abs = max(abs(direct_walsh(f, a)) for a in range(256))
        assert 128 - max_abs // 2 == 112

    def test_family_per_coordinate(self, family):
        # canonical fractional transforms are affine-equivalent to inversion
        for box in family:
            assert analyze(box).nl_per_coordinate == (112,) * 8


class TestSac:
    def test_identity_pattern(self):
        # flipping input bit i flips output bit i only
        assert analyze(IDENTITY).sac_mean == 1 / 8

    def test_random_bijections_near_half(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert 0.45 <= analyze(random_bijection(rng)).sac_mean <= 0.55

    def test_family_means(self, family):
        for box in family:
            assert 0.45 <= analyze(box).sac_mean <= 0.55


class TestBic:
    def test_identity_is_linear(self):
        assert analyze(IDENTITY).bic_nl == 0.0

    def test_inversion_map_against_pair_oracle(self):
        inv = inversion_box()
        report = analyze(inv)
        oracle_nls = []
        oracle_sacs = []
        for j in range(8):
            for k in range(j + 1, 8):
                g = [(inv[x] >> j ^ inv[x] >> k) & 1 for x in range(256)]
                max_abs = max(abs(direct_walsh(g, a)) for a in range(256))
                oracle_nls.append(128 - max_abs // 2)
                for i in range(8):
                    oracle_sacs.append(sum(g[x] ^ g[x ^ 1 << i] for x in range(256)) / 256)
        assert report.bic_nl == pytest.approx(np.mean(oracle_nls))
        assert report.bic_sac == np.mean(oracle_sacs)
        assert 0.45 <= report.bic_sac <= 0.55


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
        # each row counts the 128 unordered pairs {x, x ^ dx} once, half of 256
        half = _half_ddt(np.frombuffer(family[0].table, np.uint8))
        assert half.shape == (255, 256)
        assert np.all(half.sum(axis=1) == 128)

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
        # x -> x ^ dx pairs each counted input with one left out, of the same dy
        rng = np.random.default_rng(3)
        for t in (family[2].table, random_bijection(rng), IDENTITY, inversion_box()):
            vals = np.frombuffer(t, dtype=np.uint8).astype(np.int64)
            assert np.array_equal(2 * _half_ddt(np.frombuffer(t, np.uint8)), per_dx_ddt(vals)[1:])

    def test_inverse_box_has_same_dp(self, family):
        rng = np.random.default_rng(7)
        boxes = [family[0].table, family[5].table] + [random_bijection(rng) for _ in range(3)]
        for t in boxes:
            inv = bytes(np.argsort(np.frombuffer(t, dtype=np.uint8)).astype(np.uint8).tobytes())
            assert differential_probability(t) == differential_probability(inv)

    def test_family_values(self, family):
        for box in family:
            assert differential_probability(box) == 4 / 256


def direct_spectra(table: np.ndarray) -> np.ndarray:
    """W[Gy, Gx] as the direct sum over x of +-1 terms, in int64."""
    par8 = np.array([parity(v) for v in range(256)], dtype=np.int64)
    masks = np.arange(256)
    s_out = 1 - 2 * par8[np.bitwise_and.outer(masks, table)]  # (Gy, x)
    s_in = 1 - 2 * par8[np.bitwise_and.outer(masks, masks)]  # (Gx, x)
    return s_out @ s_in.T


def definition_report(table: np.ndarray) -> StrengthReport:
    """The six criteria from their definitions, sharing no code with the module."""
    w = direct_spectra(table)
    nl = [128 - int(np.abs(w[gy]).max()) // 2 for gy in range(256)]
    per = [nl[1 << j] for j in range(8)]
    pair_masks = [(1 << j) | (1 << k) for j in range(8) for k in range(j + 1, 8)]
    par8 = np.array([parity(v) for v in range(256)], dtype=np.uint8)
    xs = np.arange(256)
    d = np.array([table ^ table[xs ^ (1 << i)] for i in range(8)])  # d[i, x]
    counts = (256 + w[1:, 1:]) // 2
    return StrengthReport(
        nl_per_coordinate=tuple(per),
        nl_min=min(per),
        nl_average=sum(per) / 8.0,
        sac_mean=float((d[:, :, None] >> np.arange(8) & 1).mean()),
        bic_nl=float(np.mean([nl[m] for m in pair_masks])),
        bic_sac=float(par8[d[:, :, None] & pair_masks].mean()),
        lp_count=int(counts.max()),
        lp_bias=float(np.abs(counts / 256 - 0.5).max()),
        dp=per_dx_ddt(table)[1:].max() / 256,
    )


FORMS = {
    "LftSBox": LftSBox,
    "bytes": bytes,
    "list": list,
    "ndarray": np.array,
}


@settings(max_examples=25)
@given(st.permutations(range(256)), st.sampled_from(sorted(FORMS)))
def test_analyze_matches_definitions_on_random_bijections(perm, form):
    s = FORMS[form](perm)
    expected = definition_report(np.array(perm, dtype=np.int64))
    assert analyze(s) == expected


class TestSharedResult:
    """Each table is measured once; analyze and the LP/DP readers read that
    measurement."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The table bytes of every call of the measuring kernel, in order."""
        sbox_analysis._found.cache_clear()
        calls = []

        def counted(table, kernel=sbox_analysis._measure):
            calls.append(table.tobytes())
            return kernel(table)

        monkeypatch.setattr(sbox_analysis, "_measure", counted)
        yield calls
        sbox_analysis._found.cache_clear()

    def test_analyze_then_report_measures_each_box_once(self, family, kernel_calls):
        reports = [analyze(box) for box in family]
        text = cryptanalysis_report(family)
        for box, report in zip(family, reports):
            assert analyze(box) is report
            assert linear_probability(box) == (report.lp_count, report.lp_bias)
            assert differential_probability(box) == report.dp
        assert kernel_calls == [box.table for box in family]
        assert all((r.lp_count, r.lp_bias, r.dp) == (144, 0.0625, 4 / 256) for r in reports)
        assert "2^-4.00" in text and "2^-6.00" in text

    def test_equal_tables_from_different_objects_hit(self, family, kernel_calls):
        box = family[4]
        for s in (box, bytes(box.table), list(box.table),
                  np.frombuffer(box.table, dtype=np.uint8), LftSBox(box.table)):
            assert linear_probability(s) == (144, 0.0625)
            assert differential_probability(s) == 4 / 256
            assert analyze(s).nl_per_coordinate == (112,) * 8
        assert kernel_calls == [box.table]

    @pytest.mark.parametrize("bad", [[None] * 256, np.zeros((256, 2), int)],
                             ids=["none-entries", "two-columns"])
    def test_malformed_table_is_format_error(self, kernel_calls, bad):
        with pytest.raises(SBoxFormatError):
            analyze(bad)
        assert kernel_calls == []

    def test_invalid_table_raises_before_lookup(self, kernel_calls):
        before = sbox_analysis._found.cache_info()
        for fn in (analyze, linear_probability, differential_probability):
            with pytest.raises(SBoxValidationError):
                fn([0] * 256)
        assert sbox_analysis._found.cache_info() == before
        assert kernel_calls == []

    def test_memo_holds_one_family(self, family, kernel_calls):
        rng = np.random.default_rng(11)
        for t in [box.table for box in family] + [random_bijection(rng)]:
            differential_probability(t)
        assert sbox_analysis._found.cache_info().currsize == 16
        differential_probability(family[0])  # the oldest entry was evicted
        assert len(kernel_calls) == 18


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
        box = LftSBox(random_bijection(rng))
        rep = analyze(box)
        assert rep.dp < 1.0
