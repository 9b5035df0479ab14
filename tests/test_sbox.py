import random

import numpy as np
import pytest

from conftest import inv_fermat, mul_naive
from lftcipher import sbox
from lftcipher.cipher import CipherKey
from lftcipher.gf2n import field
from lftcipher.golden import DEFAULT_LFT, PRIMITIVE_POLY_MASKS, REFERENCE_SBOX
from lftcipher.lorenz import LorenzParams
from lftcipher.sbox import (
    DegenerateLftError,
    LftParams,
    LftSBox,
    SBoxFormatError,
    SBoxValidationError,
    build_family,
    build_sbox,
    format_table_text,
    parse_table_text,
    validate_table,
)

IDENTITY = bytes(range(256))


def lft_oracle(spec, a, b, c, d, inverses):
    """g(z) = (az+b)/(cz+d) entry by entry with shift-and-reduce products;
    inverses[v] is inv_fermat(spec, v).  The pole goes to a/c."""
    table = []
    for z in range(256):
        num = mul_naive(spec, a, z) ^ b
        den = mul_naive(spec, c, z) ^ d
        if den == 0:
            table.append(mul_naive(spec, a, inverses[c]))
        else:
            table.append(mul_naive(spec, num, inverses[den]))
    return bytes(table)


@pytest.fixture(scope="module")
def fermat_inverses():
    """Per primitive polynomial, the table v -> v^254 (0 for v = 0)."""
    out = {}
    for mask in PRIMITIVE_POLY_MASKS:
        spec = field(mask)
        out[mask] = [0] + [inv_fermat(spec, v) for v in range(1, 256)]
    return out


class TestBuildSboxOracle:
    def test_random_lfts_all_polynomials(self, fermat_inverses):
        rng = random.Random(2020)
        built = 0
        while built < 200:
            a, b, c, d = (rng.randrange(256) for _ in range(4))
            try:
                fam = build_family(a, b, c, d)
            except DegenerateLftError:
                continue
            for mask, box in zip(PRIMITIVE_POLY_MASKS, fam):
                expected = lft_oracle(field(mask), a, b, c, d, fermat_inverses[mask])
                assert box.table == expected, (a, b, c, d, hex(mask))
                assert bytes(box.table[v] for v in box.inverse) == IDENTITY
            built += 1

    @pytest.mark.parametrize(
        "lft",
        [
            (7, 19, 0, 1),  # c = 0: affine
            (0, 19, 5, 1),  # a = 0
            (7, 0, 5, 1),  # b = 0
            (7, 19, 5, 0),  # d = 0: pole at z = 0
            (0, 1, 1, 0),  # inversion: 0 <-> 0 via the pole convention
            DEFAULT_LFT,
        ],
    )
    def test_edge_coefficients(self, lft, fermat_inverses):
        for i, mask in enumerate(PRIMITIVE_POLY_MASKS, start=1):
            box = build_sbox(LftParams(*lft, poly_index=i))
            assert box.table == lft_oracle(field(mask), *lft, fermat_inverses[mask])

    def test_degenerate_message_unchanged(self):
        with pytest.raises(DegenerateLftError) as exc:
            build_sbox(LftParams(1, 1, 1, 1))
        assert str(exc.value) == (
            "degenerate transformation: ad+bc = 0 for (a,b,c,d)=(1,1,1,1) "
            "under x^8+x^4+x^3+x^2+1"
        )

    def test_custom_list_rejects_other_degrees(self):
        with pytest.raises(ValueError, match="degree 8"):
            build_family(1, 0, 0, 1, polys=(0x13,))  # x^4+x+1 is primitive


class TestLftParams:
    def test_range_checks(self):
        with pytest.raises(ValueError):
            LftParams(256, 0, 0, 1)
        with pytest.raises(ValueError):
            LftParams(1, 0, 0, 1, poly_index=0)
        with pytest.raises(ValueError):
            LftParams(1, 0, 0, 1, poly_index=17)

    @pytest.mark.parametrize("bad", [1.5, 32.0, True, "32"])
    def test_non_integers_name_the_field(self, bad):
        with pytest.raises(ValueError, match=f"a must be an integer, got {bad!r}"):
            LftParams(bad, 22, 11, 8)
        with pytest.raises(ValueError, match="poly_index must be an integer"):
            LftParams(*DEFAULT_LFT, poly_index=bad)

    def test_numpy_integers_build_the_default_table(self):
        params = LftParams(np.uint8(32), *DEFAULT_LFT[1:], poly_index=np.int64(1))
        assert build_sbox(params).table == build_sbox(LftParams(*DEFAULT_LFT)).table

    def test_reduction_lookup(self):
        assert LftParams(1, 0, 0, 1, poly_index=1).reduction == 0x11D
        assert LftParams(1, 0, 0, 1, poly_index=16).reduction == 0x1A9


class TestBuildSbox:
    def test_identity_lft(self):
        box = build_sbox(LftParams(1, 0, 0, 1))
        assert box.table == IDENTITY

    def test_affine_lft(self):
        spec = field(0x11D)
        a, b = 7, 19
        box = build_sbox(LftParams(a, b, 0, 1))
        for z in range(256):
            assert box.table[z] == spec.mul(a, z) ^ b

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateLftError):
            build_sbox(LftParams(1, 1, 1, 1))  # ad+bc = 1+1 = 0

    def test_pole_pairing(self):
        # the z with cz+d = 0 must map to a/c, the image of infinity
        params = LftParams(*DEFAULT_LFT)
        spec = field(params.reduction)
        box = build_sbox(params)
        pole = spec.div(params.d, params.c)
        assert box.table[pole] == spec.div(params.a, params.c)

    def test_default_params_first_entries(self):
        # frozen from the standard-arithmetic oracle: b/d, (a+b)/(c+d), ...
        box = build_sbox(LftParams(*DEFAULT_LFT))
        assert (box.table[0], box.table[1], box.table[2]) == (203, 18, 84)

    def test_determinism(self):
        p = LftParams(*DEFAULT_LFT, poly_index=5)
        assert build_sbox(p).table == build_sbox(p).table


class TestBuildFamily:
    def test_default_family(self, family):
        assert len(family) == 16
        tables = {box.table for box in family}
        assert len(tables) == 16  # pairwise distinct
        for box in family:
            assert sorted(box.table) == list(range(256))
            for v in range(256):
                assert box.inverse[box.table[v]] == v

    def test_identity_params_give_identity_tables(self):
        fam = build_family(1, 0, 0, 1)
        assert all(box.table == IDENTITY for box in fam)

    def test_degeneracy_error_names_polynomial(self):
        with pytest.raises(DegenerateLftError) as exc:
            build_family(1, 1, 1, 1)
        assert "x^8" in str(exc.value)

    def test_custom_poly_list_validated(self):
        with pytest.raises(ValueError, match="is not primitive"):
            build_family(*DEFAULT_LFT, polys=(0x11B,) * 16)  # not primitive

    def test_reducible_poly_is_not_primitive(self):
        with pytest.raises(ValueError, match=r"^x\^8\+1 is not primitive$"):
            build_family(*DEFAULT_LFT, polys=(0x101,))

    def test_permuted_polys_reorder_the_default_family(self, family):
        order = np.random.default_rng(12).permutation(16)
        permuted = build_family(*DEFAULT_LFT, polys=tuple(PRIMITIVE_POLY_MASKS[i] for i in order))
        assert [box.table for box in permuted] == [family[i].table for i in order]
        assert [box.inverse for box in permuted] == [family[i].inverse for i in order]
        assert [box.provenance for box in permuted] == [
            LftParams(*DEFAULT_LFT, poly_index=int(i) + 1) for i in order
        ]

    def test_provenance_poly_index(self, family):
        for i, box in enumerate(family, start=1):
            assert box.provenance.poly_index == i


class TestFamilyMemo:
    def test_equal_arguments_return_the_same_tuple(self):
        assert build_family(*DEFAULT_LFT) is build_family(*DEFAULT_LFT)

    def test_cipher_keys_share_the_family(self):
        keys = [CipherKey.create(LorenzParams(x0, 2.3, 3.7)) for x0 in (1.1, 1.2)]
        assert keys[0].sboxes is keys[1].sboxes

    def test_permuted_polys_get_their_own_family(self):
        # test_permuted_polys_reorder_the_default_family checks the tables
        permuted = build_family(*DEFAULT_LFT, polys=PRIMITIVE_POLY_MASKS[::-1])
        assert permuted is not build_family(*DEFAULT_LFT)

    def test_list_polys_equal_the_tuple_result(self):
        assert build_family(*DEFAULT_LFT, polys=list(PRIMITIVE_POLY_MASKS)) is build_family(
            *DEFAULT_LFT
        )

    @pytest.mark.parametrize("bad", [True, 1.0])
    def test_other_types_are_checked_after_an_int_is_cached(self, bad):
        assert all(box.table == IDENTITY for box in build_family(1, 0, 0, 1))
        with pytest.raises(ValueError, match="a must be an integer"):
            build_family(bad, 0, 0, 1)

    def test_errors_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(DegenerateLftError):
                build_family(1, 1, 1, 1)
            with pytest.raises(ValueError, match="is not primitive"):
                build_family(*DEFAULT_LFT, polys=(0x101,))

    def test_memo_stays_at_its_bound(self):
        sbox._family.cache_clear()
        for a in range(1, 13):  # affine, so never degenerate
            build_family(a, 0, 0, 1)
        info = sbox._family.cache_info()
        assert info.misses == 12 and info.currsize == info.maxsize == 8


class TestInvert:
    def test_invert_identity(self):
        assert LftSBox(IDENTITY).inverse == IDENTITY

    def test_double_inversion_is_original(self, family):
        for box in family[:4]:
            assert LftSBox(LftSBox(box.table).inverse).inverse == box.table

    def test_composition_is_identity(self, family):
        for box in family:
            for v in range(256):
                assert box.inverse[box.table[v]] == v
                assert box.table[box.inverse[v]] == v

    def test_inverse_is_not_compared(self, family):
        box = family[3]
        same = LftSBox(box.table, box.provenance)
        assert same == box and hash(same) == hash(box)
        assert "inverse" not in repr(box)

    def test_invert_reference_table_reports_duplicates(self):
        with pytest.raises(SBoxValidationError) as exc:
            LftSBox(REFERENCE_SBOX)
        assert 23 in exc.value.audit.duplicates
        assert 157 in exc.value.audit.duplicates


class TestValidateAndLoad:
    def test_identity_is_valid(self):
        assert LftSBox(IDENTITY).provenance == "external"

    def test_all_zero_report(self):
        audit = validate_table([0] * 256)
        assert not audit.bijective
        assert audit.duplicates == {0: 256}
        assert audit.missing == tuple(range(1, 256))

    def test_reference_table_audit(self):
        audit = validate_table(REFERENCE_SBOX)
        assert not audit.bijective
        assert set(audit.duplicates) == {23, 157}
        assert audit.missing == (167, 238)

    def test_wrong_length_is_format_error(self):
        with pytest.raises(SBoxFormatError):
            LftSBox(bytes(255))

    def test_out_of_range_entries_are_format_errors(self):
        for bad in (256, -1, 2**70):
            with pytest.raises(SBoxFormatError, match=f"entry {bad} out of byte range"):
                validate_table([0] * 255 + [bad])
            with pytest.raises(SBoxFormatError):
                LftSBox([bad] + list(range(1, 256)))

    def test_non_integer_entries_are_format_errors(self):
        with pytest.raises(SBoxFormatError):
            validate_table([0.5] * 256)
        for bad in ([None] * 256, [None] + list(range(1, 256)), ["a"] + list(range(1, 256))):
            with pytest.raises(SBoxFormatError, match="entries must be integers"):
                LftSBox(bad)

    def test_tables_of_other_shapes_are_format_errors(self):
        for bad in (np.zeros((256, 2), int), np.arange(256).reshape(16, 16)):
            with pytest.raises(SBoxFormatError, match="expected 256 entries in one row"):
                LftSBox(bad)

    def test_audit_same_for_every_input_type(self):
        ref = list(REFERENCE_SBOX)
        for raw in (ref, tuple(ref), bytes(ref), np.array(ref), np.array(ref, dtype=np.uint8)):
            audit = validate_table(raw)
            assert audit.duplicates == {23: 2, 157: 2}
            assert audit.missing == (167, 238)

    def test_non_bijective_raises_with_audit(self):
        with pytest.raises(SBoxValidationError) as exc:
            LftSBox(bytes(256))
        assert exc.value.audit.duplicates == {0: 256}


class TestTextFormat:
    def test_round_trip(self, family):
        for box in family[:3]:
            assert bytes(parse_table_text(box.to_text())) == box.table

    def test_sixteen_rows_of_sixteen(self, family):
        lines = family[0].to_text().strip().split("\n")
        assert len(lines) == 16
        assert all(len(line.split()) == 16 for line in lines)

    def test_parse_rejects_bad_counts(self):
        with pytest.raises(SBoxFormatError):
            parse_table_text("1 2 3")

    def test_parse_rejects_out_of_range(self):
        bad = " ".join(["300"] + ["0"] * 255)
        with pytest.raises(SBoxFormatError):
            parse_table_text(bad)

    def test_format_reference_table_round_trips(self):
        text = format_table_text(REFERENCE_SBOX)
        assert parse_table_text(text) == list(REFERENCE_SBOX)


class TestGoldenAssets:
    def test_shapes(self):
        assert len(PRIMITIVE_POLY_MASKS) == 16
        assert len(REFERENCE_SBOX) == 256

    def test_reference_corners(self):
        assert REFERENCE_SBOX[0] == 237
        assert REFERENCE_SBOX[16 + 15] == 1  # row 1, column 15

    def test_reference_table_against_canonical_build(self):
        # canonical arithmetic reproduces almost none of the printed table
        canonical = build_sbox(LftParams(*DEFAULT_LFT, poly_index=1)).table
        assert sum(canonical[z] == REFERENCE_SBOX[z] for z in range(256)) == 4


class TestLftSBoxInvariants:
    def test_rejects_non_bijective_table(self):
        with pytest.raises(SBoxValidationError):
            LftSBox(bytes(256))

    def test_poles_unique_when_c_nonzero(self, family):
        for box in family:
            p = box.provenance
            spec = field(PRIMITIVE_POLY_MASKS[p.poly_index - 1])
            poles = [z for z in range(256) if spec.mul(p.c, z) ^ p.d == 0]
            assert len(poles) == 1
