import pytest

from lftcipher import CipherKey, LorenzParams
from lftcipher.golden import DEFAULT_LFT, PRIMITIVE_POLY_MASKS
from lftcipher.keyfile import KeyFileError, parse_key_file, parse_key_text
from lftcipher.sbox import DegenerateLftError

MINIMAL = "x0=1.5\ny0=-2.25\nz0=30.125\n"


class TestParsing:
    def test_minimal_with_defaults(self):
        kf = parse_key_text(MINIMAL)
        assert (kf.lorenz.x0, kf.lorenz.y0, kf.lorenz.z0) == (1.5, -2.25, 30.125)
        assert (kf.lorenz.a, kf.lorenz.b, kf.lorenz.c) == (10.0, 28.0, 8 / 3)
        assert kf.lorenz.step == 0.01
        assert kf.lorenz.burn_in == 100
        assert kf.lft == DEFAULT_LFT
        assert kf.polys == PRIMITIVE_POLY_MASKS

    def test_comments_and_blanks(self):
        kf = parse_key_text("# key material\n\nx0=1\ny0=2\nz0=3\n")
        assert kf.lorenz.x0 == 1.0

    def test_overrides(self):
        text = MINIMAL + "a=9.5\nstep=0.005\nburn_in=7\nlft_a=1\nlft_b=0\nlft_c=0\nlft_d=1\n"
        kf = parse_key_text(text)
        assert kf.lorenz.a == 9.5
        assert kf.lorenz.step == 0.005
        assert kf.lorenz.burn_in == 7
        assert kf.lft == (1, 0, 0, 1)

    def test_float_round_trip_17_digits(self):
        x = 0.1234567890123456789
        kf = parse_key_text(f"x0={x!r}\ny0=0\nz0=0\n")
        assert kf.lorenz.x0 == x

    def test_polys_hex_and_monomial(self):
        masks = ",".join(f"0x{m:X}" for m in PRIMITIVE_POLY_MASKS[:15])
        text = MINIMAL + f"polys={masks},x^8+x^7+x^5+x^3+1\n"
        kf = parse_key_text(text)
        assert kf.polys == PRIMITIVE_POLY_MASKS

    def test_polys_in_any_order(self):
        masks = PRIMITIVE_POLY_MASKS[::-1]
        kf = parse_key_text(MINIMAL + "polys=" + ",".join(f"0x{m:X}" for m in masks) + "\n")
        assert kf.polys == masks

    def test_to_cipher_key(self):
        key = parse_key_text(MINIMAL)
        assert isinstance(key, CipherKey)
        assert key == CipherKey.create(LorenzParams(1.5, -2.25, 30.125))
        assert len(key.sboxes) == 16

    def test_degenerate_lft_is_not_a_key_file_error(self):
        # the family build refuses it, and the CLI reports it as degenerate-lft
        with pytest.raises(DegenerateLftError):
            parse_key_text(MINIMAL + "lft_a=1\nlft_b=1\nlft_c=1\nlft_d=1\n")


class TestErrors:
    def test_missing_required(self):
        with pytest.raises(KeyFileError, match="x0"):
            parse_key_text("y0=1\nz0=2\n")

    def test_unknown_key_names_line(self):
        with pytest.raises(KeyFileError, match=":4: unknown key"):
            parse_key_text(MINIMAL + "frobnicate=1\n")

    def test_repeated_key(self):
        with pytest.raises(KeyFileError, match="repeated"):
            parse_key_text(MINIMAL + "x0=2\n")

    def test_non_finite_rejected(self):
        with pytest.raises(KeyFileError, match="finite"):
            parse_key_text("x0=inf\ny0=1\nz0=2\n")
        with pytest.raises(KeyFileError, match="finite"):
            parse_key_text("x0=nan\ny0=1\nz0=2\n")

    def test_unparseable_number(self):
        with pytest.raises(KeyFileError, match="cannot parse"):
            parse_key_text("x0=abc\ny0=1\nz0=2\n")

    def test_missing_equals(self):
        with pytest.raises(KeyFileError, match="name=value"):
            parse_key_text("x0 1\n")

    def test_wrong_poly_count(self):
        with pytest.raises(KeyFileError, match="expected 16"):
            parse_key_text(MINIMAL + "polys=0x11D\n")

    def test_repeated_poly(self):
        with pytest.raises(KeyFileError, match=r":4: x\^8\+x\^4\+x\^3\+x\^2\+1 is listed twice"):
            parse_key_text(MINIMAL + "polys=" + ",".join(["0x11D"] * 16) + "\n")
        # the second spelling of one mask is a repeat too
        masks = ",".join(f"0x{m:X}" for m in PRIMITIVE_POLY_MASKS[:15])
        with pytest.raises(KeyFileError, match="listed twice"):
            parse_key_text(MINIMAL + f"polys={masks},x^8+x^4+x^3+x^2+1\n")

    def test_non_primitive_poly(self):
        masks = ",".join(f"0x{m:X}" for m in PRIMITIVE_POLY_MASKS[:15])
        with pytest.raises(KeyFileError, match="not primitive"):
            parse_key_text(MINIMAL + f"polys={masks},0x11B\n")

    def test_reducible_poly_is_not_primitive(self):
        masks = ",".join(f"0x{m:X}" for m in PRIMITIVE_POLY_MASKS[:15])
        with pytest.raises(KeyFileError, match=r":4: x\^8\+1 is not primitive$"):
            parse_key_text(MINIMAL + f"polys={masks},0x101\n")

    def test_wrong_degree_poly(self):
        masks = ",".join(f"0x{m:X}" for m in PRIMITIVE_POLY_MASKS[:15])
        with pytest.raises(KeyFileError, match="degree 8"):
            parse_key_text(MINIMAL + f"polys={masks},0x13\n")

    def test_lft_out_of_range(self):
        with pytest.raises(KeyFileError, match=r":4: lft_a must be in \[0, 255\], got '300'$"):
            parse_key_text(MINIMAL + "lft_a=300\n")

    def test_invalid_step(self):
        with pytest.raises(KeyFileError, match="step"):
            parse_key_text(MINIMAL + "step=0\n")

    @pytest.mark.parametrize("raw", ["1000001", "1000000000000", "0x400000000000000000", "-1"])
    def test_burn_in_out_of_range(self, raw):
        with pytest.raises(KeyFileError, match="burn_in"):
            parse_key_text(MINIMAL + f"burn_in={raw}\n")


class TestFileIo:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text(MINIMAL + "a=11.25\n")
        assert parse_key_file(path).lorenz.a == 11.25

    def test_non_utf8_file_is_key_file_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        with pytest.raises(KeyFileError, match="latin1.txt: not UTF-8 text"):
            parse_key_file(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(MINIMAL, encoding="utf-8")
        bom.write_text(MINIMAL, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_key_file(bom) == parse_key_file(plain)

    def test_bad_byte_after_a_mark_is_placed_in_the_file(self, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfx0=1\xe9\n")
        with pytest.raises(KeyFileError, match="at byte 7"):
            parse_key_file(path)

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "key.txt"
        path.write_text("x0=1\nbogus=2\n")
        with pytest.raises(KeyFileError, match=r"key\.txt:2"):
            parse_key_file(path)
