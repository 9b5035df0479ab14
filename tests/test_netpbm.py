import numpy as np
import pytest

from conftest import Unseekable
from lftcipher.cipher import ImageBuffer
from lftcipher.netpbm import (
    ImageFormatError,
    parse_image,
    read_image,
    read_raw,
    write_image,
)


class TestRoundTrip:
    def test_pgm(self, tmp_path):
        rng = np.random.default_rng(40)
        img = ImageBuffer(13, 9, 1, rng.integers(0, 256, 117, dtype=np.uint8).tobytes())
        path = tmp_path / "a.pgm"
        write_image(img, path)
        assert read_image(path) == img

    def test_ppm(self, tmp_path):
        rng = np.random.default_rng(41)
        img = ImageBuffer(5, 7, 3, rng.integers(0, 256, 105, dtype=np.uint8).tobytes())
        path = tmp_path / "a.ppm"
        write_image(img, path)
        assert read_image(path) == img

    def test_writes_are_byte_identical(self, tmp_path):
        img = ImageBuffer(2, 2, 1, bytes([1, 2, 3, 4]))
        p1, p2 = tmp_path / "x.pgm", tmp_path / "y.pgm"
        write_image(img, p1)
        write_image(img, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestParsing:
    def test_minimal_p5(self):
        img = parse_image(b"P5\n2 2\n255\n\x01\x02\x03\x04")
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert img.data == b"\x01\x02\x03\x04"

    def test_comments_and_whitespace(self):
        img = parse_image(b"P5\n# a comment\n 2\t2 # inline\n255\n\x01\x02\x03\x04")
        assert (img.width, img.height) == (2, 2)

    def test_p6_channels(self):
        img = parse_image(b"P6\n1 1\n255\n\x09\x08\x07")
        assert img.channels == 3
        assert img.data == b"\x09\x08\x07"

    def test_bad_magic(self):
        with pytest.raises(ImageFormatError, match="byte 0"):
            parse_image(b"P3\n1 1\n255\n\x00")

    def test_unsupported_maxval(self):
        with pytest.raises(ImageFormatError, match="unsupported maxval"):
            parse_image(b"P5\n1 1\n65535\n\x00\x00")

    def test_truncated_payload_mentions_offset(self):
        with pytest.raises(ImageFormatError, match="truncated payload"):
            parse_image(b"P5\n2 2\n255\n\x01\x02")

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ImageFormatError, match="trailing"):
            parse_image(b"P5\n1 1\n255\n\x01\x02")

    def test_non_integer_header(self):
        with pytest.raises(ImageFormatError, match="expected integer"):
            parse_image(b"P5\nx 2\n255\n\x00\x00")

    def test_header_eof(self):
        with pytest.raises(ImageFormatError, match="unexpected end"):
            parse_image(b"P5\n2")

    def test_overlong_header_integer_is_a_format_error(self):
        # int() would raise its own ValueError past 4,300 digits
        with pytest.raises(ImageFormatError, match="expected integer width at byte 3"):
            parse_image(b"P5 " + b"9" * 5000 + b" 1 255\n")

    def test_unseekable_stream(self):
        assert parse_image(Unseekable(b"P5\n2 1\n255\n\x01\x02")).data == b"\x01\x02"
        with pytest.raises(ImageFormatError, match=r": trailing bytes after pixel payload at byte 13$"):
            parse_image(Unseekable(b"P5\n2 1\n255\n\x01\x02\x03\x04"))
        with pytest.raises(ImageFormatError, match="expected 2x1x1 = 2 bytes, found 1$"):
            parse_image(Unseekable(b"P5\n2 1\n255\n\x01"))

    def test_zero_dimension_rejected(self):
        with pytest.raises(ImageFormatError, match="positive"):
            parse_image(b"P5\n0 1\n255\n")

    def test_encode_layout(self, tmp_path):
        path = tmp_path / "a.pgm"
        write_image(ImageBuffer(2, 1, 1, b"\x10\x20"), path)
        assert path.read_bytes() == b"P5\n2 1\n255\n\x10\x20"


class TestRaw:
    def test_read_raw(self, tmp_path):
        path = tmp_path / "blob.raw"
        path.write_bytes(bytes(range(12)))
        img = read_raw(path, 2, 2, 3)
        assert (img.width, img.height, img.channels) == (2, 2, 3)

    def test_raw_length_mismatch(self, tmp_path):
        path = tmp_path / "blob.raw"
        path.write_bytes(bytes(10))
        with pytest.raises(ImageFormatError, match="expected"):
            read_raw(path, 2, 2, 3)
