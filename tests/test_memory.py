"""tracemalloc guards on the full-size keystream digest, cipher stages,
netpbm I/O and the reads of key and S-box files.

numpy reports its data buffers to tracemalloc, so these figures count array
memory exactly and do not depend on the layout of the malloc heap.
"""

import os
import tracemalloc

import numpy as np
import pytest

from lftcipher import CipherKey, ImageBuffer, decrypt, encrypt, lorenz
from lftcipher.cli import main
from lftcipher.keyfile import KeyFileError, parse_key_text
from lftcipher.netpbm import ImageFormatError, parse_image, read_image, write_image

MB = 1 << 20
SIDE = 1024


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


@pytest.fixture(scope="module")
def rgb_and_stream(test_key):
    rgb = np.random.default_rng(7).integers(0, 256, (SIDE, SIDE, 3), dtype=np.uint8)
    img = ImageBuffer.from_array(rgb)
    return img, test_key.keystream(img.pixel_count)


def test_keystream_peaks_within_4_mb_of_what_it_keeps(test_key, traced):
    lorenz.keystream(test_key.lorenz, SIDE * SIDE)  # leave first-call imports out
    tracemalloc.reset_peak()
    ks = lorenz.keystream(test_key.lorenz, SIDE * SIDE)
    held, peak = tracemalloc.get_traced_memory()
    assert len(ks) == SIDE * SIDE
    assert peak <= held + 4 * MB


@pytest.mark.parametrize("stage", [encrypt, decrypt])
def test_cipher_stage_allocates_two_images_plus_2_mb(
    test_key, rgb_and_stream, traced, stage, monkeypatch
):
    img, ks = rgb_and_stream
    # the stage reads a stream derived beforehand, so only its own work is counted
    monkeypatch.setattr(CipherKey, "keystream", lambda key, length: ks)
    stage(img, test_key)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = stage(img, test_key)
    assert len(out.data) == len(img.data)
    assert tracemalloc.get_traced_memory()[1] - before <= 2 * len(img.data) + 2 * MB


@pytest.mark.parametrize("stage", [encrypt, decrypt])
def test_cipher_stage_without_stream_peaks_at_the_keystream_peak(
    test_key, rgb_and_stream, traced, stage
):
    img = rgb_and_stream[0]
    lorenz.keystream(test_key.lorenz, img.pixel_count)  # leave first-call imports out
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    lorenz.keystream(test_key.lorenz, img.pixel_count)
    keystream_peak = tracemalloc.get_traced_memory()[1] - before
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = stage(img, test_key)
    assert len(out.data) == len(img.data)
    # k is dropped once digested, so the stage's output never sits beside it
    assert tracemalloc.get_traced_memory()[1] - before <= keystream_peak + MB // 2


def test_parse_rejects_trailing_bytes_before_copying_them(traced):
    data = b"P5\n16 16\n255\n" + bytes(16 * 16 + 8 * MB)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    with pytest.raises(ImageFormatError, match="trailing bytes"):
        parse_image(data)
    assert tracemalloc.get_traced_memory()[1] - before < MB


def test_read_refuses_trailing_bytes_without_reading_them(tmp_path, traced):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n16 16\n255\n" + bytes(16 * 16 + 8 * MB))
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    with pytest.raises(ImageFormatError, match=f"{8 * MB} trailing bytes after pixel payload"):
        read_image(path)
    assert tracemalloc.get_traced_memory()[1] - before < MB


def test_read_holds_the_payload_once(rgb_and_stream, tmp_path, traced):
    img = rgb_and_stream[0]
    path = tmp_path / "in.ppm"
    write_image(img, path)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    assert read_image(path) == img
    # the 3 MB payload is read into the image's own bytes, not sliced from
    # a copy of the whole file
    assert tracemalloc.get_traced_memory()[1] - before < len(img.data) + MB // 2


def test_write_makes_no_encoded_copy(rgb_and_stream, tmp_path, traced):
    img = rgb_and_stream[0]
    path = tmp_path / "out.ppm"
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    write_image(img, path)
    assert tracemalloc.get_traced_memory()[1] - before < MB // 2
    assert path.read_bytes() == b"P6\n1024 1024\n255\n" + img.data


@pytest.mark.parametrize("argv, code", [
    (["analyze-sbox", "--in"], "sbox-format"),
    (["encrypt", "--in", "plain.pgm", "--out", "ct.pgm", "--key"], "keyfile"),
], ids=["sbox-file", "key-file"])
def test_oversized_input_file_is_rejected_after_a_bounded_read(
    tmp_path, capsys, traced, argv, code
):
    big = tmp_path / "big"
    big.touch()
    os.truncate(big, 64 * MB)  # sparse: no disk blocks behind it
    argv = argv + [str(big)]
    main(argv)  # leave first-call imports out
    capsys.readouterr()
    tracemalloc.reset_peak()
    assert main(argv) == 1
    assert tracemalloc.get_traced_memory()[1] < MB
    err = capsys.readouterr().err
    assert err.startswith(f"error:{code}:") and err.count("\n") == 1
    assert "larger than 65536 bytes" in err


def test_huge_exponent_is_refused_before_it_is_built(traced):
    # 1 << 100000000 alone would take 12.5 MB
    text = "x0=1.1\ny0=2.3\nz0=3.7\npolys=x^100000000\n"
    tracemalloc.reset_peak()
    with pytest.raises(KeyFileError, match="cannot parse 'x\\^100000000' as a polynomial"):
        parse_key_text(text)
    assert tracemalloc.get_traced_memory()[1] < MB


@pytest.mark.parametrize("side, size", [(512, 512 * 512 + MB), (8192, 16)],
                         ids=["file-1-mib-too-long", "dimensions-past-the-file"])
def test_raw_file_of_the_wrong_size_is_refused_after_a_bounded_read(
    tmp_path, capsys, traced, side, size
):
    # read(n) allocates n bytes up front, so the read is held to the
    # smaller of the expected size and the file's
    raw = tmp_path / "wrong.raw"
    raw.touch()
    os.truncate(raw, size)  # sparse: no disk blocks behind it
    argv = ["metrics", "--in", str(raw), "--raw", f"{side}x{side}"]
    main(argv)  # leave first-call imports out
    capsys.readouterr()
    tracemalloc.reset_peak()
    assert main(argv) == 1
    assert tracemalloc.get_traced_memory()[1] < min(size, side * side) + MB // 4
    err = capsys.readouterr().err
    assert err.startswith("error:image-format:") and err.count("\n") == 1
    assert f"expected {side}x{side}x1 = {side * side}" in err
