"""tracemalloc guards on the full-size keystream digest, cipher stages,
netpbm I/O and the reads of key and S-box files.

numpy reports its data buffers to tracemalloc, so these figures count array
memory exactly and do not depend on the layout of the malloc heap.
"""

import os
import tracemalloc

import numpy as np
import pytest

from lftcipher import ImageBuffer, decrypt, encrypt, lorenz
from lftcipher.cli import main
from lftcipher.netpbm import ImageFormatError, parse_image, write_image

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
def test_cipher_stage_allocates_two_images_plus_2_mb(test_key, rgb_and_stream, traced, stage):
    img, ks = rgb_and_stream
    stage(img, test_key, ks)
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    out = stage(img, test_key, ks)
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
