"""tracemalloc guards on the full-size keystream digest, cipher stages,
netpbm I/O and the reads of key and S-box files.

numpy reports its data buffers to tracemalloc, so these figures count array
memory exactly and do not depend on the layout of the malloc heap.
"""

import contextlib
import os
import threading
import tracemalloc

import numpy as np
import pytest

from lftcipher import CipherKey, ImageBuffer, decrypt, encrypt, lorenz
from lftcipher.cli import main
from lftcipher.keyfile import KeyFileError, parse_key_text
from lftcipher.metrics import noise_experiment
from lftcipher.netpbm import ImageFormatError, parse_image, read_image, read_raw, write_image

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


def test_noise_experiment_peaks_at_the_keystream_peak_plus_four_images(
    test_key, rgb_and_stream, traced
):
    img = rgb_and_stream[0]
    noise_experiment(img, test_key, 10)  # leave first-call imports out
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    lorenz.keystream(test_key.lorenz, img.pixel_count)
    keystream_peak = tracemalloc.get_traced_memory()[1] - before
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    report = noise_experiment(img, test_key, 10000)
    assert report.match_fraction < 1.0
    # the damaged ciphertext and an int16 difference are all that come on top
    assert tracemalloc.get_traced_memory()[1] - before <= keystream_peak + 4 * len(img.data)


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


@pytest.mark.parametrize("side, size, message", [
    (512, 512 * 512 + MB, f"{MB} trailing bytes after pixel payload at byte {512 * 512}"),
    (8192, 16, "truncated payload at byte 0: expected 8192x8192x1 = 67108864 bytes, found 16"),
], ids=["file-1-mib-too-long", "dimensions-past-the-file"])
def test_raw_file_of_the_wrong_size_is_refused_after_a_bounded_read(
    tmp_path, capsys, traced, side, size, message
):
    # a regular file's size is checked before the read, so neither is read
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
    assert message in err


@contextlib.contextmanager
def _pipe(data: bytes):
    """A binary file reading a real pipe that holds data and then ends.

    A writer thread feeds it, since a pipe buffers only about 64 KiB; data
    is sent through memoryview slices, so the writer allocates no copies.
    """
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb", buffering=0) as out:
            view = memoryview(data)
            try:
                while view:
                    view = view[out.write(view[:1 << 16]):]
            except BrokenPipeError:  # the reader stopped early
                pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with os.fdopen(r, "rb") as f:
            yield f
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def _read_pipe_with(reader: str, data: bytes, width: int, height: int) -> ImageBuffer:
    with _pipe(data) as f:
        if reader == "parse_image":
            return parse_image(f, source="<pipe>")
        return read_raw(f"/dev/fd/{f.fileno()}", width, height)


@pytest.mark.parametrize("reader", ["parse_image", "read_raw"])
def test_pipe_claiming_a_large_payload_is_read_in_bounded_chunks(traced, reader):
    # read(n) on a pipe allocates the n bytes a header claims, 16 MB here
    header = b"P5\n4000 4000\n255\n" if reader == "parse_image" else b""
    tracemalloc.reset_peak()
    with pytest.raises(ImageFormatError, match="expected 4000x4000x1 = 16000000 bytes, found 1$"):
        _read_pipe_with(reader, header + b"A", 4000, 4000)
    assert tracemalloc.get_traced_memory()[1] < 2 * MB


@pytest.mark.parametrize("reader", ["parse_image", "read_raw"])
def test_pipe_payload_is_held_once(traced, reader):
    payload = bytes(range(256)) * (4 * MB // 256)
    header = b"P5\n2048 2048\n255\n" if reader == "parse_image" else b""
    data = header + payload
    before = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    img = _read_pipe_with(reader, data, 2048, 2048)
    assert img.data == payload
    # the chunks are gathered in one growing buffer, not joined from a list
    assert tracemalloc.get_traced_memory()[1] - before < len(payload) * 9 // 8 + 2 * MB


def test_image_over_the_keystream_limit_is_refused_before_its_payload(traced):
    # 16384 x 16384 = 2^28 pixels, four times what a keystream covers
    tracemalloc.reset_peak()
    with pytest.raises(ImageFormatError, match="cannot read a 16384x16384x1 image"):
        _read_pipe_with("parse_image", b"P5\n16384 16384\n255\nA", 16384, 16384)
    assert tracemalloc.get_traced_memory()[1] < MB


@pytest.mark.parametrize("command, shape, size", [
    ("encrypt", "16384x16384", 16384 * 16384),
    ("metrics", "0x4", 0),
], ids=["over-the-keystream-limit", "zero-width"])
def test_raw_shape_is_refused_before_the_read(tmp_path, capsys, traced, command, shape, size):
    raw = tmp_path / "in.raw"
    raw.touch()
    os.truncate(raw, size)  # sparse: no disk blocks behind it
    argv = [command, "--in", str(raw), "--raw", shape]
    if command == "encrypt":
        key = tmp_path / "key.txt"
        key.write_text("x0=1.1\ny0=2.3\nz0=3.7\n")
        argv += ["--out", str(tmp_path / "ct.raw"), "--key", str(key)]
    main(argv)  # leave first-call imports out
    capsys.readouterr()
    tracemalloc.reset_peak()
    assert main(argv) == 1
    assert tracemalloc.get_traced_memory()[1] < MB
    err = capsys.readouterr().err
    assert err.startswith("error:image-format:") and err.count("\n") == 1
    assert "width and height must be positive" in err
