"""Binary PGM (P5) and PPM (P6) image I/O, maxval 255 only, plus a raw
headerless mode.  Chosen over PNG to keep byte-exact round-trip contracts
without an external decoder.

PGM, PPM and raw input share one payload reader, _read_payload: one size
policy, one refusal of shapes past MAX_KEYSTREAM_LENGTH pixels and one
error text for all three.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO

from .cipher import ImageBuffer
from .lorenz import MAX_KEYSTREAM_LENGTH

_WHITESPACE = b" \t\r\n\v\f"
_MAX_TOKEN = 20  # digits of a header integer, checked before int() sees them
_LINE = 4096  # bytes of a comment read at a time
_CHUNK = 1 << 20  # bytes of a pipe's payload read at a time


class ImageFormatError(ValueError):
    """Malformed header or payload; message carries the byte offset."""


def _skip_comment(f: BinaryIO) -> int:
    """Read f through the newline that ends a comment; the bytes read."""
    n = 0
    while True:
        line = f.readline(_LINE)
        n += len(line)
        if not line or line.endswith(b"\n"):
            return n


def _read_header(f: BinaryIO, source: str) -> tuple[int, int, int, int]:
    """(width, height, channels, payload offset), read from the header at
    the start of f one byte at a time, so that f is left at the payload."""
    magic = f.read(2)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ImageFormatError(f"{source}: unrecognized magic {magic!r} at byte 0 (want P5 or P6)")
    values = []
    pos, ch = 2, f.read(1)  # ch is the byte at pos
    for what in ("width", "height", "maxval"):
        while ch == b"#" or (ch and ch in _WHITESPACE):
            pos += 1 + (_skip_comment(f) if ch == b"#" else 0)
            ch = f.read(1)
        if not ch:
            raise ImageFormatError(
                f"{source}: unexpected end of header at byte {pos} while reading {what}"
            )
        start, tok = pos, b""
        while ch and ch not in _WHITESPACE and ch != b"#" and len(tok) <= _MAX_TOKEN:
            tok += ch
            pos, ch = pos + 1, f.read(1)
        if not tok.isdigit() or len(tok) > _MAX_TOKEN:
            raise ImageFormatError(f"{source}: expected integer {what} at byte {start}, got {tok!r}")
        values.append(int(tok))
    width, height, maxval = values
    if maxval != 255:
        raise ImageFormatError(f"{source}: unsupported maxval {maxval} (only 255)")
    if not ch or ch not in _WHITESPACE:
        raise ImageFormatError(f"{source}: expected single whitespace after maxval at byte {pos}")
    return width, height, channels, pos + 1


def _read_pipe(f: BinaryIO, n: int) -> bytes:
    """At most n bytes of an unseekable f, read in chunks, so that memory
    follows the bytes that come and not the n a header claims."""
    buf = io.BytesIO()
    while n > 0:
        chunk = f.read(min(n, _CHUNK))
        if not chunk:
            break
        buf.write(chunk)
        n -= len(chunk)
    return buf.getvalue()  # BytesIO hands over its buffer, with no copy


def _read_payload(
    f: BinaryIO, width: int, height: int, channels: int, source: str, pos: int
) -> ImageBuffer:
    """The width x height x channels pixels at f's position, byte pos of source.

    The shape is checked before any byte is read. Then at most the payload
    plus one byte is read: from a regular file in one read straight into the
    image's bytes, and not at all when its size is wrong; from a pipe in
    chunks of at most _CHUNK bytes.
    """
    if not (width >= 1 and height >= 1 and width * height <= MAX_KEYSTREAM_LENGTH
            and channels in (1, 3)):
        raise ImageFormatError(
            f"{source}: cannot read a {width}x{height}x{channels} image: width and height"
            f" must be positive, with at most {MAX_KEYSTREAM_LENGTH} pixels and 1 or 3 channels"
        )
    expected = width * height * channels
    if f.seekable():
        here = f.tell()
        found = f.seek(0, os.SEEK_END) - here
        f.seek(here)
        payload = f.read(expected + 1) if found == expected else b""
        count = f"{found - expected} "
    else:
        payload = _read_pipe(f, expected + 1)
        found = len(payload)
        count = ""  # a pipe is read only one byte past the payload
    if found < expected:
        raise ImageFormatError(
            f"{source}: truncated payload at byte {pos}: expected"
            f" {width}x{height}x{channels} = {expected} bytes, found {found}"
        )
    if found > expected:
        raise ImageFormatError(
            f"{source}: {count}trailing bytes after pixel payload at byte {pos + expected}"
        )
    return ImageBuffer(width, height, channels, payload)


def parse_image(data: bytes | BinaryIO, source: str = "<bytes>") -> ImageBuffer:
    """Decode a binary PGM/PPM from bytes or from a binary file at its start.

    The header is read first, then the payload as _read_payload reads it.
    """
    f = io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data
    width, height, channels, pos = _read_header(f, source)
    return _read_payload(f, width, height, channels, source, pos)


def read_image(path: str | os.PathLike) -> ImageBuffer:
    """Read a binary PGM/PPM file; see parse_image for how much is read."""
    with open(path, "rb") as f:
        return parse_image(f, source=str(path))


def _header(img: ImageBuffer) -> bytes:
    magic = "P5" if img.channels == 1 else "P6"
    return f"{magic}\n{img.width} {img.height}\n255\n".encode()


def write_image(img: ImageBuffer, path: str | os.PathLike) -> None:
    """Write a binary PGM/PPM file; read_image restores it bit-exactly.

    The header and the pixels are written apart, so no encoded copy of the
    image is made.
    """
    with open(path, "wb") as f:
        f.write(_header(img))
        f.write(img.data)


def read_raw(path: str | os.PathLike, width: int, height: int, channels: int = 1) -> ImageBuffer:
    """Read headerless bytes with externally supplied dimensions; see
    _read_payload for how much is read."""
    with open(path, "rb") as f:
        return _read_payload(f, width, height, channels, str(path), 0)
