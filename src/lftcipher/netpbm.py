"""Binary PGM (P5) and PPM (P6) image I/O, maxval 255 only, plus a raw
headerless mode.  Chosen over PNG to keep byte-exact round-trip contracts
without an external decoder.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO

from .cipher import ImageBuffer

_WHITESPACE = b" \t\r\n\v\f"
_MAX_TOKEN = 20  # digits of a header integer, checked before int() sees them
_LINE = 4096  # bytes of a comment read at a time


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


def _bytes_left(f: BinaryIO) -> int | None:
    """Bytes from f's position to its end; None when f cannot seek (a pipe)."""
    if not f.seekable():
        return None
    here = f.tell()
    end = f.seek(0, os.SEEK_END)
    f.seek(here)
    return end - here


def parse_image(data: bytes | BinaryIO, source: str = "<bytes>") -> ImageBuffer:
    """Decode a binary PGM/PPM from bytes or from a binary file at its start.

    The header is read first, then at most the payload plus one byte, and
    none at all when a seekable input's size is already wrong.  The payload
    is read into the ImageBuffer's own bytes, with no further copy.
    """
    f = io.BytesIO(data) if isinstance(data, (bytes, bytearray, memoryview)) else data
    width, height, channels, pos = _read_header(f, source)
    expected = width * height * channels
    size = _bytes_left(f)
    payload = f.read(expected + 1) if size in (None, expected) else b""
    found = len(payload) if size is None else size
    if found < expected:
        raise ImageFormatError(
            f"{source}: truncated payload at byte {pos}: expected {expected} bytes,"
            f" found {found}"
        )
    if found > expected:
        # a pipe is read only one byte past the payload, so its count is unknown
        count = "" if size is None else f"{found - expected} "
        raise ImageFormatError(
            f"{source}: {count}trailing bytes after pixel payload at byte {pos + expected}"
        )
    try:
        return ImageBuffer(width, height, channels, payload)
    except ValueError as e:  # zero dimensions and kin
        raise ImageFormatError(f"{source}: {e}") from None


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
    """Read headerless bytes with externally supplied dimensions.

    At most one byte past the expected size is read, enough to tell a long
    file without holding it.  read(n) allocates n bytes up front, so n is
    also capped by a regular file's size (st_size is 0 for a pipe).
    """
    expected = width * height * channels
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size or expected
        data = f.read(max(min(expected, size), 0) + 1)
    if len(data) != expected:
        found = len(data) if len(data) < expected else f"over {expected}"
        raise ImageFormatError(
            f"{path}: raw payload is {found} bytes, expected"
            f" {width}x{height}x{channels} = {expected}"
        )
    return ImageBuffer(width, height, channels, data)
