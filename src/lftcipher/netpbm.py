"""Binary PGM (P5) and PPM (P6) image I/O, maxval 255 only, plus a raw
headerless mode.  Chosen over PNG to keep byte-exact round-trip contracts
without an external decoder.
"""

from __future__ import annotations

import os

from .cipher import ImageBuffer

_WHITESPACE = b" \t\r\n\v\f"


class ImageFormatError(ValueError):
    """Malformed header or payload; message carries the byte offset."""


def _skip_space_and_comments(data: bytes, pos: int) -> int:
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch in (b"#",):
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch and ch in _WHITESPACE:
            pos += 1
        else:
            break
    return pos


def _next_token(data: bytes, pos: int, what: str) -> tuple[bytes, int]:
    pos = _skip_space_and_comments(data, pos)
    if pos >= len(data):
        raise ImageFormatError(f"unexpected end of header at byte {pos} while reading {what}")
    end = pos
    while end < len(data) and data[end : end + 1] not in _WHITESPACE and data[end : end + 1] != b"#":
        end += 1
    return data[pos:end], end


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, end = _next_token(data, pos, what)
    if not tok.isdigit():
        raise ImageFormatError(f"expected integer {what} at byte {pos}, got {tok!r}")
    return int(tok), end


def parse_image(data: bytes, source: str = "<bytes>") -> ImageBuffer:
    """Decode a binary PGM/PPM byte string."""
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise ImageFormatError(f"{source}: unrecognized magic {magic!r} at byte 0 (want P5 or P6)")
    width, pos = _int_token(data, 2, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if maxval != 255:
        raise ImageFormatError(f"{source}: unsupported maxval {maxval} (only 255)")
    if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
        raise ImageFormatError(f"{source}: expected single whitespace after maxval at byte {pos}")
    pos += 1
    expected = width * height * channels
    found = len(data) - pos  # sized before data[pos:] copies the payload
    if found < expected:
        raise ImageFormatError(
            f"{source}: truncated payload at byte {pos}: expected {expected} bytes,"
            f" found {found}"
        )
    if found > expected:
        raise ImageFormatError(
            f"{source}: {found - expected} trailing bytes after pixel payload"
            f" at byte {pos + expected}"
        )
    try:
        return ImageBuffer(width, height, channels, data[pos:])
    except ValueError as e:  # zero dimensions and kin
        raise ImageFormatError(f"{source}: {e}") from None


def read_image(path: str | os.PathLike) -> ImageBuffer:
    """Read a binary PGM/PPM file."""
    with open(path, "rb") as f:
        return parse_image(f.read(), source=str(path))


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
