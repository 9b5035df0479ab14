"""Key files: UTF-8 text, one name=value per line; a leading byte-order
mark is allowed.

Required: x0, y0, z0 (the secret initial conditions).  Optional with
defaults: a=10, b=28, c=8/3, step=0.01, burn_in=100, lft_a..lft_d
(32,22,11,8), and polys= a comma-separated list of hex masks or monomial
strings that sbox.family_polys accepts: the 16 primitive degree-8
polynomials, each once, in any order.  Blank lines and lines starting
with # are ignored; unknown or repeated keys are rejected with their line
number.  Parsing returns a CipherKey, so it builds the key's S-box family.
"""

from __future__ import annotations

import math
import os

from . import golden
from .cipher import CipherKey
from .gf2n import BinaryPoly
from .lorenz import MAX_BURN_IN, LorenzParams
from .sbox import family_polys


class KeyFileError(ValueError):
    """Unparseable or invalid key file; message carries file and line."""


_FLOAT_KEYS = ("x0", "y0", "z0", "a", "b", "c", "step")
_INT_KEYS = {"burn_in": MAX_BURN_IN, "lft_a": 255, "lft_b": 255, "lft_c": 255, "lft_d": 255}
_ALL_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | {"polys"}
_MAX_KEY_FILE = 1 << 16  # bytes; a full key file needs under 1 KiB
_ECHO = 40  # characters of a name, value or line that an error message repeats


def _echo(text: str) -> str:
    """repr of text, cut after _ECHO characters, so that hostile input
    still gives one short error line."""
    if len(text) > _ECHO:
        return f"{text[:_ECHO]!r}..."
    return repr(text)


def _parse_float(raw: str, where: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise KeyFileError(f"{where}: cannot parse {_echo(raw)} as a number") from None
    if not math.isfinite(v):
        raise KeyFileError(f"{where}: value must be finite, got {_echo(raw)}")
    return v


def _parse_int(name: str, raw: str, where: str) -> int:
    try:
        v = int(raw, 0)
    except ValueError:
        raise KeyFileError(f"{where}: cannot parse {_echo(raw)} as an integer") from None
    if not 0 <= v <= _INT_KEYS[name]:
        raise KeyFileError(f"{where}: {name} must be in [0, {_INT_KEYS[name]}], got {_echo(raw)}")
    return v


def _parse_polys(raw: str, where: str) -> tuple[int, ...]:
    masks = []
    for tok in raw.split(","):
        tok = tok.strip()
        try:
            masks.append(BinaryPoly.parse(tok).bits)
        except ValueError:
            raise KeyFileError(f"{where}: cannot parse {_echo(tok)} as a polynomial") from None
    try:
        return family_polys(masks)
    except ValueError as e:
        raise KeyFileError(f"{where}: {e}") from None


def parse_key_text(text: str, source: str = "<memory>") -> CipherKey:
    """Parse key material from a string into a CipherKey; see the module
    docstring for keys.  `source` names the text in error messages."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise KeyFileError(f"{where}: expected name=value, got {_echo(stripped)}")
        name, _, raw = stripped.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name not in _ALL_KEYS:
            raise KeyFileError(f"{where}: unknown key {_echo(name)}")
        if name in values:
            raise KeyFileError(f"{where}: repeated key {name!r}")
        if name in _FLOAT_KEYS:
            values[name] = _parse_float(raw, where)
        elif name in _INT_KEYS:
            values[name] = _parse_int(name, raw, where)
        else:
            values[name] = _parse_polys(raw, where)
    for required in ("x0", "y0", "z0"):
        if required not in values:
            raise KeyFileError(f"{source}: missing required key {required!r}")
    lorenz_kwargs = {k: values[k] for k in _FLOAT_KEYS if k in values}
    if "burn_in" in values:
        lorenz_kwargs["burn_in"] = values["burn_in"]
    try:
        params = LorenzParams(**lorenz_kwargs)
    except ValueError as e:
        raise KeyFileError(f"{source}: {e}") from None
    lft = tuple(
        values.get(name, default)
        for name, default in zip(("lft_a", "lft_b", "lft_c", "lft_d"), golden.DEFAULT_LFT)
    )
    return CipherKey.create(params, lft, values.get("polys", golden.PRIMITIVE_POLY_MASKS))


def parse_key_file(path: str | os.PathLike) -> CipherKey:
    """Read and parse a key file of at most _MAX_KEY_FILE bytes."""
    with open(path, "rb") as f:
        blob = f.read(_MAX_KEY_FILE + 1)
    if len(blob) > _MAX_KEY_FILE:
        raise KeyFileError(f"{path}: larger than {_MAX_KEY_FILE} bytes")
    try:
        text = blob.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as e:
        at = e.start + len(blob) - len(e.object)  # e.object starts after the mark
        raise KeyFileError(f"{path}: not UTF-8 text ({e.reason} at byte {at})") from None
    return parse_key_text(text, source=str(path))

