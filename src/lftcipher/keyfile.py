"""Key files: plain text, one name=value per line.

Required: x0, y0, z0 (the secret initial conditions).  Optional with
defaults: a=10, b=28, c=8/3, step=0.01, burn_in=100, lft_a..lft_d
(32,22,11,8), and polys= a comma-separated list of exactly 16 primitive
degree-8 polynomials given as hex masks or monomial strings.  Blank lines
and lines starting with # are ignored; unknown or repeated keys are
rejected with their line number.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import golden
from .cipher import CipherKey
from .gf2n import BinaryPoly, field
from .lorenz import LorenzParams


class KeyFileError(ValueError):
    """Unparseable or invalid key file; message carries file and line."""


_FLOAT_KEYS = ("x0", "y0", "z0", "a", "b", "c", "step")
_INT_KEYS = ("burn_in", "lft_a", "lft_b", "lft_c", "lft_d")
_ALL_KEYS = set(_FLOAT_KEYS) | set(_INT_KEYS) | {"polys"}


@dataclass(frozen=True)
class KeyFile:
    """Parsed key material plus its textual provenance."""

    lorenz: LorenzParams
    lft: tuple[int, int, int, int]
    polys: tuple[int, ...]
    source: str = "<memory>"

    def to_cipher_key(self) -> CipherKey:
        return CipherKey.create(self.lorenz, self.lft, self.polys)


def _parse_float(raw: str, where: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise KeyFileError(f"{where}: cannot parse {raw!r} as a number") from None
    if not math.isfinite(v):
        raise KeyFileError(f"{where}: value must be finite, got {raw!r}")
    return v


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise KeyFileError(f"{where}: cannot parse {raw!r} as an integer") from None


def _parse_polys(raw: str, where: str) -> tuple[int, ...]:
    masks = []
    for tok in raw.split(","):
        try:
            poly = BinaryPoly.parse(tok.strip())
        except ValueError as e:
            raise KeyFileError(f"{where}: {e}") from None
        if poly.degree != 8:
            raise KeyFileError(f"{where}: {poly.monomials()} does not have degree 8")
        try:
            spec = field(poly.bits)
        except ValueError as e:
            raise KeyFileError(f"{where}: {e}") from None
        if not spec.is_primitive:
            raise KeyFileError(f"{where}: {poly.monomials()} is not primitive")
        masks.append(poly.bits)
    if len(masks) != 16:
        raise KeyFileError(f"{where}: expected 16 polynomials, got {len(masks)}")
    return tuple(masks)


def parse_key_text(text: str, source: str = "<memory>") -> KeyFile:
    """Parse key material from a string; see the module docstring for keys."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise KeyFileError(f"{where}: expected name=value, got {stripped!r}")
        name, _, raw = stripped.partition("=")
        name = name.strip()
        raw = raw.strip()
        if name not in _ALL_KEYS:
            raise KeyFileError(f"{where}: unknown key {name!r}")
        if name in values:
            raise KeyFileError(f"{where}: repeated key {name!r}")
        if name in _FLOAT_KEYS:
            values[name] = _parse_float(raw, where)
        elif name in _INT_KEYS:
            values[name] = _parse_int(raw, where)
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
    lft = (
        int(values.get("lft_a", golden.DEFAULT_LFT[0])),
        int(values.get("lft_b", golden.DEFAULT_LFT[1])),
        int(values.get("lft_c", golden.DEFAULT_LFT[2])),
        int(values.get("lft_d", golden.DEFAULT_LFT[3])),
    )
    for name, v in zip(("lft_a", "lft_b", "lft_c", "lft_d"), lft):
        if not 0 <= v <= 255:
            raise KeyFileError(f"{source}: {name}={v} out of byte range")
    polys = values.get("polys", golden.PRIMITIVE_POLY_MASKS)
    return KeyFile(params, lft, tuple(polys), source)


def parse_key_file(path: str | os.PathLike) -> KeyFile:
    """Read and parse a key file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError as e:
            raise KeyFileError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_key_text(text, source=str(path))


def format_key_file(kf: KeyFile) -> str:
    """Serialize a KeyFile; floats keep 17 significant digits (exact round-trip)."""
    lines = [
        f"x0={kf.lorenz.x0!r}",
        f"y0={kf.lorenz.y0!r}",
        f"z0={kf.lorenz.z0!r}",
        f"a={kf.lorenz.a!r}",
        f"b={kf.lorenz.b!r}",
        f"c={kf.lorenz.c!r}",
        f"step={kf.lorenz.step!r}",
        f"burn_in={kf.lorenz.burn_in}",
        f"lft_a={kf.lft[0]}",
        f"lft_b={kf.lft[1]}",
        f"lft_c={kf.lft[2]}",
        f"lft_d={kf.lft[3]}",
        "polys=" + ",".join(f"0x{m:X}" for m in kf.polys),
    ]
    return "\n".join(lines) + "\n"
