"""Image cipher built on linear fractional transformation S-boxes over
GF(2^8) and a Lorenz-system keystream, with the analysis harness used to
evaluate both."""

from .cipher import CipherKey, ImageBuffer, decrypt, encrypt
from .gf2n import BinaryPoly, FieldSpec, field
from .golden import DEFAULT_LFT, PRIMITIVE_POLY_MASKS, REFERENCE_SBOX
from .keyfile import parse_key_file, parse_key_text
from .lorenz import Keystream, LorenzParams, keystream
from .netpbm import read_image, read_raw, write_image
from .sbox import LftParams, LftSBox, build_family, build_sbox

__version__ = "0.1.0"

__all__ = [
    "BinaryPoly",
    "CipherKey",
    "DEFAULT_LFT",
    "FieldSpec",
    "ImageBuffer",
    "Keystream",
    "LftParams",
    "LftSBox",
    "LorenzParams",
    "PRIMITIVE_POLY_MASKS",
    "REFERENCE_SBOX",
    "StrengthReport",
    "analyze",
    "build_family",
    "build_sbox",
    "decrypt",
    "encrypt",
    "field",
    "keystream",
    "parse_key_file",
    "parse_key_text",
    "read_image",
    "read_raw",
    "write_image",
]

_ANALYSIS = ("StrengthReport", "analyze")  # from sbox_analysis, imported on first use


def __getattr__(name: str):
    # the cipher path never loads the analysis modules
    if name in _ANALYSIS:
        from . import sbox_analysis

        return getattr(sbox_analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
