"""Property tests for the keystream digest, the cipher stages, the
S-box constructor and the three parsers (netpbm, key file, S-box text).

The references are the straightforward formulations the fast code must
match bit for bit: numpy's stable argsort, the int64 floor/mod formulas
for the mask and selectors, and a plane-major pipeline built on the
plane-order reference `flatten` in conftest.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import Unseekable, flatten, unflatten
from lftcipher import CipherKey, ImageBuffer, LorenzParams, decrypt, encrypt, golden
from lftcipher.cipher import (
    inverse_permute,
    inverse_substitute,
    permute,
    substitute,
    xor_mask,
)
from lftcipher.keyfile import KeyFileError, parse_key_text
from lftcipher.lorenz import derive_keystream, keystream
from lftcipher.netpbm import ImageFormatError, parse_image
from lftcipher.sbox import (
    DegenerateLftError,
    LftSBox,
    SBoxFormatError,
    SBoxValidationError,
    parse_table_text,
)

BELOW_ONE = np.nextafter(1.0, 0.0)
# values whose packed sort keys share their high part, or that compare equal
SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    1e-310,
    np.nextafter(1e-310, 1.0),
    0.5,
    np.nextafter(0.5, 0.0),
    np.nextafter(0.5, 1.0),
    BELOW_ONE,
    np.nextafter(BELOW_ONE, 0.0),
]

unit_floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=True),
)
k_arrays = arrays(np.float64, st.integers(0, 300), elements=unit_floats)

KEY = CipherKey.create(LorenzParams(1.1, 2.3, 3.7))


@st.composite
def images(draw):
    width = draw(st.integers(1, 24))
    height = draw(st.integers(1, 24))
    channels = draw(st.sampled_from([1, 3]))
    data = draw(st.binary(min_size=width * height * channels, max_size=width * height * channels))
    return ImageBuffer(width, height, channels, data)


@given(k_arrays)
def test_rank_permutation_is_stable_argsort(k):
    assert np.array_equal(derive_keystream(k).perm, np.argsort(k, kind="stable"))


@given(k_arrays)
def test_mask_and_selectors_match_int64_formulas(k):
    ks = derive_keystream(k)
    scaled = k * 1e4
    assert np.array_equal(ks.mask, (np.floor(scaled + 0.5).astype(np.int64) % 256).astype(np.uint8))
    assert np.array_equal(ks.selectors, (np.floor(scaled).astype(np.int64) % 16).astype(np.uint8))


@given(images())
def test_round_trip(img):
    assert decrypt(encrypt(img, KEY), KEY) == img


@given(images())
def test_cipher_is_stage_composition_on_flattened_planes(img):
    ks = keystream(KEY.lorenz, img.pixel_count)
    n = img.pixel_count
    flat = flatten(img)
    enc = np.concatenate([
        substitute(xor_mask(permute(flat[ch * n : (ch + 1) * n], ks.perm), ks.mask),
                   ks.selectors, KEY.sboxes)
        for ch in range(img.channels)
    ])
    dec = np.concatenate([
        inverse_permute(
            xor_mask(inverse_substitute(flat[ch * n : (ch + 1) * n], ks.selectors, KEY.sboxes),
                     ks.mask),
            ks.perm,
        )
        for ch in range(img.channels)
    ])
    assert encrypt(img, KEY) == unflatten(enc, img.width, img.height, img.channels)
    assert decrypt(img, KEY) == unflatten(dec, img.width, img.height, img.channels)


@given(st.permutations(range(256)))
def test_sbox_inverse_composes_to_identity_both_ways(perm):
    box = LftSBox(perm)
    table, inverse = np.frombuffer(box.table, np.uint8), np.frombuffer(box.inverse, np.uint8)
    assert np.array_equal(table, perm)
    assert np.array_equal(inverse[table], np.arange(256))
    assert np.array_equal(table[inverse], np.arange(256))


entries = st.one_of(st.integers(-300, 300), st.none(), st.floats(), st.text(max_size=3))


@given(st.one_of(st.lists(entries, max_size=300), st.lists(entries, min_size=256, max_size=256)))
def test_sbox_rejects_malformed_lists_with_its_own_errors(raw):
    try:
        LftSBox(raw)
    except (SBoxFormatError, SBoxValidationError):
        pass


# header integers near the edges: zero, the 2^26-pixel limit, past it, huge
header_ints = st.one_of(
    st.integers(0, 9),
    st.sampled_from([8192, 8193, 16384, 1 << 26, 10**19, 10**20]),
)


@st.composite
def netpbm_blobs(draw):
    """Arbitrary bytes, or a header of drawn fields and separators followed
    by a payload of about the size it claims, so every check is reached."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6", b"P3", b""]))
    sep = st.sampled_from([b" ", b"\n", b" # c\n", b"#", b""])
    width, height = draw(header_ints), draw(header_ints)
    maxval = draw(st.just(255) | header_ints)
    head = magic
    for value in (width, height, maxval):
        head += draw(sep) + str(value).encode()
    expected = width * height * (3 if magic == b"P6" else 1)
    size = draw(st.integers(0, 2)) + expected - 1 if expected < 300 else draw(st.integers(0, 9))
    return head + draw(sep) + bytes(max(size, 0))


@settings(max_examples=300)
@given(netpbm_blobs(), st.booleans())
def test_parse_image_raises_only_its_own_error(blob, pipe):
    try:
        img = parse_image(Unseekable(blob) if pipe else blob)
    except ImageFormatError:
        return
    assert blob.endswith(img.data)


KEY_NAMES = ["x0", "y0", "z0", "a", "b", "c", "step", "burn_in",
             "lft_a", "lft_b", "lft_c", "lft_d", "polys"]
key_values = st.one_of(
    st.sampled_from(["1.1", "-3", "0", "1e308", "1e309", "nan", "-inf", "0x1F", "255",
                     "256", "1000001", "x^8+x^4+x^3+x^2+1", "x^100000000", "0x11d,0x11d",
                     ",".join(hex(m) for m in golden.PRIMITIVE_POLY_MASKS)]),
    st.integers(-2, 300).map(str),
    st.text(max_size=12),
)


@st.composite
def key_texts(draw):
    """name=value lines over the known names, usually with x0, y0 and z0, so
    that the Lorenz, LFT and polynomial checks are all reached."""
    names = draw(st.lists(st.sampled_from(KEY_NAMES), max_size=8))
    if draw(st.booleans()):
        names = ["x0", "y0", "z0"] + names
    lines = [f"{name}={draw(key_values)}" for name in names]
    return "\n".join(lines)


@settings(max_examples=300)
@given(st.one_of(st.text(max_size=80), key_texts()))
def test_parse_key_text_raises_only_its_own_errors(text):
    try:
        parse_key_text(text)
    except (KeyFileError, DegenerateLftError):
        pass


table_tokens = st.one_of(
    st.integers(-5, 300).map(str),
    st.sampled_from(["256", "-1", "0x1", "1.5", "-", "1_0"]),  # the range edges, drawn often
    st.text(max_size=3),
)


@st.composite
def table_texts(draw):
    """A 256-entry table text with a few entries replaced, dropped or added."""
    tokens = [str(v) for v in range(256)]
    for i, tok in draw(st.lists(st.tuples(st.integers(0, 255), st.none() | table_tokens),
                                max_size=3)):
        tokens[i] = "" if tok is None else tok
    return " ".join(tokens + draw(st.lists(table_tokens, max_size=2)))


@settings(max_examples=200)
@given(st.one_of(st.text(max_size=80), table_texts()))
def test_parse_table_text_raises_only_its_own_error(text):
    try:
        table = parse_table_text(text)
    except SBoxFormatError:
        return
    assert len(table) == 256 and all(0 <= v <= 255 for v in table)
