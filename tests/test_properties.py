"""Property tests for the keystream digest, the cipher stages and the
S-box constructor.

The references are the straightforward formulations the fast code must
match bit for bit: numpy's stable argsort, the int64 floor/mod formulas
for the mask and selectors, and a plane-major pipeline built on the
plane-order reference `flatten` in conftest.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import flatten, unflatten
from lftcipher import CipherKey, ImageBuffer, LorenzParams, decrypt, encrypt
from lftcipher.cipher import (
    inverse_permute,
    inverse_substitute,
    permute,
    substitute,
    xor_mask,
)
from lftcipher.lorenz import derive_keystream, keystream
from lftcipher.sbox import LftSBox, SBoxFormatError, SBoxValidationError

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
