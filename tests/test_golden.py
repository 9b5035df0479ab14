"""Bit-exact golden gate: sha256 digests of keystreams, S-box tables and
ciphertexts, pinned from the pure-Python reference implementation.

Every test runs on both RK4 paths.  A mismatch means a change altered the
cipher's output; re-pin only in a change that does so on purpose and says
why.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_natural_image
from lftcipher import DEFAULT_LFT, CipherKey, ImageBuffer, LorenzParams, build_family, encrypt
from lftcipher.lorenz import keystream

# past 30003 entries, so the t = 10001 and t = 20001 disturbances fire
LENGTH = 65536

KEYS = {
    "paper": LorenzParams(1.1, 2.3, 3.7),
    "negative": LorenzParams(-7.25, 4.5, 21.0),
    "custom": LorenzParams(0.3, -0.4, 10.5, a=11.0, b=29.5, c=2.5, step=0.005, burn_in=250),
}

KEYSTREAM_DIGESTS = {
    "paper": {
        "k": "553f3444abfa85b8430bec40b59380f99ff02bdd56a88b50f5227fbc055a7a30",
        "perm": "3ff04f9c58cf7edeae4785f2f8314b7c44170aa9021e96647610ba7ec4ba70db",
        "mask": "677459cd667b4c1da7ec52dee8610db9ec42da7ea974e3f42a9138094e338a18",
        "selectors": "c8c4cfdbc7280fffa8bd70709e37bc18efb95385574d4d504542a46020ad4d2a",
    },
    "negative": {
        "k": "a62cc9e444ebc7f7d690c7638a56160929e6874c4352f013dfcec08f4750d40e",
        "perm": "9c60a17855605927e75228d6765b997078081e6745eacb2ed07dad8cab702edf",
        "mask": "1a61e13d3b4ab2a83afdb3ef2f0e6d3a49d35476a3166f8d465c2a5a5458ebbf",
        "selectors": "6cc4d8970c91aa2282b12ca80a7e20146c90e898b2a996058b33e2762a44f218",
    },
    "custom": {
        "k": "0c0e15a1179d6244a2bbde4032bc4cf5c3afa08cadd0993adcb9152ff6405fdd",
        "perm": "50ef914ac294881f14c851f15aa9297e1c4ff15576a199e9551ac8f6e56602d0",
        "mask": "699a35caf17ec25c7d9175b2be7204e60d46261b1f168ac6e524413eaaf6445e",
        "selectors": "5ea13e16c4eadb372916f222312cc971332a0f12b5fb82d08ee141d085a00895",
    },
}

# sha256 prefixes of the 16 default-family tables, in polynomial order
SBOX_DIGESTS = (
    "a025c95cbbae481c", "76bc4797341dd64a", "6342bb163ef871c0", "df6205df90a3f2eb",
    "5c0bc578ffbd5470", "eb5c7c546a5d333d", "844ce26060934b82", "4a5578d8955a0319",
    "1ce97bcb112f77e3", "37fca7313932f1c8", "08ab02e5543b5b44", "863e545590fad316",
    "9f925a44b944df8b", "bfd05cf61101b8d0", "1d58336869942e5c", "73eae98bb4b17e00",
)
SBOX_FAMILY_DIGEST = "bc541d793d2626bdd76f6d989e9557b52ba65849f5fdf499d90073babd6e0f19"

GRAY_CIPHERTEXT_DIGEST = "3d98bf4fc6abfebede089b09911700bc49a55cef072c60e266a061583200467a"
RGB_CIPHERTEXT_DIGEST = "bbf496503577b3c1604deeba6bb50a391d32ed69b2cf3dd2c9447d1eb974d64e"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(KEYS))
def test_keystream_digests(name, rk4_path):
    ks = keystream(KEYS[name], LENGTH)
    got = {
        "k": sha256(ks.k.astype("<f8").tobytes()),
        "perm": sha256(ks.perm.astype("<i8").tobytes()),
        "mask": sha256(ks.mask.tobytes()),
        "selectors": sha256(ks.selectors.tobytes()),
    }
    assert got == KEYSTREAM_DIGESTS[name]


def test_default_sbox_tables():
    family = build_family(*DEFAULT_LFT)
    assert tuple(sha256(box.table)[:16] for box in family) == SBOX_DIGESTS
    assert sha256(b"".join(box.table for box in family)) == SBOX_FAMILY_DIGEST


def test_ciphertexts(rk4_path):
    key = CipherKey.create(KEYS["paper"])
    gray = make_natural_image(7)
    rgb = ImageBuffer.from_array(
        np.stack([make_natural_image(seed).to_array() for seed in (7, 8, 9)], axis=2)
    )
    assert sha256(encrypt(gray, key).data) == GRAY_CIPHERTEXT_DIGEST
    assert sha256(encrypt(rgb, key).data) == RGB_CIPHERTEXT_DIGEST
