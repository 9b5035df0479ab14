"""Bit-exact golden gate: sha256 digests of keystreams, S-box tables,
ciphertexts and analysis output, pinned from the reference implementations.

Every test that derives a keystream runs on both RK4 paths.  A mismatch
means a change altered the program's output; re-pin only in a change that
does so on purpose and says why.
"""

import hashlib

import numpy as np
import pytest

from conftest import make_natural_image
from lftcipher import DEFAULT_LFT, CipherKey, ImageBuffer, LorenzParams, build_family, encrypt
from lftcipher import sbox
from lftcipher.cli import main
from lftcipher.lorenz import keystream
from lftcipher.metrics import cryptanalysis_report
from lftcipher.sbox_analysis import analyze

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

# CLI-scale streams: 1024 x 1024 pixels (20 index bits in the rank sort's
# packed keys) and an odd length; for both keys and both lengths some
# packed keys share their high part, so the sort's tie fix-up runs
CLI_KEYSTREAM_DIGESTS = {
    ("paper", 1048576): {
        "k": "79f48da21ea828547451c8f122bd47eb915e511236841706f997827df8e62316",
        "perm": "906a0759b5f6215baae3bb8ae48dc40aa14d8e019c0e5ac9b16e22cbbee53750",
        "mask": "768ea6b37bb99681dfd2e7da772bac4544cc634dc895a1cae9fc31574774f277",
        "selectors": "d627d995c82d44703bd5b5beb68942d1e295e0d76499524537e420e5992b0b81",
    },
    ("negative", 1048576): {
        "k": "d62c87e923060d3087fbe276ec40a52d53d9e51275f02c8a53b608a2f5559384",
        "perm": "d00bfa67becd14a52b273732dcd1fec12ef9b720e93e6691536a83bea50198f7",
        "mask": "0b067a87d9cda8d1e01a9eeeb3cb358df4f60e5ce942f5c91abe0e4726de2bd6",
        "selectors": "3b64a29c62527d9b304c3eff497d51a28c6af197f63bc4fdb58975f6dc5d2d8b",
    },
    ("paper", 1000003): {
        "k": "4d8f112a511ab18fdbda58fd70285dcff5410ff9cf2b62237d2ba43216d63356",
        "perm": "823007aebc826b20c1fee47c0bc3723b7ddc9e77d86cc5d68928887639412a65",
        "mask": "cba859ffc80a0fdfcf46b83bf5097efe67710def58e9d147bfb5f31b4661cb0d",
        "selectors": "0a90fbf8be8963303e0bf4dd31b0269d518f6009834530f2888240428b03a7d9",
    },
    ("negative", 1000003): {
        "k": "35a78ac58c7d517b2cc122ea9a2d586502e71365c46f0d41d027348370a0f6e6",
        "perm": "7abeb4ba71d4528ad6a6c55b486facfda195fd5aaf99c8a8c61dc40c7a4bcbe7",
        "mask": "2399d016173d0a43feadcfe05a9fb6fb53fd0419c1f3d5e0b829cb0c51d415ed",
        "selectors": "b1a28b0733dea181910ee6dd3d98491642497f773ce0310a8c4be308d9137bc0",
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

# S-box sets for the analysis pins: four LFT families, and 16 seeded random
# bijections, whose criteria (unlike the families') differ from box to box
ANALYSIS_LFTS = {
    "default": DEFAULT_LFT,
    "lft-1-2-3-4": (1, 2, 3, 4),
    "lft-200-17-99-5": (200, 17, 99, 5),
    "lft-7-0-1-90": (7, 0, 1, 90),
}
RANDOM_BIJECTION_SEED = 2020

# every LFT box is affine-equivalent to inversion, so the families share
# one report text
LFT_REPORT_DIGEST = "f95b10505734fbe1e9803a312093bfea8df3820f780ab1f72ee679eee473f91b"
# (sha256 of repr of every StrengthReport, floats included; of the report text)
ANALYSIS_DIGESTS = {
    "default": (
        "d7dccaf03d43299ab0aa55239328ac768488cf1785f6b7e531b6e3c9f3b3595e",
        LFT_REPORT_DIGEST,
    ),
    "lft-1-2-3-4": (
        "f68ea7b826811e9936851bffa7e31d72e5a459ec8b389bfe2764e4baedd281dd",
        LFT_REPORT_DIGEST,
    ),
    "lft-200-17-99-5": (
        "847bb56e29e1fe9da8d7d9812003df5949e58a861850e6f2d7c8dca0ca9b6a7c",
        LFT_REPORT_DIGEST,
    ),
    "lft-7-0-1-90": (
        "d34ba85298d8ffabd2de0fee4b56db5e1762c3468e2364d3be4146d5ef0068c9",
        LFT_REPORT_DIGEST,
    ),
    "random": (
        "ac9c86d20e6e44dd8cbe55bb566d8e3cd45d5d2766d52f026d3c5f9499b59b8f",
        "06cae96c758ce1ca0bea26c3763b66625474c72f0f36901b77c83708714c08e3",
    ),
}

# sha256 of the `enumerate-polys --degree N` output
ENUMERATE_POLYS_DIGESTS = {
    1: "756d7af5741dac1caa54b38e4d993ca4e65ed5f37020d9c834cca7038627af81",
    2: "6632d95ca3ab6451f27ce7a04b04f18876a53cbda1ff1d549b3a98a59dd0cc9c",
    3: "2ec0e1c66b805f82af1c885abd9f2a3d0e87d920937f4bcb41813519f9f8fc77",
    4: "c7c069ae98a23a1461e44ff3fff4e1ce3a468413d3056df3a1d0378e2b801358",
    5: "bd855536ab281e106bfef60c8c987cc41c15eac0f26dee1378fadf97601fbe50",
    6: "260ed05631d2a2dbfbbe921c7170cb142f192821a8fdd98349f0f9d30fd13d47",
    7: "0a5fda7bf1c1373af65c1b4859d68636e4519608ebfb944fb6f0f11eb0d050a5",
    8: "3a9f80448755b73f47953ef964646449fa1dc54aa62f8a8439761b3050e72db5",
    9: "cc6980f79e3b0cd97f3fffbd9fa07f049d2e6d48ce0ca2f5828a86b1fa1ea383",
    10: "6b6c485c0327dcd514f0e3c9861475d15cfb54f1330fa419cbcfdf62840a60f4",
    11: "1df2be055deee528a796ba23bf4e4231f789f2a07c49ec77381ad6a1c1d9222f",
    12: "a9c076f6ac6311573daf4b2ce9cbcbe3bebe5ed828311790fb29f50e4f1629b4",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def keystream_digests(params, length):
    ks = keystream(params, length)
    return {
        "k": sha256(ks.k.astype("<f8").tobytes()),
        "perm": sha256(ks.perm.astype("<i8").tobytes()),
        "mask": sha256(ks.mask.tobytes()),
        "selectors": sha256(ks.selectors.tobytes()),
    }


@pytest.mark.parametrize("name", sorted(KEYS))
def test_keystream_digests(name, rk4_path):
    assert keystream_digests(KEYS[name], LENGTH) == KEYSTREAM_DIGESTS[name]


# the digest does not depend on the RK4 path, which the 65,536 pins cover
@pytest.mark.parametrize("name, length", sorted(CLI_KEYSTREAM_DIGESTS))
def test_cli_scale_keystream_digests(name, length):
    assert keystream_digests(KEYS[name], length) == CLI_KEYSTREAM_DIGESTS[name, length]


def test_default_sbox_tables():
    family = build_family(*DEFAULT_LFT)
    assert tuple(sha256(box.table)[:16] for box in family) == SBOX_DIGESTS
    assert sha256(b"".join(box.table for box in family)) == SBOX_FAMILY_DIGEST


def test_memoised_family_keeps_the_pins():
    sbox._family.cache_clear()
    built = build_family(*DEFAULT_LFT)
    hit = build_family(*DEFAULT_LFT)
    assert hit is built
    assert tuple(sha256(box.table)[:16] for box in hit) == SBOX_DIGESTS


def test_ciphertexts(rk4_path):
    key = CipherKey.create(KEYS["paper"])
    gray = make_natural_image(7)
    rgb = ImageBuffer.from_array(
        np.stack([make_natural_image(seed).to_array() for seed in (7, 8, 9)], axis=2)
    )
    assert sha256(encrypt(gray, key).data) == GRAY_CIPHERTEXT_DIGEST
    assert sha256(encrypt(rgb, key).data) == RGB_CIPHERTEXT_DIGEST


def analysis_boxes(name):
    if name == "random":
        rng = np.random.default_rng(RANDOM_BIJECTION_SEED)
        return [rng.permutation(256).astype(np.uint8).tobytes() for _ in range(16)]
    return build_family(*ANALYSIS_LFTS[name])


@pytest.mark.parametrize("name", sorted(ANALYSIS_DIGESTS))
def test_analysis_digests(name):
    boxes = analysis_boxes(name)
    reports = sha256(repr([analyze(box) for box in boxes]).encode())
    assert (reports, sha256(cryptanalysis_report(boxes).encode())) == ANALYSIS_DIGESTS[name]


@pytest.mark.parametrize("degree", sorted(ENUMERATE_POLYS_DIGESTS))
def test_enumerate_polys_digests(degree, capsys):
    assert main(["enumerate-polys", "--degree", str(degree)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == ENUMERATE_POLYS_DIGESTS[degree]
