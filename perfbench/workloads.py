"""The benchmark's three workloads.

Each workload is a closed loop with one client.  `setup` builds the inputs
from the seed and may be called several times; `unit(u, in_process)` runs
unit `u` (one op, or for the CLI an encrypt/decrypt pair), times each op
around the program call only, checks each output outside the timed region
and returns one `Op` per op.  `pinned_extras` returns digests, beyond the
per-op ones, that are pinned for the seeds in golden.json.

Only `setup` imports lftcipher, and workloads call it through module
attributes (`lc.cipher.encrypt`), so the tracer's wrappers are seen and, for
the in-process workloads, the first import is part of set-up time.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

NEIGHBOUR_DX0 = 1e-10  # key-sensitivity step on x0 (acceptance criterion 8)


class Op(NamedTuple):
    seconds: float
    ok: bool
    digest: str | None  # sha256 of the op's output, where it is pinned


class Context(NamedTuple):
    root: Path  # checkout root, holding src/lftcipher
    work: Path  # directory for this run's input and output files
    seed: int
    seconds: float  # measured time per loop


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def keystream_digest(ks) -> str:
    """Digest of (k, perm, mask, selectors) with fixed dtypes and byte order."""
    return sha256(
        np.asarray(ks.k, dtype="<f8").tobytes(),
        np.asarray(ks.perm, dtype="<i8").tobytes(),
        np.asarray(ks.mask, dtype=np.uint8).tobytes(),
        np.asarray(ks.selectors, dtype=np.uint8).tobytes(),
    )


def npcr(a: bytes, b: bytes) -> float:
    """Percent of byte positions that differ (Wu, Noonan & Agaian 2011)."""
    x = np.frombuffer(a, dtype=np.uint8)
    y = np.frombuffer(b, dtype=np.uint8)
    return float((x != y).mean() * 100)


def natural_plane(rng: np.random.Generator, size: int) -> np.ndarray:
    """Photograph-like uint8 plane: smooth waves, soft blobs, mild noise,
    so adjacent pixels correlate and the histogram is far from flat."""
    scale = size / 256
    axis = np.arange(size, dtype=np.float64)
    img = 120 + 55 * np.outer(
        np.cos(2 * np.pi * axis / (71 * scale) + rng.uniform(0, 2 * np.pi)),
        np.sin(2 * np.pi * axis / (97 * scale) + rng.uniform(0, 2 * np.pi)),
    )
    for _ in range(6):
        cx, cy = rng.uniform(0, size, 2)
        r = rng.uniform(15, 60) * scale
        amp = rng.uniform(-75, 75)
        img += amp * np.outer(np.exp(-((axis - cy) ** 2) / (2 * r * r)),
                              np.exp(-((axis - cx) ** 2) / (2 * r * r)))
    img += rng.normal(0, 2.0, img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def natural_image(rng: np.random.Generator, size: int, channels: int) -> np.ndarray:
    planes = [natural_plane(rng, size) for _ in range(channels)]
    return planes[0] if channels == 1 else np.stack(planes, axis=2)


def draw_initial_conditions(rng: np.random.Generator) -> tuple[float, float, float]:
    """A point in the Lorenz attractor's basin, away from the fixed points."""
    return (float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)),
            float(rng.uniform(5, 35)))


def import_lftcipher(root: Path) -> SimpleNamespace:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ("cipher", "cli", "golden", "lorenz", "metrics", "polyfind", "sbox",
             "sbox_analysis")
    return SimpleNamespace(**{n: importlib.import_module(f"lftcipher.{n}") for n in names})


def read_netpbm(path: Path) -> tuple[tuple[int, int, int], bytes]:
    """((width, height, channels), pixels) of a binary PGM/PPM file with a
    plain header, read independently of the program's own parser."""
    data = path.read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        while data[pos:pos + 1].isspace():
            pos += 1
        end = pos
        while end < len(data) and not data[end:end + 1].isspace():
            end += 1
        fields.append(data[pos:end])
        pos = end
    channels = {b"P5": 1, b"P6": 3}[fields[0]]
    width, height = int(fields[1]), int(fields[2])
    pixels = data[pos + 1:]
    if int(fields[3]) != 255 or len(pixels) != width * height * channels:
        raise ValueError(f"{path}: malformed image")
    return (width, height, channels), pixels


class CliRgb:
    """`python -m lftcipher.cli` encrypt then decrypt of a 1024x1024 RGB PPM,
    one process per op, a fresh seed-drawn key file per pair."""

    name = "cli-rgb-1024"
    imports_program = False  # each op is its own process
    tail_pct = 50
    unit_ops = 2
    size = 1024
    key_count = 64  # pair u uses key u % key_count
    bytes_per_op = size * size * 3

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.lc = None
        self.plain_path = ctx.work / "plain.ppm"
        self.ct_path = ctx.work / "cipher.ppm"
        self.rt_path = ctx.work / "roundtrip.ppm"
        env = dict(os.environ)
        src = str(ctx.root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def command(self, *argv: str) -> list[str]:
        return [sys.executable, "-m", "lftcipher.cli", *argv]

    def setup(self) -> None:
        rng = np.random.default_rng([self.ctx.seed, 1])
        self.plain = natural_image(rng, self.size, 3).tobytes()
        with open(self.plain_path, "wb") as f:
            f.write(f"P6\n{self.size} {self.size}\n255\n".encode() + self.plain)
        self.keys = [draw_initial_conditions(rng) for _ in range(self.key_count)]
        self.key_paths = []
        for i, (x0, y0, z0) in enumerate(self.keys):
            path = self.ctx.work / f"key-{i}.txt"
            path.write_text(f"x0={x0!r}\ny0={y0!r}\nz0={z0!r}\n", encoding="utf-8")
            self.key_paths.append(path)

    def _run(self, argv: list[str], in_process: bool) -> tuple[float, bool]:
        if in_process:
            if self.lc is None:
                self.lc = import_lftcipher(self.ctx.root)
            t0 = time.perf_counter()
            rc = self.lc.cli.main(argv)
            return time.perf_counter() - t0, rc == 0
        t0 = time.perf_counter()
        proc = subprocess.run(self.command(*argv), cwd=self.ctx.root, env=self.env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return seconds, proc.returncode == 0

    def unit(self, u: int, in_process: bool = False) -> list[Op]:
        key = str(self.key_paths[u % self.key_count])
        shape = (self.size, self.size, 3)
        for path in (self.ct_path, self.rt_path):
            path.unlink(missing_ok=True)
        t_enc, ok = self._run(["encrypt", "--key", key, "--in", str(self.plain_path),
                               "--out", str(self.ct_path)], in_process)
        ct_shape, ct = read_netpbm(self.ct_path) if ok else (None, b"")
        ok_enc = ok and ct_shape == shape and ct != self.plain
        t_dec, ok = self._run(["decrypt", "--key", key, "--in", str(self.ct_path),
                               "--out", str(self.rt_path)], in_process)
        rt_shape, rt = read_netpbm(self.rt_path) if ok else (None, b"")
        ok_dec = ok_enc and rt_shape == shape and rt == self.plain
        return [Op(t_enc, ok_enc, sha256(ct)), Op(t_dec, ok_dec, None)]

    def pinned_extras(self) -> dict[str, str]:
        lc = self.lc or import_lftcipher(self.ctx.root)
        ks = lc.lorenz.keystream(lc.lorenz.LorenzParams(*self.keys[0]), self.size * self.size)
        return {"keystream-key0": keystream_digest(ks)}


class KeySweep:
    """In process: CipherKey.create, encrypt and decrypt of a 256x256 gray
    image per op; every odd key is a 1e-10 neighbour of the key before it."""

    name = "key-sweep-gray-256"
    imports_program = True
    tail_pct = 90
    unit_ops = 1
    size = 256
    bytes_per_op = 2 * size * size  # encrypted plus decrypted

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.prev_ct = None

    def setup(self) -> None:
        self.lc = import_lftcipher(self.ctx.root)
        rng = np.random.default_rng([self.ctx.seed, 2])
        self.img = self.lc.cipher.ImageBuffer.from_array(natural_image(rng, self.size, 1))

    def params(self, u: int):
        x0, y0, z0 = draw_initial_conditions(np.random.default_rng([self.ctx.seed, 2, u // 2]))
        if u % 2:
            x0 += NEIGHBOUR_DX0
        return self.lc.lorenz.LorenzParams(x0, y0, z0)

    def unit(self, u: int, in_process: bool = True) -> list[Op]:
        cipher, params = self.lc.cipher, self.params(u)
        t0 = time.perf_counter()
        key = cipher.CipherKey.create(params)
        ct = cipher.encrypt(self.img, key)
        pt = cipher.decrypt(ct, key)
        seconds = time.perf_counter() - t0
        ok = pt.data == self.img.data and ct.data != self.img.data
        if u % 2:
            ok = ok and self.prev_ct is not None and npcr(ct.data, self.prev_ct) > 99.0
        self.prev_ct = ct.data
        return [Op(seconds, ok, sha256(ct.data))]

    def pinned_extras(self) -> dict[str, str]:
        n = self.size * self.size
        return {f"keystream-key{u}": keystream_digest(self.lc.lorenz.keystream(self.params(u), n))
                for u in (0, 1)}


def _gf_mul(a: int, b: int, poly: int) -> int:
    """Product in GF(2^8) mod `poly`, kept apart from the program's field
    code so that set-up neither times nor warms it."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return r


class AnalysisSuite:
    """In process: S-box family for a seed-drawn LFT, strength analysis of
    all 16 boxes, cryptanalysis report, image metrics on a 512x512 RGB
    ciphertext pair and the degree-10 polynomial census.  No keystream."""

    name = "analysis-suite"
    imports_program = True
    tail_pct = 85
    unit_ops = 1
    size = 512
    lft_count = 64  # op u uses LFT u % lft_count
    census_degree = 10
    bytes_per_op = 2 * size * size * 3  # the ciphertext pair analysed

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        lc = self.lc = import_lftcipher(self.ctx.root)
        rng = np.random.default_rng([self.ctx.seed, 3])
        polys = lc.golden.PRIMITIVE_POLY_MASKS
        self.lfts = []
        while len(self.lfts) < self.lft_count:
            a, b, c, d = (int(v) for v in rng.integers(0, 256, 4))
            if c and all(_gf_mul(a, d, p) ^ _gf_mul(b, c, p) for p in polys):
                self.lfts.append((a, b, c, d))
        cipher = lc.cipher
        img = cipher.ImageBuffer.from_array(natural_image(rng, self.size, 3))
        x0, y0, z0 = draw_initial_conditions(rng)
        self.pair = tuple(
            cipher.encrypt(img, cipher.CipherKey.create(lc.lorenz.LorenzParams(x, y0, z0)))
            for x in (x0, x0 + NEIGHBOUR_DX0)
        )
        self.census_counts = (lc.polyfind.count_irreducible(self.census_degree),
                              lc.polyfind.count_primitive(self.census_degree))

    def _image_metrics(self, img):
        m = self.lc.metrics
        return (m.adjacency_correlation(img, "horizontal"),
                m.adjacency_correlation(img, "vertical"),
                m.entropy(img), m.glcm_features(img, (0, 1)), m.chi_square_uniform(img))

    def unit(self, u: int, in_process: bool = True) -> list[Op]:
        lc, lft = self.lc, self.lfts[u % self.lft_count]
        t0 = time.perf_counter()
        family = lc.sbox.build_family(*lft)
        reports = [lc.sbox_analysis.analyze(box) for box in family]
        text = lc.metrics.cryptanalysis_report(family)
        images = [self._image_metrics(img) for img in self.pair]
        avalanche = lc.metrics.npcr_uaci(*self.pair)
        census = lc.polyfind.enumerate_classified(self.census_degree)
        seconds = time.perf_counter() - t0
        ok = len(family) == 16 and all(
            sorted(box.table) == list(range(256)) and r.nl_min == 112
            and r.dp == 4 / 256 and r.lp_count == 144
            for box, r in zip(family, reports)
        )
        counts = (sum(r.irreducible for r in census), sum(r.primitive for r in census))
        ok = ok and counts == self.census_counts and avalanche.npcr > 99.0
        for corr_h, corr_v, entropy, _, _ in images:
            ok = ok and entropy > 7.99 and all(
                c is not None and abs(c) < 0.05 for c in (corr_h, corr_v))
        digest = sha256(
            b"".join(box.table for box in family),
            repr([(r.nl_per_coordinate, r.lp_count, round(r.dp * 256)) for r in reports]).encode(),
            text.encode(),
            repr([(r.poly.bits, r.irreducible, r.primitive, r.order) for r in census]).encode(),
        )
        return [Op(seconds, ok, digest)]

    def pinned_extras(self) -> dict[str, str]:
        return {"ciphertext-pair": sha256(*(img.data for img in self.pair))}


WORKLOADS = {w.name: w for w in (CliRgb, KeySweep, AnalysisSuite)}
