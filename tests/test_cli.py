import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lftcipher
from conftest import make_natural_image, require_kernel
from lftcipher import ImageBuffer, build_family, lorenz
from lftcipher.cipher import permute, substitute, xor_mask
from lftcipher.cli import build_parser, main
from lftcipher.golden import DEFAULT_LFT, PRIMITIVE_POLY_MASKS, REFERENCE_SBOX
from lftcipher.netpbm import read_image, write_image
from lftcipher.sbox import format_table_text

KEY_TEXT = "x0=1.1\ny0=2.3\nz0=3.7\n"


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "key.txt"
    path.write_text(KEY_TEXT)
    return str(path)


@pytest.fixture
def small_image(tmp_path):
    path = tmp_path / "plain.pgm"
    write_image(make_natural_image(seed=50, width=32, height=24), path)
    return str(path)


class TestEnumeratePolys:
    def test_degree_8_census(self, capsys):
        assert main(["enumerate-polys", "--degree", "8"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 128  # odd monic candidates
        cols = [line.split("\t") for line in lines]
        assert sum(1 for c in cols if c[2] == "yes") == 30
        assert sum(1 for c in cols if c[3] == "yes") == 16

    def test_primitive_only(self, capsys):
        assert main(["enumerate-polys", "--degree", "8", "--primitive-only"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 16
        masks = {int(line.split("\t")[0], 16) for line in lines}
        assert masks == set(PRIMITIVE_POLY_MASKS)
        assert all(line.split("\t")[4] == "255" for line in lines)

    def test_row_format(self, capsys):
        main(["enumerate-polys", "--degree", "2"])
        out = capsys.readouterr().out
        assert "0x7\tx^2+x+1\tyes\tyes\t3" in out


class TestGenAnalyze:
    def test_gen_text_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "box.txt"
        assert main(["gen-sbox", "--poly-index", "1", "--out", str(out)]) == 0
        assert main(["analyze-sbox", "--in", str(out)]) == 0
        text = capsys.readouterr().out
        assert "N.L=112.00" in text
        assert "DP=0.01562" in text
        assert "LP=144/0.0625" in text

    def test_gen_binary_form(self, tmp_path):
        out = tmp_path / "box.bin"
        assert main(["gen-sbox", "--poly-index", "3", "--format", "binary", "--out", str(out)]) == 0
        blob = out.read_bytes()
        assert len(blob) == 256
        assert sorted(blob) == list(range(256))

    def test_gen_custom_lft(self, tmp_path):
        out = tmp_path / "box.txt"
        assert main(["gen-sbox", "--lft", "1,0,0,1", "--out", str(out)]) == 0
        vals = [int(t) for t in out.read_text().split()]
        assert vals == list(range(256))

    def test_analyze_rejects_reference_table(self, tmp_path, capsys):
        path = tmp_path / "ref.txt"
        path.write_text(format_table_text(REFERENCE_SBOX))
        assert main(["analyze-sbox", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:sbox-invalid:")
        assert "23" in err and "157" in err

    def test_analyze_binary_input(self, tmp_path, capsys):
        path = tmp_path / "box.bin"
        main(["gen-sbox", "--poly-index", "2", "--format", "binary", "--out", str(path)])
        assert main(["analyze-sbox", "--in", str(path)]) == 0

    def test_degenerate_lft_error_code(self, tmp_path, capsys):
        rc = main(["gen-sbox", "--lft", "1,1,1,1", "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:degenerate-lft:")

    def test_lft_out_of_byte_range(self, tmp_path, capsys):
        rc = main(["gen-sbox", "--lft", "300,0,0,1", "--out", str(tmp_path / "x.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:invalid-input:") and err.count("\n") == 1
        assert "a=300" in err


class TestEncryptDecrypt:
    def test_round_trip(self, tmp_path, keyfile, small_image):
        ct = tmp_path / "ct.pgm"
        pt = tmp_path / "pt.pgm"
        assert main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(ct)]) == 0
        assert main(["decrypt", "--key", keyfile, "--in", str(ct), "--out", str(pt)]) == 0
        assert read_image(pt) == read_image(small_image)

    def test_deterministic_ciphertexts(self, tmp_path, keyfile, small_image):
        c1 = tmp_path / "c1.pgm"
        c2 = tmp_path / "c2.pgm"
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(c1)])
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(c2)])
        assert c1.read_bytes() == c2.read_bytes()

    def test_keystream_dump_deterministic(self, tmp_path, keyfile):
        d1 = tmp_path / "ks1.tsv"
        d2 = tmp_path / "ks2.tsv"
        for dump in (d1, d2):
            assert main(["keystream", "--key", keyfile, "--length", "768",
                         "--out", str(dump)]) == 0
        assert d1.read_bytes() == d2.read_bytes()
        header = d1.read_text().splitlines()
        assert header[0] == "length=768"
        assert header[1] == "i\tk\tperm\tmask\tselector"

    def test_raw_mode(self, tmp_path, keyfile):
        raw = tmp_path / "img.raw"
        rng = np.random.default_rng(51)
        raw.write_bytes(rng.integers(0, 256, 60, dtype=np.uint8).tobytes())
        ct = tmp_path / "ct.pgm"
        assert main(["encrypt", "--key", keyfile, "--in", str(raw), "--raw", "10x6",
                     "--out", str(ct)]) == 0
        img = read_image(ct)
        assert (img.width, img.height) == (10, 6)

    def test_missing_key_file(self, tmp_path, small_image, capsys):
        ct = tmp_path / "ct.pgm"
        rc = main(["encrypt", "--key", str(tmp_path / "nope.txt"), "--in", small_image,
                   "--out", str(ct)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:file-not-found:")

    def test_bad_key_file(self, tmp_path, small_image, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("x0=1\nwat=2\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile:")
        assert "wat" in err

    def test_burn_in_out_of_range(self, tmp_path, small_image, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(KEY_TEXT + "burn_in=1000000000000\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile:")
        assert err.count("\n") == 1
        assert "burn_in" in err

    def test_repeated_polynomial_key_file(self, tmp_path, small_image, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(KEY_TEXT + "polys=" + ",".join(["0x11D"] * 16) + "\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile:")
        assert err.count("\n") == 1
        assert "bad.txt:4" in err and "x^8+x^4+x^3+x^2+1 is listed twice" in err

    def test_non_utf8_key_file(self, tmp_path, small_image, capsys):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(KEY_TEXT.encode() + b"# caf\xe9\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile:")
        assert err.count("\n") == 1
        assert "latin1.txt" in err

    @pytest.mark.parametrize("blob", [
        b"\0" * 65536,
        (KEY_TEXT + "k" * 60000 + "=1\n").encode(),
        ("x0=" + "1" * 60000 + "\ny0=2.3\nz0=3.7\n").encode(),
        (KEY_TEXT + "polys=" + "y" * 60000 + "\n").encode(),
        (KEY_TEXT + "polys=0x" + "f" * 60000 + "\n").encode(),
        (KEY_TEXT + "lft_a=0x" + "f" * 60000 + "\n").encode(),
        (KEY_TEXT + "burn_in=" + "9" * 4000 + "\n").encode(),
    ], ids=["nul-bytes", "long-name", "long-x0", "long-poly-term", "long-poly-mask",
            "long-hex-lft", "long-burn-in"])
    def test_hostile_key_file_gives_one_short_line(self, tmp_path, capsys, monkeypatch, blob):
        monkeypatch.chdir(tmp_path)
        Path("key.txt").write_bytes(blob)
        assert main(["keystream", "--key", "key.txt", "--length", "16"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile: key.txt:")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_degenerate_lft_key_file(self, tmp_path, small_image, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(KEY_TEXT + "lft_a=1\nlft_b=1\nlft_c=1\nlft_d=1\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:degenerate-lft:") and err.count("\n") == 1

    def test_huge_exponent_key_file(self, tmp_path, small_image, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text(KEY_TEXT + "polys=x^100000000\n")
        rc = main(["encrypt", "--key", str(bad), "--in", small_image,
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:keyfile:") and err.count("\n") == 1
        assert "bad.txt:4: cannot parse 'x^100000000' as a polynomial" in err

    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    def test_keystream_dump_drives_the_stages(self, tmp_path, keyfile, channels):
        # the perm, mask and selector columns of a `keystream --length W*H` dump,
        # run through permute -> xor_mask -> substitute on each plane, give
        # exactly the ciphertext `encrypt` writes
        width, height = 32, 24
        rng = np.random.default_rng(52)
        shape = (height, width) if channels == 1 else (height, width, 3)
        plain = tmp_path / "plain.pnm"
        write_image(ImageBuffer.from_array(rng.integers(0, 256, shape, dtype=np.uint8)), plain)
        ct, dump = tmp_path / "ct.pnm", tmp_path / "ks.tsv"
        assert main(["encrypt", "--key", keyfile, "--in", str(plain), "--out", str(ct)]) == 0
        assert main(["keystream", "--key", keyfile, "--length", str(width * height),
                     "--out", str(dump)]) == 0
        rows = [line.split("\t") for line in dump.read_text().splitlines()[2:]]
        perm, mask, selectors = (np.array([int(r[c]) for r in rows]) for c in (2, 3, 4))
        pixels = read_image(plain).to_array().reshape(width * height, channels)
        out = np.empty_like(pixels)
        sboxes = build_family(*DEFAULT_LFT)
        for ch in range(channels):
            staged = xor_mask(permute(pixels[:, ch], perm), mask.astype(np.uint8))
            out[:, ch] = substitute(staged, selectors, sboxes)
        assert out.tobytes() == read_image(ct).data

    @staticmethod
    def _encrypt_child_modules(tmp_path, keyfile, small_image, monkeypatch, *flags):
        """The modules a fresh `encrypt` process loaded, on a filled kernel cache."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        lorenz._load_kernel.cache_clear()
        try:
            require_kernel()  # fills the cache, so the child only loads from it
        finally:
            lorenz._load_kernel.cache_clear()
        code = (
            "import sys; from lftcipher.cli import main; "
            "assert main(sys.argv[1:]) == 0; print(' '.join(sys.modules))"
        )
        # numpy's directory too, since -S leaves site-packages off sys.path
        paths = (Path(lftcipher.__file__).parents[1], Path(np.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        proc = subprocess.run(
            [sys.executable, *flags, "-c", code, "encrypt", "--key", keyfile,
             "--in", small_image, "--out", str(tmp_path / "ct.pgm")],
            env=env, capture_output=True, text=True, check=True,
        )
        loaded = set(proc.stdout.split())
        assert "lftcipher.cipher" in loaded
        return loaded

    def test_encrypt_process_skips_analysis_modules(self, tmp_path, keyfile, small_image,
                                                    monkeypatch):
        loaded = self._encrypt_child_modules(tmp_path, keyfile, small_image, monkeypatch)
        assert not loaded & {"lftcipher.metrics", "lftcipher.polyfind", "lftcipher.sbox_analysis"}
        # naming the cached RK4 kernel must not load OpenSSL's libcrypto,
        # and a cache hit compiles nothing
        assert not loaded & {"hashlib", "_hashlib", "subprocess"}

    def test_cached_encrypt_skips_kernel_build_modules(self, tmp_path, keyfile, small_image,
                                                      monkeypatch):
        # -S, because site's .pth files may load these modules themselves;
        # tempfile loads random, and only a kernel build needs either
        loaded = self._encrypt_child_modules(tmp_path, keyfile, small_image, monkeypatch, "-S")
        assert not loaded & {"pathlib", "tempfile", "random"}

    @staticmethod
    def _counted_run(monkeypatch, argv):
        """Run the CLI; return the lorenz.keystream calls it made."""
        calls = []
        original = lorenz.keystream

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(lorenz, "keystream", counting)
            assert main(argv) == 0
        return calls

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_stage_derives_once_without_emit(self, tmp_path, keyfile, small_image, command,
                                             monkeypatch):
        plain = tmp_path / "plain.pgm"
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(plain)])
        src = small_image if command == "encrypt" else str(plain)
        main([command, "--key", keyfile, "--in", src, "--out", str(tmp_path / "ref.pgm")])
        calls = self._counted_run(
            monkeypatch, [command, "--key", keyfile, "--in", src, "--out", str(tmp_path / "out.pgm")]
        )
        assert len(calls) == 1
        assert (tmp_path / "out.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()

    def test_bad_image(self, tmp_path, keyfile, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        rc = main(["encrypt", "--key", keyfile, "--in", str(bad),
                   "--out", str(tmp_path / "ct.pgm")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:image-format:")


class TestMetricsCommand:
    def test_plain_metrics(self, small_image, capsys):
        assert main(["metrics", "--in", small_image]) == 0
        out = capsys.readouterr().out
        for label in ("Corr. (horizontal):", "Corr. (vertical):", "Entropy:",
                      "Homo.:", "Contrast:", "Energy:", "Chi-square"):
            assert label in out

    def test_against_second_image(self, tmp_path, keyfile, small_image, capsys):
        ct = tmp_path / "ct.pgm"
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(ct)])
        assert main(["metrics", "--in", small_image, "--against", str(ct)]) == 0
        out = capsys.readouterr().out
        assert "NPCR(%):" in out
        assert "UACI(%):" in out

    def test_constant_image_correlation_undefined(self, tmp_path, capsys):
        path = tmp_path / "flat.pgm"
        write_image(ImageBuffer(8, 8, 1, bytes([5]) * 64), path)
        assert main(["metrics", "--in", str(path)]) == 0
        assert "undefined" in capsys.readouterr().out

    def test_sampled_mode(self, small_image, capsys):
        assert main(["metrics", "--in", small_image, "--sample-pairs", "100",
                     "--seed", "1"]) == 0

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_sample_pairs_below_one(self, small_image, capsys, pairs):
        assert main(["metrics", "--in", small_image, "--sample-pairs", pairs]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:invalid-input:")
        assert err.count("\n") == 1
        assert "sample_pairs" in err

    @pytest.mark.parametrize("pairs", [str(2**26 + 1), "10000000000000"])
    def test_sample_pairs_above_the_keystream_bound(self, small_image, capsys, pairs):
        assert main(["metrics", "--in", small_image, "--sample-pairs", pairs]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:invalid-input:")
        assert err.count("\n") == 1
        assert "sample_pairs" in err

    @pytest.mark.parametrize("offset", ["1", "1,2,3", "a,b", "0,0", "9,9"])
    def test_bad_glcm_offset_prints_no_metrics(self, tmp_path, capsys, offset):
        path = tmp_path / "small.pgm"
        write_image(ImageBuffer(8, 8, 1, bytes(range(64))), path)
        assert main(["metrics", "--in", str(path), "--glcm-offset", offset]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:invalid-input:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("against", ["missing", "mismatched"])
    def test_bad_against_prints_no_metrics(self, tmp_path, small_image, capsys, against):
        path = tmp_path / "other.pgm"
        if against == "mismatched":
            write_image(ImageBuffer(8, 8, 1, bytes(64)), path)
        assert main(["metrics", "--in", small_image, "--against", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_one_pixel_wide_image_correlation_undefined(self, tmp_path, capsys):
        path = tmp_path / "column.pgm"
        write_image(ImageBuffer(1, 8, 1, bytes(range(8))), path)
        assert main(["metrics", "--in", str(path), "--glcm-offset", "1,0"]) == 0
        out = capsys.readouterr().out
        assert "Corr. (horizontal): undefined" in out
        assert "Corr. (vertical): 1.000000" in out


class TestAttackSim:
    def test_simulation(self, tmp_path, keyfile, small_image, capsys):
        rec = tmp_path / "rec.pgm"
        assert main(["attack-sim", "--key", keyfile, "--in", small_image,
                     "--corrupt", "100", "--out", str(rec)]) == 0
        out = capsys.readouterr().out
        assert "corrupted bytes: 100" in out
        assert "byte match fraction:" in out
        assert rec.exists()


class TestKeystreamCommand:
    def test_stdout_dump(self, keyfile, capsys):
        assert main(["keystream", "--key", keyfile, "--length", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "length=5"
        assert len(lines) == 7  # header + column names + 5 rows

    def test_file_dump_matches_stdout(self, tmp_path, keyfile, capsys):
        main(["keystream", "--key", keyfile, "--length", "8"])
        stdout = capsys.readouterr().out
        path = tmp_path / "ks.tsv"
        main(["keystream", "--key", keyfile, "--length", "8", "--out", str(path)])
        assert path.read_text() == stdout

    @pytest.mark.parametrize("length, sha", [
        (1, "a6972660e6e693b239288dd2119572c35ea567c6faca4c9b4161c6773bacdc4d"),
        (7, "cea3d40496e9765c36807078b99d13e99b07f72519d7e11860e8aeb23bb9ed0f"),
        (100_003, "0a5e0d55dc1d5c1f3a57199398d271eb9d81268acbcc2a653713baa943a11d4b"),
    ])
    def test_dump_text_pinned(self, tmp_path, keyfile, length, sha):
        # pinned from the one-line-at-a-time dump; 100,003 rows span two blocks
        path = tmp_path / "ks.tsv"
        assert main(["keystream", "--key", keyfile, "--length", str(length),
                     "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha

    def test_decaying_key_dumps_past_a_fraction_of_one(self, tmp_path, capsys):
        # this key's k reaches x - floor(x) = 1.0 at index 52,081 unless clamped
        key = tmp_path / "decay.txt"
        key.write_text(KEY_TEXT + "b=0.5\n")
        assert main(["keystream", "--key", str(key), "--length", "65536",
                     "--out", str(tmp_path / "ks.tsv")]) == 0
        assert capsys.readouterr().err == ""

    def test_length_beyond_bound(self, keyfile, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("integrate reached")

        monkeypatch.setattr(lorenz, "integrate", unreachable)
        assert main(["keystream", "--key", keyfile, "--length", str(2**40)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].startswith("error:invalid-input:")


def test_readme_cli_block_parses():
    # parse only: every command the README's CLI block shows names a
    # subcommand and flags that exist, so the docs cannot keep a removed flag
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("lftcipher ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
