import numpy as np
import pytest

from conftest import make_natural_image
from lftcipher import lorenz
from lftcipher.cli import main
from lftcipher.golden import PRIMITIVE_POLY_MASKS, REFERENCE_SBOX
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

    def test_keystream_dump_deterministic(self, tmp_path, keyfile, small_image):
        d1 = tmp_path / "ks1.tsv"
        d2 = tmp_path / "ks2.tsv"
        ct = tmp_path / "ct.pgm"
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(ct),
              "--emit-keystream", str(d1)])
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(ct),
              "--emit-keystream", str(d2)])
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

    @pytest.mark.parametrize("command", ["encrypt", "decrypt"])
    def test_emit_keystream_derives_once(self, tmp_path, keyfile, small_image, command,
                                         monkeypatch):
        from lftcipher import lorenz

        plain = tmp_path / "plain.pgm"
        main(["encrypt", "--key", keyfile, "--in", small_image, "--out", str(plain)])
        src = small_image if command == "encrypt" else str(plain)
        main([command, "--key", keyfile, "--in", src, "--out", str(tmp_path / "ref.pgm")])
        calls = []
        original = lorenz.keystream

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lorenz, "keystream", counting)
        assert main([command, "--key", keyfile, "--in", src, "--out", str(tmp_path / "out.pgm"),
                     "--emit-keystream", str(tmp_path / "ks.txt")]) == 0
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
        from lftcipher import ImageBuffer

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

    def test_one_pixel_wide_image_correlation_undefined(self, tmp_path, capsys):
        from lftcipher import ImageBuffer

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
