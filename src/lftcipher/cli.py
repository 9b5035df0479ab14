"""Command-line interface.

Subcommands: enumerate-polys, gen-sbox, analyze-sbox, encrypt, decrypt,
metrics, attack-sim, keystream.  Every expected failure exits nonzero and
prints a single machine-parsable line `error:<code>: <text>` to stderr.
The cipher itself takes no RNG; --seed only affects sampled metric modes.
"""

from __future__ import annotations

import argparse
import sys

from . import golden, lorenz, metrics, netpbm, polyfind, sbox, sbox_analysis
from .cipher import ImageBuffer, decrypt, encrypt
from .gf2n import GeneratorSpanError
from .keyfile import KeyFileError, parse_key_file
from .lorenz import IntegrationError
from .netpbm import ImageFormatError
from .sbox import DegenerateLftError, SBoxFormatError, SBoxValidationError

_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (KeyFileError, "keyfile"),
    (ImageFormatError, "image-format"),
    (SBoxFormatError, "sbox-format"),
    (SBoxValidationError, "sbox-invalid"),
    (DegenerateLftError, "degenerate-lft"),
    (GeneratorSpanError, "generator-span"),
    (IntegrationError, "integration"),
    (FileNotFoundError, "file-not-found"),
    (OSError, "io"),
    (ZeroDivisionError, "invalid-input"),
    (ValueError, "invalid-input"),
)


def _error_code(exc: BaseException) -> str:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return "internal"


def _parse_lft(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--lft wants a,b,c,d (four bytes), got {text!r}")
    vals = tuple(int(p, 0) for p in parts)
    for v in vals:
        if not 0 <= v <= 255:
            raise ValueError(f"LFT coefficient {v} out of byte range")
    return vals  # type: ignore[return-value]


def _parse_raw_shape(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) == 2:
        w, h = (int(p) for p in parts)
        return w, h, 1
    if len(parts) == 3:
        w, h, c = (int(p) for p in parts)
        return w, h, c
    raise ValueError(f"--raw wants WxH or WxHxC, got {text!r}")


def _read_input_image(path: str, raw: str | None) -> ImageBuffer:
    if raw is None:
        return netpbm.read_image(path)
    w, h, c = _parse_raw_shape(raw)
    return netpbm.read_raw(path, w, h, c)


def _dump_keystream(ks: lorenz.Keystream, out) -> None:
    out.write(f"length={len(ks)}\n")
    out.write("i\tk\tperm\tmask\tselector\n")
    for i in range(len(ks)):
        out.write(
            f"{i}\t{float(ks.k[i])!r}\t{int(ks.perm[i])}\t"
            f"{int(ks.mask[i])}\t{int(ks.selectors[i])}\n"
        )


def cmd_enumerate_polys(args) -> int:
    rows = polyfind.enumerate_classified(args.degree)
    for r in rows:
        if args.primitive_only and not r.primitive:
            continue
        order = "-" if r.order is None else str(r.order)
        print(
            f"{r.poly.to_hex()}\t{r.poly.monomials()}\t"
            f"{'yes' if r.irreducible else 'no'}\t"
            f"{'yes' if r.primitive else 'no'}\t{order}"
        )
    return 0


def cmd_gen_sbox(args) -> int:
    params = sbox.LftParams(*_parse_lft(args.lft), poly_index=args.poly_index)
    box = sbox.build_sbox(params)
    if args.format == "binary":
        with open(args.out, "wb") as f:
            f.write(box.to_bytes())
    else:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(box.to_text())
    return 0


def _load_sbox_file(path: str) -> sbox.LftSBox:
    with open(path, "rb") as f:
        blob = f.read()
    try:
        text = blob.decode("ascii")
    except UnicodeDecodeError:
        text = None
    if text is not None and any(ch.isspace() for ch in text.strip()):
        return sbox.load_external_sbox(bytes(sbox.parse_table_text(text)))
    if len(blob) == 256:
        return sbox.load_external_sbox(blob)
    raise SBoxFormatError(f"{path}: neither a 16x16 text table nor 256 raw bytes")


def cmd_analyze_sbox(args) -> int:
    box = _load_sbox_file(args.infile)
    report = sbox_analysis.analyze(box)
    print(report.as_text())
    print()
    for name, value in report.as_key_values():
        print(f"{name}={value}")
    return 0


def cmd_encrypt(args) -> int:
    key = parse_key_file(args.key).to_cipher_key()
    img = _read_input_image(args.infile, args.raw)
    ks = key.keystream(img.pixel_count)
    if args.emit_keystream:
        with open(args.emit_keystream, "w", encoding="utf-8") as f:
            _dump_keystream(ks, f)
    netpbm.write_image(encrypt(img, key, ks), args.out)
    return 0


def cmd_decrypt(args) -> int:
    key = parse_key_file(args.key).to_cipher_key()
    img = _read_input_image(args.infile, args.raw)
    ks = key.keystream(img.pixel_count)
    if args.emit_keystream:
        with open(args.emit_keystream, "w", encoding="utf-8") as f:
            _dump_keystream(ks, f)
    netpbm.write_image(decrypt(img, key, ks), args.out)
    return 0


def cmd_metrics(args) -> int:
    img = _read_input_image(args.infile, args.raw)
    sampled = {}
    if args.sample_pairs is not None:
        sampled = {"sample_pairs": args.sample_pairs, "seed": args.seed}
    for direction in ("horizontal", "vertical"):
        try:
            r = metrics.adjacency_correlation(img, direction, **sampled)
        except metrics.TooFewPairsError:
            r = None
        print(f"Corr. ({direction}): {'undefined' if r is None else f'{r:.6f}'}")
    print(f"Entropy: {metrics.entropy(img):.4f}")
    offset = tuple(int(p) for p in args.glcm_offset.split(","))
    if len(offset) != 2:
        raise ValueError(f"--glcm-offset wants dr,dc, got {args.glcm_offset!r}")
    feats = metrics.glcm_features(img, offset)  # type: ignore[arg-type]
    print(f"Homo.: {feats.homogeneity:.6g}")
    print(f"Contrast: {feats.contrast:.6g}")
    print(f"Energy: {feats.energy:.6g}")
    print(f"Chi-square (255 dof): {metrics.chi_square_uniform(img):.2f}")
    if args.against:
        other = _read_input_image(args.against, args.raw)
        rep = metrics.npcr_uaci(img, other)
        print(f"NPCR(%): {rep.npcr:.4f}")
        print(f"UACI(%): {rep.uaci:.4f}")
    return 0


def cmd_attack_sim(args) -> int:
    key = parse_key_file(args.key).to_cipher_key()
    img = _read_input_image(args.infile, args.raw)
    report = metrics.noise_experiment(img, key, args.corrupt)
    netpbm.write_image(report.recovered, args.out)
    print(f"corrupted bytes: {report.corrupted}")
    print(f"byte match fraction: {report.match_fraction:.4f}")
    print(f"mean abs error: {report.mean_abs_error:.4f}")
    return 0


def cmd_keystream(args) -> int:
    kf = parse_key_file(args.key)
    ks = lorenz.keystream(kf.lorenz, args.length)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            _dump_keystream(ks, f)
    else:
        _dump_keystream(ks, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lftcipher",
        description="Image cipher with fractional-transform S-boxes and a Lorenz keystream",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate-polys", help="classify degree-N polynomials over GF(2)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--primitive-only", action="store_true")
    p.set_defaults(func=cmd_enumerate_polys)

    p = sub.add_parser("gen-sbox", help="generate one substitution box")
    p.add_argument("--poly-index", type=int, default=1, metavar="I",
                   help=f"1..{len(golden.PRIMITIVE_POLY_MASKS)} into the primitive list")
    p.add_argument("--lft", default="32,22,11,8", metavar="a,b,c,d")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.set_defaults(func=cmd_gen_sbox)

    p = sub.add_parser("analyze-sbox", help="strength criteria for an S-box file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_analyze_sbox)

    for name, fn in (("encrypt", cmd_encrypt), ("decrypt", cmd_decrypt)):
        p = sub.add_parser(name, help=f"{name} an image")
        p.add_argument("--key", required=True)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--raw", metavar="WxH[xC]", help="input is headerless bytes")
        p.add_argument("--emit-keystream", metavar="FILE",
                       help="dump mask/perm/selectors (reveals the secret stream)")
        p.set_defaults(func=fn)

    p = sub.add_parser("metrics", help="statistical analyses of an image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--against", help="second image for NPCR/UACI")
    p.add_argument("--raw", metavar="WxH[xC]")
    p.add_argument("--glcm-offset", default="0,1", metavar="dr,dc")
    p.add_argument("--sample-pairs", type=int, default=None,
                   help="sampled correlation instead of the full pair population")
    p.add_argument("--seed", type=int, default=None, help="seed for sampled modes")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("attack-sim", help="corrupt ciphertext bytes and measure recovery")
    p.add_argument("--key", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--corrupt", type=int, default=10000)
    p.add_argument("--out", required=True, help="recovered image path")
    p.add_argument("--raw", metavar="WxH[xC]")
    p.set_defaults(func=cmd_attack_sim)

    p = sub.add_parser("keystream", help="debug: dump the derived keystream")
    p.add_argument("--key", required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_keystream)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # expected failures become one-line error reports
        code = _error_code(exc)
        if code == "internal":
            raise
        print(f"error:{code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
