"""Write perfbench/golden.json: the sha256 digests that run.py pins.

    python3 perfbench/pin.py

For each workload and each seed in SEEDS it runs the first PIN_OPS ops the
way an untraced run does (the CLI workload through `python -m
lftcipher.cli`), and records the digest of every op output that has one
(ciphertexts; for analysis-suite the family tables, integer criteria,
report text and census) plus the workload's extra digests (keystreams of the
first keys; the analysis ciphertext pair).  It refuses to pin an op whose
own checks fail.

Regenerate only in a change that alters ciphertexts or keystreams on
purpose and says so; otherwise a mismatch is a regression.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

SEEDS = range(10)
PIN_OPS = 4


def pins_for(wl_cls, seed: int) -> dict:
    ctx = workloads.Context(run.ROOT, run.BENCH / ".work" / f"pin-{wl_cls.name}-{seed}", seed, 0.0)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        wl = wl_cls(ctx)
        wl.setup()
        ops = {}
        for u in range(-(-PIN_OPS // wl.unit_ops)):
            for j, op in enumerate(wl.unit(u, in_process=False)):
                if not op.ok:
                    raise SystemExit(f"{wl.name} seed {seed}: op {u * wl.unit_ops + j} failed its checks")
                if op.digest is not None:
                    ops[str(u * wl.unit_ops + j)] = op.digest
        return {"ops": ops, "extras": wl.pinned_extras()}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)


def main() -> int:
    golden = {}
    for name, wl_cls in workloads.WORKLOADS.items():
        golden[name] = {str(seed): pins_for(wl_cls, seed) for seed in SEEDS}
        print(f"pinned {name}", file=sys.stderr)
    path = run.BENCH / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
