"""lftcipher benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/lftcipher`.  The inputs are
made from --seed.  Every output is checked (round trips, key sensitivity,
S-box criteria, census counts, and for the seeds in golden.json the pinned
sha256 digests); a failed check counts the op as failed.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1).

--trace 0: set-up runs several times (median reported), one warm-up unit
for the in-process workloads, then a closed loop of units, one client, for
--seconds.

--trace 1: one warm-up unit, an untraced loop for half of --seconds and a
traced loop for the other half, both in process (the CLI workload calls
`lftcipher.cli.main`), so the difference of their medians is the tracing
overhead.  Layer figures are per traced op.  The CLI workload also times a
fresh-interpreter import and one `keystream` dump.

Each run leaves a result record, with its environment, under
perfbench/.work/results, and the traced run its spans under
perfbench/.work/spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads
from workloads import Context, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3
IMPORT_REPS = 5


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lftcipher").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_loop(wl, first: int, seconds: float, in_process: bool, tracer=None):
    """Closed loop from unit `first`; starts no unit that the last unit's
    duration says would end after `seconds`.  Returns ([(unit, ops)], next)."""
    done, u, start = [], first, time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = u
        try:
            ops = wl.unit(u, in_process)
        except Exception:  # a failing op is counted, and the loop goes on
            traceback.print_exc()
            ops = [Op((time.perf_counter() - t0) / wl.unit_ops, False, None)] * wl.unit_ops
        finally:
            if tracer is not None:
                tracer.op = None
        done.append((u, ops))
        u += 1
        now = time.perf_counter()
        if now - start + (now - t0) >= seconds:
            return done, u


def count_failures(wl, units, pins: dict | None) -> tuple[int, int]:
    """(attempted, failed) over every op run, checking pinned digests."""
    attempted = failed = 0
    pinned = (pins or {}).get("ops", {})
    bad_extra = False
    if pins:
        got = wl.pinned_extras()
        bad_extra = any(got.get(k) != v for k, v in pins["extras"].items())
    for u, ops in units:
        for j, op in enumerate(ops):
            index = u * wl.unit_ops + j
            ok = op.ok and pinned.get(str(index), op.digest) == op.digest
            attempted += 1
            failed += not ok or (bad_extra and index == 0)
    return attempted, failed


def declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)[kind]


def untraced(wl_cls, ctx: Context):
    import_s = 0.0
    if wl_cls.imports_program:
        t0 = time.perf_counter()
        workloads.import_lftcipher(ctx.root)
        import_s = time.perf_counter() - t0
    setup = []
    for _ in range(SETUP_REPS):
        wl = wl_cls(ctx)
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)
    warm, first = [], 0
    if wl_cls.imports_program:  # a CLI user pays the cold start on every op
        warm, first = run_loop(wl, 0, 0.0, in_process=False)
    timed, _ = run_loop(wl, first, ctx.seconds, in_process=False)
    times = [op.seconds for _, ops in timed for op in ops]
    busy = sum(times)
    who = resource.RUSAGE_SELF if wl_cls.imports_program else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": import_s + statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "op_tail_s": float(np.percentile(times, wl.tail_pct)),
        "ops_per_s": len(times) / busy,
        "throughput_mb_s": wl.bytes_per_op * len(times) / busy / 1e6,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    info = {"samples": len(times), "tail_percentile": wl.tail_pct,
            "setup_runs_s": setup, "import_s": import_s}
    return values, warm + timed, info, wl


def import_cost(wl) -> float:
    """Median fresh-interpreter `import lftcipher.cli` minus a bare start."""
    runs = {"import lftcipher.cli": [], "pass": []}
    for _ in range(IMPORT_REPS):
        for code, acc in runs.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=wl.env, check=True)
            acc.append(time.perf_counter() - t0)
    return statistics.median(runs["import lftcipher.cli"]) - statistics.median(runs["pass"])


def keystream_dump(wl) -> tuple[float, int]:
    """Wall time and size of one `keystream` dump of a 1024x1024 stream."""
    out = wl.ctx.work / "keystream.txt"
    t0 = time.perf_counter()
    subprocess.run(wl.command("keystream", "--key", str(wl.key_paths[0]),
                              "--length", str(wl.size * wl.size), "--out", str(out)),
                   cwd=ROOT, env=wl.env, stdout=subprocess.DEVNULL, check=True)
    seconds = time.perf_counter() - t0
    size = out.stat().st_size
    out.unlink()
    return seconds, size


def traced(wl_cls, ctx: Context):
    wl = wl_cls(ctx)
    wl.setup()
    warm, first = run_loop(wl, 0, 0.0, in_process=True)
    base, first = run_loop(wl, first, ctx.seconds / 2, in_process=True)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced_units, _ = run_loop(wl, first, ctx.seconds / 2, in_process=True, tracer=tracer)
    finally:
        restore()
    base_t = [op.seconds for _, ops in base for op in ops]
    traced_t = [op.seconds for _, ops in traced_units for op in ops]
    layer = tracer.summary(len(traced_t))
    steps = layer.get("lorenz.rk4_steps", 0)
    layer["lorenz.ns_per_step"] = layer.get("lorenz.integrate.self_s", 0.0) / steps * 1e9 if steps else 0.0
    layer["trace.overhead_s"] = statistics.median(traced_t) - statistics.median(base_t)
    if isinstance(wl, workloads.CliRgb):
        layer["cli.import_s"] = import_cost(wl)
        layer["cli.keystream_dump_s"], layer["cli.keystream_dump_bytes"] = keystream_dump(wl)
    out = BENCH / ".work" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out / f"{wl.name}-seed{ctx.seed}.jsonl")
    info = {"samples": len(traced_t), "untraced_samples": len(base_t), "spans": len(tracer.spans)}
    return layer, warm + base + traced_units, info, wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lftcipher" / "cli.py").is_file():
        print(f"error: no lftcipher sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    ctx = Context(ROOT, BENCH / ".work" / f"run-{os.getpid()}", args.seed, args.seconds)
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        measure = traced if args.trace else untraced
        values, units, info, wl = measure(wl_cls, ctx)
        with open(BENCH / "golden.json", encoding="utf-8") as f:
            pins = json.load(f).get(wl.name, {}).get(str(args.seed))
        attempted, failed = count_failures(wl, units, pins)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared(kind)}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "cli_invocation": ("PYTHONPATH=src python -m lftcipher.cli"
                           if isinstance(wl, workloads.CliRgb) else None),
        "pinned_digests_checked": pins is not None,
        "error_rate": failed / attempted, **info,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    results = BENCH / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key in ("workload", "seed", "environment", "cli_invocation", "pinned_digests_checked",
                *info):
        print(f"{key}: {record[key]}")
    for metric, m in metrics.items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {record['error_rate']:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
