"""Run the benchmark over several seeds and report each end-to-end metric's
median and quartile spread, the check the benchmark's bounds are set for.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                                [--out FILE]

Runs one `run.py` process at a time (untraced), then prints, per workload
and metric, the median of the runs and (Q3 - Q1) / median as
`statistics.quantiles(values, n=4)` gives the quartiles, next to a third of
the metric's bound.  With --out it also writes every run's result and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": run.environment(), "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{name} seed {seed}: {wall:.1f} s wall, correct={result['correct']}",
                  file=sys.stderr, flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[metric] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": bound}
            print(f"{name:20s} {metric:16s} median {median:12.6g}  spread "
                  f"{(q3 - q1) / median:7.2%}  (a third of bound {bound / 3:6.2%})")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
