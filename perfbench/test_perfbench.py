"""Tests of the benchmark itself, not of lftcipher.

    python3 -m pytest perfbench -q

The count test runs each workload's traced path twice on one seed (about a
minute in all, most of it the CLI workload's import timing and keystream
dump).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads((run.BENCH / "predictions.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Counts that must repeat exactly across traced runs of one seed, with their
# per-op values at the commit that defined the benchmark.
COUNTS = {
    "cli-rgb-1024": {"lorenz.rk4_steps": 349626, "lorenz.keystream.calls": 1,
                     "sbox.build_family.calls": 1, "sbox_analysis.analyze.calls": 0,
                     "polyfind.candidates": 0},
    "key-sweep-gray-256": {"lorenz.rk4_steps": 43892, "lorenz.keystream.calls": 2,
                           "sbox.build_family.calls": 1, "sbox_analysis.analyze.calls": 0,
                           "polyfind.candidates": 0},
    "analysis-suite": {"lorenz.rk4_steps": 0, "lorenz.keystream.calls": 0,
                       "sbox.build_family.calls": 1, "sbox_analysis.analyze.calls": 16,
                       "polyfind.candidates": 512},
}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1] == "perfbench/run.py"
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))


def test_every_layer_metric_has_one_prediction():
    layers = [name for row in PREDICTIONS for name in row["layers"]]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for row in PREDICTIONS:
        assert set(row["moves"]) <= e2e
        assert set(row["on"]) <= set(workloads.WORKLOADS)


def test_tracer_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: time.sleep(0.02))

    def outer_fn():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.wrap("m.outer", outer_fn)
    outer()  # no op set: not recorded
    assert tracer.spans == []
    tracer.op = 0
    outer()
    layer = tracer.summary(1)
    assert layer["m.outer.calls"] == 1 and layer["m.inner.calls"] == 2
    assert 0.01 <= layer["m.outer.self_s"] < 0.02
    assert layer["m.inner.self_s"] >= 0.04


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_across_traced_runs(name, tmp_path):
    got = []
    for attempt in range(2):
        ctx = workloads.Context(run.ROOT, tmp_path / str(attempt), 3, 0.0)
        ctx.work.mkdir()
        layer, units, _, _ = run.traced(workloads.WORKLOADS[name], ctx)
        assert all(op.ok for _, ops in units for op in ops)
        got.append({k: layer.get(k, 0) for k in COUNTS[name]})
    assert got[0] == got[1] == COUNTS[name]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "key-sweep-gray-256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
