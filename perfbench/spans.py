"""Span tracing for the benchmark's traced runs, installed from outside the
program.

`install` replaces every public module-level function of every `lftcipher`
module with a wrapper that records a span (name, start, end, parent, op id).
Names a module imported directly from another module (for example
`cli.encrypt`, which is `cipher.encrypt`) are replaced as well, so a call is
traced whichever name it goes through; the span always carries the name of
the defining module.  Spans stay in memory and are summarised, and written
out, after the traced phase ends.

Per-element helpers listed in `UNTRACED` are left alone: they run hundreds
of thousands of times per op, a span each would swamp the op, and their time
belongs to the caller's self time anyway (RK4 steps are counted from the
arguments of `lorenz.integrate` instead).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

UNTRACED = frozenset({
    "gf2n.poly_degree",
    "gf2n.poly_mul",
    "gf2n.poly_divmod",
    "gf2n.poly_mod",
    "gf2n.poly_gcd",
    "gf2n.poly_mulmod",
    "lorenz.lorenz_derivatives",
    "lorenz.rk4_step",
})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# span name -> (counter name, amount derived from (args, kwargs, result))
COUNTERS = {
    "lorenz.integrate": (
        "lorenz.rk4_steps",
        lambda a, kw, r: _arg(a, kw, 0, "params").burn_in + len(r),
    ),
    "polyfind.enumerate_classified": ("polyfind.candidates", lambda a, kw, r: len(r)),
    "netpbm.read_image": ("netpbm.bytes", lambda a, kw, r: len(r.data)),
    "netpbm.write_image": ("netpbm.bytes", lambda a, kw, r: len(_arg(a, kw, 0, "img").data)),
    "cipher.encrypt": ("cipher.bytes", lambda a, kw, r: len(_arg(a, kw, 0, "img").data)),
    "cipher.decrypt": ("cipher.bytes", lambda a, kw, r: len(_arg(a, kw, 0, "img").data)),
}


class Tracer:
    """Collects spans and counters; records only while `op` is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def summary(self, ops: int) -> dict[str, float]:
        """Per-op figures: `<span>.self_s`, `<span>.calls` and every counter.

        A span's self time is its duration minus the time its child spans
        cover; each figure is the total over the traced ops divided by `ops`.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        out = {f"{n}.self_s": v / ops for n, v in self_s.items()}
        out.update({f"{n}.calls": v / ops for n, v in calls.items()})
        out.update({n: v / ops for n, v in self.counts.items()})
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


def _modules():
    package = importlib.import_module("lftcipher")
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"lftcipher.{info.name}"))
    return mods


def install(tracer: Tracer):
    """Wrap the public functions of every lftcipher module; return an undo."""
    mods = _modules()
    wrappers = {}  # id(original) -> (original, wrapper)
    for mod in mods[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            span = f"{short}.{name}"
            if span not in UNTRACED:
                wrappers[id(obj)] = (obj, tracer.wrap(span, obj))
    undo = []
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                undo.append((mod, name, obj))

    def restore() -> None:
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    return restore
