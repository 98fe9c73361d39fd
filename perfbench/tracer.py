"""Span tracer for the public functions of each ``thermofit`` layer.

The tracer wraps a function at every module namespace that binds it, so a
call through ``thermofit.cli.parse_csv`` and one through
``thermofit.io.parse_csv`` are both recorded.  Each call records a span:
name, start, end, parent span and op id.  Spans stay in memory until
``dump`` writes them out.  A traced name bound in no ``thermofit`` module
raises ``TracerError``, so a refactor that moves or merges a function
cannot silently zero its layer.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
import types
from collections import defaultdict


class TracerError(RuntimeError):
    pass


def _path_bytes(arg):
    def extract(bound, result):
        return {"bytes": os.path.getsize(bound.arguments[arg])}

    return extract


def _fit_counts(bound, result):
    return {
        "iterations": result.iterations,
        "accepted_steps": result.accepted_steps,
        "capped": int(result.converged == "max_iter"),
    }


def _series_samples(bound, result):
    return {"samples": int(result.n)}


def _input_samples(bound, result):
    return {"samples": len(bound.arguments["inputs"])}


# (layer, public function name, extractor of per-call counts)
TRACED = (
    ("cli", "main", None),
    ("io", "parse_csv", _path_bytes("path")),
    ("io", "write_csv", _path_bytes("path")),
    ("io", "write_overlay", _path_bytes("path")),
    ("synth", "generate", _series_samples),
    ("model", "step_response", None),
    ("model", "simulate_continuous", _input_samples),
    ("model", "simulate_discrete", _input_samples),
    ("sgolay", "sg_smooth", None),
    ("sgolay", "sg_projection", None),
    ("pipeline", "fit_series", None),
    ("pipeline", "initial_guess", None),
    ("pipeline", "r_squared", None),
    ("solver", "lm_fit", _fit_counts),
)


# per-layer metrics that are exact counts: they must repeat for a seed
COUNT_METRICS = (
    "io.write_csv.calls", "io.write_csv.bytes", "io.parse_csv.calls",
    "io.parse_csv.bytes", "io.write_overlay.calls", "io.write_overlay.bytes",
    "synth.generate.samples", "sgolay.sg_smooth.calls", "sgolay.sg_projection.calls",
    "sgolay.smooth_per_fit", "pipeline.fit_series.calls", "solver.iterations",
    "solver.accepted_steps", "solver.accept_ratio", "solver.capped_frac",
    "model.samples",
)


class Tracer:
    """Collects spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "thermofit" or name.startswith("thermofit."))
        ]
        for layer, fname, extract in TRACED:
            originals = []
            for m in modules:
                fn = vars(m).get(fname)
                if isinstance(fn, types.FunctionType) and fn not in originals:
                    originals.append(fn)
            if not originals:
                self.uninstall()
                raise TracerError(
                    f"{layer}.{fname} is bound in no thermofit module; "
                    "update perfbench/tracer.py to the new layout"
                )
            for fn in originals:
                wrapper = self._wrap(f"{layer}.{fname}", fn, extract)
                for m in modules:
                    if vars(m).get(fname) is fn:
                        self._patches.append((m, fname, fn))
                        setattr(m, fname, wrapper)

    def uninstall(self) -> None:
        for m, fname, fn in reversed(self._patches):
            setattr(m, fname, fn)
        self._patches.clear()

    def _wrap(self, name, fn, extract):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                rec[5] = extract(signature.bind(*args, **kwargs), result)
            return result

        return traced

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def summarize(spans, lo: int = 0, hi: int | None = None) -> dict:
    """Per span name over ``spans[lo:hi]``: calls, inclusive seconds, self
    seconds and summed counts.

    Self time is a span's duration minus the time its child spans cover;
    children never overlap because calls nest on one thread.
    """
    child_time = defaultdict(float)
    hi = len(spans) if hi is None else hi
    for s in spans[lo:hi]:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out: dict = {}
    for i in range(lo, hi):
        s = spans[i]
        d = out.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        d["calls"] += 1
        d["s"] += s[2] - s[1]
        d["self_s"] += s[2] - s[1] - child_time[i]
        for k, v in (s[5] or {}).items():
            d["counts"][k] = d["counts"].get(k, 0) + v
    return out
