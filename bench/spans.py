"""Span tracing around the package's public layer functions.

The tracer replaces functions of ``meshloc`` modules with wrappers that
record a span (name, parent span, start, end) and optional work counts.
Spans are kept in memory and reduced when the run ends.  The run is
single-threaded, so a stack of open spans gives each span its parent.

A layer's self time is its span's duration minus the time its child spans
cover.  Nothing in the package is edited: every module attribute bound to a
wrapped function is swapped for the wrapper and restored afterwards.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from meshloc import geometry, metrics, mupf, ukf, unscented


def _queries(mesh, Q):
    return {"queries": len(Q)}


def _pairs(model, ys, poses):
    return {"pairs": len(ys) * len(poses)}


# (owner, attribute, span name, work counter)
TARGETS = [
    (geometry.TriMesh, "__init__", "geometry.mesh_build", None),
    (geometry.TriMesh, "closest_points", "geometry.closest_points", _queries),
    (unscented, "sigma_points_batch", "unscented.sigma_points_batch", None),
    (ukf, "ukf_step_batch", "ukf.ukf_step_batch", None),
    (ukf, "log_likelihood_batch", "ukf.log_likelihood_batch", _pairs),
    (mupf, "init", "mupf.init", None),
    (mupf, "step", "mupf.step", None),
    (mupf, "extract_pose", "mupf.extract_pose", None),
    (metrics, "performance_index", "metrics.performance_index", None),
]

SPAN_NAMES = [name for _, _, name, _ in TARGETS]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end, counts]
        self._open = []          # indices of the spans still running

    def wrap(self, name, fn, counter):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, open_[-1] if open_ else -1, 0.0, 0.0,
                      counter(*args, **kwargs) if counter else None]
            open_.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                open_.pop()

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding of each target for its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "meshloc" or n.startswith("meshloc."))]
        swapped = []
        try:
            for owner, attr, name, counter in TARGETS:
                original = owner.__dict__[attr]   # KeyError if renamed
                wrapper = self.wrap(name, original, counter)
                holders = [owner] + [m for m in modules
                                     if m is not owner and m.__dict__.get(attr) is original]
                for holder in holders:
                    setattr(holder, attr, wrapper)
                    swapped.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(swapped):
                setattr(holder, attr, original)

    def reduce(self) -> dict:
        """Per span name and parent span name: calls, total and self
        seconds, and counts.  A span with no parent is under ``None``."""
        child_time = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(_empty))
        for i, (name, parent, start, end, counts) in enumerate(self.spans):
            rec = out[name][self.spans[parent][0] if parent >= 0 else None]
            rec["calls"] += 1
            rec["total_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
            for key, n in (counts or {}).items():
                rec["counts"][key] += n
        return out


def _empty() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}


def combine(by_parent: dict, skip=()) -> dict:
    """Sum one span name's records over its parents, leaving out ``skip``."""
    total = _empty()
    for parent, rec in by_parent.items():
        if parent in skip:
            continue
        for key in ("calls", "total_s", "self_s"):
            total[key] += rec[key]
        for key, n in rec["counts"].items():
            total["counts"][key] += n
    return total
