"""Span recorder for the traced benchmark run.

A span wraps a public gpk function at every name under which a loaded
``gpk`` module holds it, so the span sees calls from any caller, including
calls from inside the defining module (``refine_map`` calling
``triangulate_ground_points``).  Wrappers are installed only around traced
calls and removed afterwards, so untraced calls run the program unmodified.
Spans stay in memory as ``(name, start, end, parent, call_id)`` tuples and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time


class Tracer:
    def __init__(self, span_names):
        self.span_names = tuple(span_names)
        self.spans = []  # (name, start, end, parent index or -1, call id)
        self.missing = []
        self._stack = []
        self._call_id = -1
        self._patches = self._resolve()

    def _resolve(self):
        """(module, attribute, wrapper, original) for every binding of a span."""
        originals = {}
        for name in self.span_names:
            module, fn = name.split(".")
            target = getattr(importlib.import_module(f"gpk.{module}"), fn, None)
            if target is None:
                self.missing.append(name)
            else:
                originals[id(target)] = (name, target)
        patches = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "gpk" or mod_name.startswith("gpk.")):
                continue
            for attr, value in vars(mod).items():
                hit = originals.get(id(value))  # the originals are alive: ids are unique
                if hit is not None:
                    patches.append((mod, attr, self._wrap(*hit), value))
        return patches

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._call_id)

        return wrapper

    def start(self, call_id: int) -> None:
        self._call_id = call_id
        for mod, attr, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)

    def stop(self) -> None:
        for mod, attr, _, original in self._patches:
            setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, call_id in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "call": call_id}) + "\n")

    def summary(self, frames: int) -> dict:
        """Per span: calls per frame, self seconds per frame, median call ms.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations = {name: [] for name in self.span_names}
        self_s = dict.fromkeys(self.span_names, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child[i]
        frames = max(frames, 1)
        out = {}
        for name in self.span_names:
            d = durations[name]
            out[f"{name}.calls"] = len(d) / frames
            out[f"{name}.self_s"] = self_s[name] / frames
            out[f"{name}.p50_ms"] = statistics.median(d) * 1e3 if d else 0.0
        return out
