"""Span tracing of tensorbss calls, installed from the benchmark's side.

`Tracer.installed()` replaces every public function of the traced modules
with a timing wrapper, in the defining module and wherever another
tensorbss module imported it by name, and restores the originals on exit.
A layer is a module; the benchmark's own code is the `perfbench` layer.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("simgen", "tensor", "moments", "linalg", "bss", "metrics", "cli")
OWN_LAYER = "perfbench"


class Tracer:
    """Records spans (name, start, end, parent, operation) and call counters."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, op, detail]
        self.counts = Counter()
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, layer=OWN_LAYER, detail=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, perf_counter(), None, parent, self.op, detail])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][3] = perf_counter()

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "tensorbss" or name.startswith("tensorbss.")]
        patched = []
        try:
            for layer in LAYERS:
                mod = sys.modules[f"tensorbss.{layer}"]
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    wrapper = self._wrap(layer, name, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, fn))
            yield self
        finally:
            for m, attr, fn in reversed(patched):
                setattr(m, attr, fn)

    def _wrap(self, layer, name, fn):
        qualname = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            detail = None
            if qualname == "bss.unmix":
                detail = args[1] if len(args) > 1 else kwargs["method"]
            with self.span(qualname, layer, detail):
                out = fn(*args, **kwargs)
            self._count(qualname, args, out)
            return out

        return wrapper

    def _count(self, qualname, args, out):
        c = self.counts
        c[qualname + "_calls"] += 1
        if qualname == "linalg.joint_diagonalize":
            k = len(args[0])
            p = len(args[0][0])
            c["linalg.jd_matrices"] += k
            c["linalg.jd_sweeps"] += out.sweeps_used
            c["linalg.jd_capped"] += not out.converged
            c["linalg.jd_work"] += k * p * (p - 1) // 2 * out.sweeps_used
        elif qualname in ("tensor.read_series", "tensor.write_series"):
            c["tensor.io_mb"] += os.path.getsize(args[0]) / 1e6

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, op, detail) in enumerate(self.spans):
                row = {"id": i, "name": name, "layer": layer, "start": start, "end": end,
                       "parent": parent, "op": op}
                if detail is not None:
                    row["detail"] = detail
                fh.write(json.dumps(row) + "\n")

    def totals(self):
        """Inclusive time per span name (and per bss.unmix method), self time per layer."""
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        for name, layer, start, end, parent, op, detail in self.spans:
            dur = end - start
            inclusive[name] += dur
            if detail is not None:
                inclusive[f"{name}[{detail}]"] += dur
            self_time[layer] += dur
            if parent is not None:
                self_time[self.spans[parent][1]] -= dur
        return inclusive, self_time
