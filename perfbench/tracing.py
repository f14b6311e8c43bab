"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces every public function of each layer module at
every name it is reachable through (its own module, the modules that import
it by name, the package namespace), so internal calls such as
``kolmogorov.drift_gradient_product`` or ``sde.psi`` are recorded too.
``uninstall`` puts the originals back.  Spans stay in memory as
``(parent, name, t0, t1, points)``; ``summary`` turns them into per-function
counts and times, each layer's self time, and the ratios the benchmark
reports.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("spectral", "paraproduct", "drifts", "kolmogorov", "zvonkin", "sde", "lab")
PACKAGE = "singular_drift"


def _points(x) -> int:
    return 1 if np.ndim(x) <= 1 else len(x)


# functions whose spans also record how many points they were given
_POINTS_ARG = {"spectral.evaluate": 1, "zvonkin.psi": 2}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patched = []          # (namespace, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        points_arg = _POINTS_ARG.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                pts = 0
                if points_arg is not None and len(args) > points_arg:
                    pts = _points(args[points_arg])
                spans[sid] = (parent, name, t0, t1, pts)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans[sid] = (parent, name, t0, time.perf_counter(), 0)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapped)

    def uninstall(self):
        for ns, key, fn in reversed(self._patched):
            setattr(ns, key, fn)
        self._patched = []

    # --- reduction -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls/seconds/points, per-layer self time and ratios."""
        spans = self.spans
        calls, secs, points = {}, {}, {}
        child = [0.0] * len(spans)
        for parent, name, t0, t1, pts in spans:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + (t1 - t0)
            points[name] = points.get(name, 0) + pts
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = {}
        for i, (_parent, name, t0, t1, _pts) in enumerate(spans):
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - child[i]

        def under(name: str, parent_name: str, field: str = "calls"):
            total = 0
            for parent, n, _t0, _t1, pts in spans:
                if n == name and parent >= 0 and spans[parent][1] == parent_name:
                    total += 1 if field == "calls" else pts
            return total

        return {
            "calls": calls,
            "seconds": secs,
            "points": points,
            "self_seconds": self_s,
            "stages_in_product": under("paraproduct.dealiased_multiply", "paraproduct.product"),
            "points_in_psi": under("spectral.evaluate", "zvonkin.psi", "points"),
            "solves_in_calibration": under("kolmogorov.solve_fwd", "kolmogorov.calibrate_lambda"),
        }

    def write(self, path, extra: dict | None = None):
        """Spans (with parent links) and their summary as gzipped JSON."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][2] if self.spans else 0.0
        doc = {
            "names": names,
            "columns": ["parent", "name", "start_us", "end_us", "points"],
            "spans": [[p, index[n], round((t0 - base) * 1e6, 1),
                       round((t1 - base) * 1e6, 1), pts]
                      for p, n, t0, t1, pts in self.spans],
            "summary": self.summary(),
        }
        if extra:
            doc.update(extra)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
