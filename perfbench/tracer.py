"""Spans and counts at the w2gauss layer boundaries, for the traced run.

The package itself is not instrumented.  :func:`install` replaces, in every
loaded ``w2gauss`` module namespace, each layer's public function with a
wrapper that records a span (name, thread, parent span, duration, time of
child spans) or a count.  Calls into foreign code are wrapped where one
module makes them: ``ndtri`` as seen from ``streams``, ``np.sort`` as seen
from ``experiments`` and ``np.linalg.cholesky`` as seen from ``limitlaw``.
Spans are kept in memory and summarised once the run ends.
"""

from __future__ import annotations

import collections
import sys
import threading
import time

import numpy as np

# (span name, module, attribute); the span covers every call of the function
SPANS = (
    ("streams.substream", "streams", "substream"),
    ("streams.uniforms", "streams", "uniforms_open"),
    ("streams.standard_normals", "streams", "standard_normals"),
    ("streams.pairs", "streams", "correlated_normal_pairs"),
    ("wasserstein.sorted_sample", "wasserstein", "SortedSample"),
    ("wasserstein.kernel", "wasserstein", "w2sq_vs_gaussian"),
    ("wasserstein.two_sample", "wasserstein", "w2sq_two_sample"),
    ("wasserstein.tables", "wasserstein", "_boundary_tables"),
    ("limitlaw.grid", "limitlaw", "build_grid"),
    ("limitlaw.covariance", "limitlaw", "bridge_covariance"),
    ("limitlaw.factor", "limitlaw", "_cholesky_factor"),
    ("limitlaw.ks", "limitlaw", "ks_two_sample"),
    ("experiments.run", "experiments", "run_experiment"),
    ("experiments.write", "experiments", "write_outputs"),
)
RUNNER = "experiments.run"


class Tracer:
    """In-memory span and count recorder, safe to call from worker threads."""

    def __init__(self):
        self.spans = []  # (name, thread id, parent name, duration, child time)
        self.counts = collections.Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name, fn, label=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        def traced(*args, **kwargs):
            full = name if label is None else \
                f"{name}[{label(*args, **kwargs)}]"
            stack = self._local.__dict__.setdefault("stack", [])
            frame = [full, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.spans.append((full, threading.get_ident(), parent, dur,
                                   frame[1]))
        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn, weight):
        """``fn`` wrapped so each call adds ``weight(*args)`` to ``name``."""
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += weight(*args, **kwargs)
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def summary(self, main_thread: int) -> dict:
        """Per-span-name totals plus the runner-level aggregates.

        ``busy_s`` is the time of the runner's direct child spans on the
        main thread plus every outermost span on worker threads;
        ``covered_s`` is the main-thread time under an outermost layer span
        (any span but the runner's own).
        """
        names: dict = {}
        busy = covered = 0.0
        for name, tid, parent, dur, child in self.spans:
            agg = names.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0, "first_s": dur})
            agg["calls"] += 1
            agg["incl_s"] += dur
            agg["self_s"] += dur - child
            outermost = parent is None or parent == RUNNER
            if (tid != main_thread and parent is None) or \
                    (tid == main_thread and parent == RUNNER):
                busy += dur
            if tid == main_thread and outermost and name != RUNNER:
                covered += dur
        return {"spans": names, "counts": dict(self.counts),
                "busy_s": busy, "covered_s": covered}


class _Proxy:
    """Attribute view of ``target`` with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _rebind(obj, replacement, modules):
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is obj:
                setattr(mod, attr, replacement)


def _bvn_size(h, k, r):
    return int(np.broadcast(np.asarray(h), np.asarray(k)).size)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the already imported ``w2gauss``."""
    pkg = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
           if name.startswith("w2gauss.")}
    modules = [sys.modules["w2gauss"], *pkg.values()]
    for name, mod, attr in SPANS:
        fn = getattr(pkg[mod], attr)
        _rebind(fn, tracer.span(name, fn), modules)
    sample = pkg["limitlaw"].sample_limit_law
    _rebind(sample, tracer.span(
        "limitlaw.sample", sample,
        label=lambda *a, **k: k.get("mechanism", a[3] if len(a) > 3 else "")),
        modules)

    streams, experiments = pkg["streams"], pkg["experiments"]
    limitlaw = pkg["limitlaw"]
    streams.ndtri = tracer.span("streams.ndtri", streams.ndtri)
    experiments.np = _Proxy(np, sort=tracer.span("experiments.sort", np.sort))
    cholesky = tracer.span("limitlaw.cholesky", np.linalg.cholesky)
    limitlaw.np = _Proxy(np, linalg=_Proxy(np.linalg, cholesky=cholesky))
    limitlaw._bvnu_vec = tracer.count("special.bvn_evals", limitlaw._bvnu_vec,
                                      _bvn_size)
    limitlaw._bvnu_scalar = tracer.count("special.bvn_evals",
                                         limitlaw._bvnu_scalar,
                                         lambda *a: 1)


class ImportTimer:
    """Meta-path hook that times the execution of one module's import."""

    def __init__(self, module: str):
        self.module = module
        self.seconds = 0.0

    def find_spec(self, fullname, path, target=None):
        if fullname != self.module:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                spec.loader = _TimedLoader(spec.loader, self)
                return spec
        return None


class _TimedLoader:
    def __init__(self, real, timer: ImportTimer):
        self._real = real
        self._timer = timer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def create_module(self, spec):
        return self._real.create_module(spec)

    def exec_module(self, module):
        module.__loader__ = module.__spec__.loader = self._real
        t0 = time.perf_counter()
        try:
            self._real.exec_module(module)
        finally:
            self._timer.seconds += time.perf_counter() - t0
