"""Spans around the calls into each pasplearn layer.

``Tracer.install`` replaces each public layer function listed in
``LAYERS``, in every pasplearn module that binds it, with a wrapper that
records a span while recording is on: layer, parent span, start, end.
Spans stay in memory; ``self_times`` turns them into per-layer self
time (a span's duration minus the part its child spans cover).

Functions a later version of the package no longer has are skipped, so
their layer reads zero instead of the benchmark failing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (module, attribute, layer).  An attribute "Class.method" wraps a method.
LAYERS = (
    ("pasplearn.parsing", "parse_program", "parsing.parse"),
    ("pasplearn.parsing", "parse_interpretations", "parsing.parse"),
    ("pasplearn.parsing", "parse_query", "parsing.parse"),
    ("pasplearn.model", "query_from_literals", "parsing.parse"),
    ("pasplearn.grounding", "ground", "grounding.ground"),
    ("pasplearn.credal", "world_models", "stable.world_pass"),
    ("pasplearn.credal", "WorldModels.satisfaction", "credal.flags"),
    ("pasplearn.credal", "conditional_flags", "credal.flags"),
    ("pasplearn.credal", "credal_query", "credal.query"),
    ("pasplearn.credal", "credal_conditional", "credal.conditional"),
    ("pasplearn.credal", "check_consistency", "credal.consistency"),
    ("pasplearn.sympoly", "extract_poly", "sympoly.extract"),
    ("pasplearn.sympoly", "poly_from_world_flags", "sympoly.extract"),
    ("pasplearn.sympoly", "poly_eval", "sympoly.eval"),
    ("pasplearn.sympoly", "poly_grad", "sympoly.grad"),
    ("pasplearn.learning", "ll_objective", "learning.objective"),
    ("pasplearn.learning", "ll_gradient", "learning.objective"),
    ("pasplearn.learning", "learn_opt", "learning.opt"),
    ("pasplearn.learning", "learn_em", "learning.em"),
    ("pasplearn.learning", "em_expectation", "learning.em_expectation"),
)

#: Layer of the benchmark's own code between layer calls in a timed region.
GLUE = "bench.glue"


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[tuple[str, int, float, float] | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str):
        """Record one span; nested spans name it as their parent."""
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append(None)
        self._stack.append(i)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[i] = (layer, parent, t0, t1)

    def _wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(layer):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever a pasplearn module binds it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "pasplearn"]
        for module_name, attr, layer in LAYERS:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None)
                if fn is not None:
                    setattr(cls, meth, self._wrap(fn, layer))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, layer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapped)

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op function."""
        def noop():
            return None

        traced = self._wrap(noop, "calibration")
        mark = len(self.spans)
        self.recording = True
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        self.recording = False
        del self.spans[mark:]
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        return ((t1 - t0) - (t2 - t1)) / n

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per-layer self seconds and span counts."""
        covered = [0.0] * len(self.spans)
        for layer, parent, t0, t1 in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (layer, _parent, t0, t1) in enumerate(self.spans):
            seconds[layer] += (t1 - t0) - covered[i]
            calls[layer] += 1
        return dict(seconds), calls

    def export(self) -> list[list]:
        """Spans as [layer, parent, start, end], times relative to the first span."""
        if not self.spans:
            return []
        origin = self.spans[0][2]
        return [
            [layer, parent, round(t0 - origin, 7), round(t1 - origin, 7)]
            for layer, parent, t0, t1 in self.spans
        ]
