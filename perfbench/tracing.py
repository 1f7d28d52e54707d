"""Spans around the benchmark's calls into the zetavac layers.

The workloads never import zetavac functions directly: they call them
through a namespace built by ``library``.  Without a tracer the namespace
holds the library's own functions, so untraced passes pay nothing.  With a
tracer every function is wrapped so that each call records one span
(name, start, end, parent span, pass).  Spans stay in memory and are
written out once the run ends.  No span is placed inside the library.
"""
from __future__ import annotations

import json
import time
from types import SimpleNamespace

import numpy as np

import zetavac

# vacuum_state switches from the dense eigensolver to Lanczos above this
# dimension (documented library behaviour); its spans are split by path.
DENSE_CUTOFF = 512

PASS = "pass"


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, pass_index]
        self._stack = []
        self.pass_index = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_index])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, span_id: int) -> None:
        self.spans[span_id][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn):
        name = _layer_name(fn)

        def traced(*args, **kwargs):
            label = name
            if fn is zetavac.vacuum_state:
                label += ".lanczos" if np.shape(args[0])[0] > DENSE_CUTOFF else ".dense"
            span = self.begin(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    def run_pass(self, pass_fn, *args):
        """Run one workload pass under a root span; returns its result."""
        self.pass_index += 1
        span = self.begin(PASS)
        try:
            return pass_fn(*args)
        finally:
            self.end(span)

    def per_pass(self):
        """For each traced pass: (duration, {name: [durations]}, {name: self time}, covered).

        ``covered`` is the time of the pass spent inside spans that are
        direct children of the pass span, i.e. inside library calls.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, p) in enumerate(self.spans):
            rec = out.setdefault(p, [0.0, {}, {}, 0.0])
            if name == PASS:
                rec[0] = end - start
                rec[3] = child_time[i]
                continue
            rec[1].setdefault(name, []).append(end - start)
            rec[2][name] = rec[2].get(name, 0.0) + (end - start) - child_time[i]
        return [tuple(out[p]) for p in sorted(out)]

    def write(self, path, workload: str, seed: int) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, p) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end, "parent": parent,
                    "workload": workload, "pass": p, "seed": seed,
                }) + "\n")


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public zetavac callables, traced when ``tracer`` is given.

    Each is traced as "<module>.<name>", e.g. "gauge.gauge_ratio".
    """
    fns = {name: fn for name, fn in vars(zetavac).items()
           if callable(fn) and not name.startswith("_")}
    if tracer is not None:
        fns = {name: tracer.wrap(fn) for name, fn in fns.items()}
    return SimpleNamespace(**fns)
