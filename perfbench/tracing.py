"""Spans recorded from outside the package.

Each public function the benchmark traces is replaced, at the module
attribute its caller looks it up through, by a wrapper that records one span:
layer name, start, end and parent span.  Spans stay in growable arrays in
memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children; the program
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.phase = ""
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, layer: str) -> int:
        if layer not in self.ids:
            self.ids[layer] = len(self.names)
            self.names.append(layer)
        return self.ids[layer]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    @contextmanager
    def span(self, layer: str):
        """A span around benchmark code, e.g. one set-up or one operation.
        A span opened outside any other names the phase counters go to."""
        if len(self._stack) == 1:
            self.phase = layer
        idx = self._open(self._id(layer))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, perf_counter())

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace owner.attr by a traced wrapper.  after(tracer, args, result),
        when given, runs once the call returns, outside the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._id(layer)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx, t0, perf_counter())
            if after is not None:
                after(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def count(self, key: str, amount: float) -> None:
        key = f"{self.phase}:{key}"
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(name: np.ndarray, parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    return dur - child


def phase_totals(tracer: Tracer, phases: tuple[str, ...]) -> dict[str, dict]:
    """Self seconds and call counts per layer, split by the root phase span
    (for example 'setup' or 'op') each span ran under."""
    a = tracer.arrays()
    if a["name"].size == 0:
        return {ph: {"self": {}, "calls": {}, "roots": 0} for ph in phases}
    own = self_times(a["name"], a["parent"], a["start"], a["end"])
    roots = np.flatnonzero(a["parent"] < 0)
    # spans nest in time, so each span lies inside the last root started
    # at or before it
    root_of = roots[np.searchsorted(a["start"][roots], a["start"], side="right") - 1]
    root_name = a["name"][root_of]
    out = {}
    n_layers = len(tracer.names)
    for ph in phases:
        if ph not in tracer.ids:
            out[ph] = {"self": {}, "calls": {}, "roots": 0}
            continue
        sel = root_name == tracer.ids[ph]
        secs = np.bincount(a["name"][sel], weights=own[sel], minlength=n_layers)
        calls = np.bincount(a["name"][sel], minlength=n_layers)
        out[ph] = {"self": dict(zip(tracer.names, secs.tolist())),
                   "calls": dict(zip(tracer.names, calls.tolist())),
                   "roots": int(np.count_nonzero(a["name"][roots] == tracer.ids[ph]))}
    return out
