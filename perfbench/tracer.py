"""Spans around calls into lightclock's modules, recorded from outside ``src``.

``Tracer.install`` replaces every public function of every lightclock module
(and the arithmetic of ``Dual``) with a wrapper that records a span, in each
module namespace that holds it, so calls made through a module attribute or
an imported name are both seen.  Spans stay in memory as tuples and are
written out once, at the end.

Span schema: ``[op, id, parent, name, start_ns, end_ns]``.  ``op`` names the
request (one CLI process or one library call), ``id`` is the span's index in
its file, ``parent`` the index of the span that called it (-1 for a root),
``name`` is ``<layer>.<function>`` and the times come from
``time.perf_counter_ns``, which is CLOCK_MONOTONIC and so comparable across
processes.  A layer's self time is the summed duration of its spans minus the
time their direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager

MODULES = (
    "cli", "radar", "clocks", "velocity_space", "line_elements",
    "alterations", "transition", "medium", "infinitesimals",
)
DUAL_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__abs__",
    "sqrt", "exp", "log", "sin", "cos", "tan", "tanh", "arctan",
)
SCHEMA = ["op", "id", "parent", "name", "start_ns", "end_ns"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, idx, parent, name, start, end)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the lightclock modules in place."""
        import lightclock  # imports every module but the CLI

        mods = {m: sys.modules[f"lightclock.{m}"] for m in MODULES
                if f"lightclock.{m}" in sys.modules}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self._wrap(value, f"{layer}.{attr}")
        for ns in [lightclock, *mods.values()]:
            for attr, value in list(vars(ns).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._set(ns, attr, wrapped[value])
        dual = mods["infinitesimals"].Dual
        for attr in DUAL_METHODS:
            self._set(dual, attr, self._wrap(getattr(dual, attr), f"infinitesimals.Dual.{attr}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (self.op, idx, parent, name, start, end)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a root span measured elsewhere (a whole process)."""
        self.spans.append((self.op, len(self.spans), -1, name, start_ns, end_ns))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "spans": self.spans}, fh, separators=(",", ":"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> tuple[dict[str, int], dict[int, int], int]:
    """(self ns per layer, summed root-span ns per op, number of spans)."""
    child = [0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child[s[2]] += s[5] - s[4]
    layers: dict[str, int] = {}
    roots: dict[int, int] = {}
    for s, covered in zip(spans, child):
        dur = s[5] - s[4]
        layer = layer_of(s[3])
        layers[layer] = layers.get(layer, 0) + dur - covered
        if s[2] < 0:
            roots[s[0]] = roots.get(s[0], 0) + dur
    return layers, roots, len(spans)
