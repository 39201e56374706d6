"""Spans and counts recorded from the benchmark's own files.

While :func:`instrument` is active, the public functions of every chanfact
module are replaced by timing wrappers, both at their module attribute and
at every name another chanfact module bound to them, and
``numpy.linalg.{svd,eigh,eigvalsh,qr,solve,pinv}`` and ``json.load`` are
wrapped to count calls. No source file is edited; everything is restored on
exit. Spans are kept in memory.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

import numpy as np

NUMPY_DECOMPS = ("svd", "eigh", "eigvalsh", "qr", "solve", "pinv")

# Scalar and reshaping helpers called thousands of times per op; a span on
# each would cost more than the work it measures.
UNWRAPPED = {
    "chanfact.linalg.frob",
    "chanfact.linalg.kron",
    "chanfact.linalg.vec",
    "chanfact.linalg.unvec",
    "chanfact.jsonio.complex_to_json",
}


class Span:
    __slots__ = ("op", "name", "start", "end", "parent", "counts", "size")

    def __init__(self, op, name, start, parent):
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None
        self.size = None


class Tracer:
    """In-memory span store; ``op`` groups the spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(self.op, name, time.perf_counter(), parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, seconds: float) -> None:
        if not self.stack:
            return
        span = self.spans[self.stack[-1]]
        if span.counts is None:
            span.counts = {}
        calls, total = span.counts.get(name, (0, 0.0))
        span.counts[name] = (calls + 1, total + seconds)

    @contextlib.contextmanager
    def operation(self, op_id, name: str):
        self.op = op_id
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.op = None

    def dump(self) -> list[list]:
        return [
            [s.op, s.name, s.start, s.end, s.parent, s.counts, s.size] for s in self.spans
        ]


def _span_wrapper(tracer: Tracer, name: str, fn, places: list):
    """Span around ``fn``; while it runs, ``places`` hold the original again, so
    recursion through the module global (jsonio.dumps) costs no extra frames."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        for mod, attr in places:
            setattr(mod, attr, fn)
        try:
            out = fn(*args, **kwargs)
        finally:
            for mod, attr in places:
                setattr(mod, attr, wrapper)
            tracer.close(idx)
        if isinstance(out, (list, tuple)):
            tracer.spans[idx].size = len(out)
        return out

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name, time.perf_counter() - t0)

    return wrapper


def chanfact_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("chanfact") and m]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap chanfact's public functions, numpy decompositions and json.load."""
    modules = chanfact_modules()
    places: dict = {}
    names = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, fn in vars(mod).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and fn.__module__ == mod.__name__
                and f"{mod.__name__}.{attr}" not in UNWRAPPED
            ):
                names[fn] = f"{layer}.{attr}"
    for mod in modules:
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value in names:
                places.setdefault(value, []).append((mod, attr))
    places[json.load] = [(json, "load")]
    names[json.load] = "json.load"
    saved = []
    for fn, where in places.items():
        wrapper = _span_wrapper(tracer, names[fn], fn, where)
        for mod, attr in where:
            saved.append((mod, attr, fn))
            setattr(mod, attr, wrapper)
    for name in NUMPY_DECOMPS:
        fn = getattr(np.linalg, name)
        saved.append((np.linalg, name, fn))
        setattr(np.linalg, name, _count_wrapper(tracer, f"numpy.{name}", fn))
    try:
        yield tracer
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
