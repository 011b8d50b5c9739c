"""Span tracing for the twophoton benchmark, installed from outside the package.

A hook replaces a public function or method at the place its caller looks it
up (a module global or a class attribute) with a wrapper that records one span
per call: an id, the id of the enclosing span on the same thread, a name, the
start and end in ``perf_counter_ns``, the iteration it belongs to, and an
optional value derived from the arguments and the result.  A span is
recorded also when the call raises.  Spans stay in memory
until the benchmark reduces them to per-layer metrics.  ``Tracer.restore`` puts
every original back.

A hook whose target no longer exists is skipped and its span name is reported
in ``Tracer.absent``, so a later change to the package that removes a function
makes the metrics built on it absent instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    iteration: int
    value: object = None

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


@dataclass(frozen=True)
class Hook:
    """Where to wrap: ``module`` and a dotted ``attr`` inside it."""

    module: str
    attr: str
    span: str
    # value(args, kwargs, result) -> object stored on the span
    value: object = None


class Tracer:
    """Collects spans from any thread; each thread keeps its own span list."""

    def __init__(self):
        self.iteration = 0
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list[Span]] = []
        self._installed: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._lists.append(local.spans)
        return local.spans, local.stack

    def span(self, name: str):
        """Context manager recording one span (used around the benchmark's own calls)."""
        return _SpanContext(self, name)

    def _wrap(self, func, hook: Hook):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with _SpanContext(tracer, hook.span) as span:
                result = func(*args, **kwargs)
                if hook.value is not None:
                    span.value = hook.value(args, kwargs, result)
            return result

        return wrapper

    def install(self, hooks: list[Hook]) -> None:
        present: set[str] = set()
        wanted: set[str] = set()
        for hook in hooks:
            wanted.add(hook.span)
            try:
                owner = importlib.import_module(hook.module)
            except ImportError:
                continue
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, hook))
            elif callable(raw):
                replacement = self._wrap(raw, hook)
            else:
                continue
            setattr(owner, name, replacement)
            self._installed.append((owner, name, raw))
            present.add(hook.span)
        self.absent |= wanted - present

    def restore(self) -> None:
        while self._installed:
            owner, name, raw = self._installed.pop()
            setattr(owner, name, raw)

    def drain(self) -> list[Span]:
        """All spans recorded so far, removing them from the tracer."""
        with self._lock:
            every = [s for lst in self._lists for s in lst]
            for lst in self._lists:
                lst.clear()
        return every


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.value = tracer, name, None

    def __enter__(self):
        self.spans, self.stack = self.tracer._thread_state()
        self.id = next(self.tracer._ids)
        self.parent = self.stack[-1] if self.stack else None
        self.stack.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(
            Span(self.id, self.parent, self.name, self.start, end, self.tracer.iteration, self.value)
        )
        return False


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part its child spans cover, in seconds, by id."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration_s
    return {s.id: s.duration_s - covered.get(s.id, 0.0) for s in spans}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed self time and summed total time."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s in spans:
        entry = out[s.name]
        entry["calls"] += 1
        entry["self_s"] += own[s.id]
        entry["total_s"] += s.duration_s
    return dict(out)
