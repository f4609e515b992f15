"""In-memory span tracer driven from outside the traced package.

A span records a name, start, end and the index of its parent span. Spans
stay in a list until the run ends. Self time is a span's duration minus the
durations of its direct children; single-threaded calls nest, so the
children never overlap.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    failed: bool = False
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through :meth:`call` while ``active``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, annotate=None):
        """Run ``fn(*args, **kwargs)`` inside a span.

        ``name`` may be a callable of (args, kwargs). ``annotate(span, args,
        kwargs, result)`` runs after a successful call and may fill
        ``span.info`` or mark the span failed.
        """
        if not self.active:
            return fn(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        span = Span(label, 0.0, parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
        if annotate is not None:
            annotate(span, args, kwargs, result)
        return result

    def wrap(self, fn, name, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, annotate)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span, in the same order."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
