"""In-memory span tracer with one span stack per thread.

A span carries a name, a start and end time (``perf_counter``), the span that
caused it, and a dict of attributes. Spans are kept in memory and read once
the traced work has finished. Work that fans out to worker threads keeps its
causal link through :meth:`Tracer.adopt`, which makes a span the current
parent on the calling thread without opening a new span.

Self time is a span's length minus the part of its interval that its child
spans cover; children that overlap one another (threads) count once.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            sp = Span(next(self._ids), name, stack[-1].id if stack else None, self.clock())
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = self.clock()

    @contextmanager
    def adopt(self, parent: Span):
        """Make ``parent`` the current span on this thread (for pool workers)."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` inside a span; ``annotate(args, kwargs, result)`` fills its attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if annotate is not None:
                sp.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    # -- reading the trace ---------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                out.setdefault(sp.parent, []).append(sp)
        return out

    def self_time(self, sp: Span, children=None) -> float:
        """``sp``'s length minus the part covered by its children."""
        kids = (children if children is not None else self.children()).get(sp.id, [])
        return sp.duration - covered((max(c.start, sp.start), min(c.end, sp.end))
                                     for c in kids)

    def busy(self, names) -> float:
        """Time during which at least one span with a name in ``names`` was open."""
        return covered((sp.start, sp.end) for sp in self.spans if sp.name in names)
