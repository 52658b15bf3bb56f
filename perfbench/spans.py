"""In-memory spans and self-time accounting for traced benchmark runs.

A span records its name, start and end (``perf_counter_ns``), the span
that was open when it started (its parent), the run it belongs to and
the process that recorded it.  Spans are appended to a list and only
read after the run ends, so recording one costs two clock reads and an
append.

Self time is a span's duration minus the part of it covered by its
child spans *in the same process*.  Shard workers run concurrently, so
their spans (parented to the pool span that started them) do not count
against the pool span: within each process the self times of a run sum
exactly to the duration of that process's root span.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional


class Span:
    """One timed interval of one layer call."""

    __slots__ = ("id", "parent", "name", "start", "end", "run", "pid")

    def __init__(self, id: int, parent: Optional[int], name: str, start: int, run: int, pid: int):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.run = run
        self.pid = pid

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Recorder:
    """Collects the spans of one process; ``run`` tags the spans opened next."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = 0
        self.pid = os.getpid()
        self._stack: List[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(), self.run, self.pid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed while {popped.name!r} is open")

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def restart_in_worker(self) -> None:
        """Start an empty span list in a forked worker (the parent's copy stays put)."""
        self.spans = []
        self._stack = []
        self.pid = os.getpid()

    def adopt(self, spans: Iterable[Span], parent: Span) -> None:
        """Append spans recorded in a worker, re-parenting its roots to ``parent``."""
        base = len(self.spans)
        for span in spans:
            span.id += base
            span.parent = parent.id if span.parent is None else span.parent + base
            span.run = parent.run
            self.spans.append(span)


def self_times(spans: List[Span]) -> Dict[int, int]:
    """Self time (ns) of every span, keyed by span id."""
    children: Dict[int, List[Span]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and by_id[s.parent].pid == s.pid:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration_ns - covered
    return out


class LayerTotals:
    """Per-name sums over one run's spans: calls, total and self seconds."""

    def __init__(self, spans: List[Span]):
        selfs = self_times(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.durations_s: Dict[str, List[float]] = defaultdict(list)
        for s in spans:
            self.calls[s.name] += 1
            self.total_s[s.name] += s.duration_ns / 1e9
            self.self_s[s.name] += selfs[s.id] / 1e9
            self.durations_s[s.name].append(s.duration_ns / 1e9)
