"""Hooks around the program's layer boundaries, installed per timed call.

Nothing under ``src/`` knows about the benchmark: every hook replaces a
module attribute or a class attribute for the duration of one call and
restores it afterwards.  Functions imported by name are looked up where
the caller looks them up, so each is patched in every module that
calls it (``merge_fingerprints`` in both ``repro.core.glove`` and
``repro.stream.driver``).  Modules are fetched through ``sys.modules``
because ``repro.core.glove`` as an attribute of the ``repro.core``
package is the *function*, not the module.

Every run installs the probes its end-to-end metrics need (a shard
worker's peak memory, the feed time of the event that closed a stream
window, the k-gap matrix for the digest); traced runs add one span per
call of each public layer function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import resource
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional

from perfbench.spans import Recorder

#: ``(module, attribute, span name)`` of the plain functions a traced
#: run wraps.  The stream's ``glove`` binding serves residual windows.
TRACED_FUNCTIONS = (
    ("repro.cdr.datasets", "synthesize", "cdr.synthesize"),
    ("repro.core.glove", "glove", "glove"),
    ("repro.stream.driver", "glove", "glove"),
    ("repro.core.glove", "merge_fingerprints", "merge"),
    ("repro.stream.driver", "merge_fingerprints", "merge"),
    ("repro.core.glove", "reshape_fingerprint", "reshape"),
    ("repro.stream.driver", "reshape_fingerprint", "reshape"),
    ("repro.core.shard", "partition_indices", "shard.partition"),
    ("repro.core.shard", "_boundary_repair", "shard.repair"),
    ("repro.core.kgap", "kgap", "kgap"),
    ("repro.core.kgap", "k_nearest", "kgap.k_nearest"),
)

#: ``StretchEngine`` methods a traced run wraps: the fused bound sweep
#: (both entry points report as one layer), the slot store, and the
#: engine build (slot store plus per-slot bound summaries).
TRACED_ENGINE_METHODS = (
    ("bounded_argmin", "engine.bounded"),
    ("bounded_rows_some", "engine.bounded"),
    ("append", "engine.append"),
    ("__init__", "engine.init"),
)

#: The probes installed for the current call.  Module-level because
#: forked shard workers must find the copy of it they inherited.
_installed: Optional["Probes"] = None


def module(name: str):
    """The module object itself, never a same-named package attribute."""
    importlib.import_module(name)
    return sys.modules[name]


def peak_rss_kb() -> int:
    """High-water resident set of this process, KiB (Linux ``ru_maxrss``)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def _pool_call(fn, args):
    """Run one pool task in a worker; report its pid, peak memory and spans."""
    probes = _installed
    recorder = probes.recorder if probes is not None else None
    if recorder is None:
        return fn(*args), os.getpid(), peak_rss_kb(), None, 0
    recorder.restart_in_worker()
    with recorder.span("shard.task"):
        result = fn(*args)
    return result, os.getpid(), peak_rss_kb(), recorder.spans, len(pickle.dumps(result))


class Probes:
    """Hooks for one timed call; a context manager that installs and restores them.

    ``recorder`` is ``None`` for an untraced call, which then installs
    only the probes the end-to-end metrics need.
    """

    def __init__(self, recorder: Optional[Recorder] = None):
        self.recorder = recorder
        #: Peak resident set of each shard worker seen, KiB, by pid.
        self.worker_peak_kb: Dict[int, int] = {}
        #: Pickled bytes of shard tasks sent and results returned (traced).
        self.ipc_bytes = 0
        #: Stream window index -> ``perf_counter`` time the stream driver was
        #: handed the event that closed it (or the feed ended, for
        #: flushed windows).
        self.window_closed_at: Dict[int, float] = {}
        self.handed_at = 0.0
        self.feed_end: Optional[float] = None
        #: Pairwise stretch matrices the call built (the k-gap matrix).
        self.matrices: List[Any] = []
        self._undo: List[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        global _installed
        if _installed is not None:
            raise RuntimeError("probes are already installed")
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        _installed = self
        return self

    def _install(self) -> None:
        shard = module("repro.core.shard")
        driver = module("repro.stream.driver")
        engine = module("repro.core.engine")
        self._set(shard, "ProcessPoolExecutor", self._pool_class(shard.ProcessPoolExecutor))
        self._set(driver, "WindowManager", self._manager_class(driver.WindowManager))
        self._set(engine, "compute_pairwise_matrix", self._capture(engine.compute_pairwise_matrix))
        if self.recorder is not None:
            for mod, attr, name in TRACED_FUNCTIONS:
                owner = module(mod)
                self._set(owner, attr, _timed(self.recorder, name, getattr(owner, attr)))
            cls = engine.StretchEngine
            for attr, name in TRACED_ENGINE_METHODS:
                self._set(cls, attr, _timed(self.recorder, name, getattr(cls, attr)))

    def __exit__(self, *exc) -> None:
        global _installed
        _installed = None
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def span(self, name: str):
        """A span around benchmark-side code when tracing, else nothing."""
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    # -- probes ---------------------------------------------------------
    def _capture(self, compute_pairwise_matrix):
        fn = compute_pairwise_matrix
        if self.recorder is not None:
            fn = _timed(self.recorder, "kgap.matrix", fn)

        @functools.wraps(compute_pairwise_matrix)
        def capture(*args, **kwargs):
            matrix = fn(*args, **kwargs)
            self.matrices.append(matrix)
            return matrix

        return capture

    def feed(self, events):
        """Hand ``events`` to the stream driver one at a time, stamping each hand-over."""
        for event in events:
            self.handed_at = time.perf_counter()
            yield event
        self.feed_end = time.perf_counter()

    def _manager_class(self, base):
        probes = self
        recorder = self.recorder

        class ClockedWindowManager(base):
            """Records when each window closed, and times ``push`` when tracing."""

            def push(self, event):
                if recorder is None:
                    closed = base.push(self, event)
                else:
                    span = recorder.open("stream.push")
                    try:
                        closed = base.push(self, event)
                    finally:
                        recorder.close(span)
                for window in closed:
                    probes.window_closed_at[window.index] = probes.handed_at
                return closed

            def flush(self):
                closed = base.flush(self)
                for window in closed:
                    probes.window_closed_at[window.index] = probes.feed_end
                return closed

        return ClockedWindowManager

    def _pool_class(self, base):
        probes = self
        recorder = self.recorder

        class ProbedPool(base):
            """Process pool whose tasks report worker peak memory and spans."""

            def __enter__(self):
                self._bench_span = recorder.open("shard.pool") if recorder is not None else None
                return base.__enter__(self)

            def __exit__(self, *exc):
                try:
                    return base.__exit__(self, *exc)
                finally:
                    if self._bench_span is not None:
                        recorder.close(self._bench_span)

            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                if recorder is not None:
                    probes.ipc_bytes += sum(len(pickle.dumps(t)) for t in tasks)
                parent = recorder.current if recorder is not None else None
                results = base.map(self, _pool_call, itertools.repeat(fn, len(tasks)), tasks, **kwargs)
                for result, pid, rss_kb, spans, result_bytes in results:
                    probes.worker_peak_kb[pid] = max(rss_kb, probes.worker_peak_kb.get(pid, 0))
                    if spans is not None:
                        recorder.adopt(spans, parent)
                        probes.ipc_bytes += result_bytes
                    yield result

        return ProbedPool
