"""Incremental windowed GLOVE: anonymize a stream window by window.

Each window closed by the :class:`~repro.stream.windows.WindowManager`
is k-anonymized with the *existing* pruned greedy loop of
:mod:`repro.core.glove` on a fresh
:class:`~repro.core.engine.StretchEngine` — the streaming tier adds no
second anonymization algorithm, only orchestration:

* **Carry-over** (default): a window's greedy loop emits its finished
  groups (count >= k) and hands its at-most-one under-populated
  leftover to the *next* window's population, so subscribers arriving
  too late or too sparsely to reach k-anonymity inside one window get
  a second chance — the temporal analogue of the sharded tier's
  cross-shard boundary repair (DESIGN.md D5/D7).  A window whose whole
  population is below ``k`` is *deferred*: nothing is emitted and
  everything carries forward.  When a carried group's member emits
  fresh events in a later window, that native fingerprint is absorbed
  into the carried group through the standard Eq. 12-13 merge (member
  set unchanged), so no subscriber is ever claimed twice within one
  window's publication.

  At end of stream the remaining carry pool is repaired exactly like
  shard boundaries: a pool that can reach ``k`` on its own is
  anonymized as a residual window; a pool below ``k`` is folded into
  the nearest groups of the last emitted window (held back,
  pre-suppression, for exactly this purpose — one window of lookahead,
  so memory stays O(window)).

* **Carry-over disabled**: every window is anonymized independently
  with full batch semantics (:func:`repro.core.glove.glove`, including
  leftover folding and backend/driver dispatch).  This is the
  anchor-invariant configuration: one window covering the whole
  recording is byte-identical to batch GLOVE.

Suppression is applied per emitted window through the same
:func:`repro.core.glove.finalize_result` path as the batch tier, and
accounted per window (:class:`~repro.stream.stats.WindowStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Set

from repro.core.config import ComputeConfig, GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import StretchEngine, get_default_compute
from repro.core.fingerprint import Fingerprint
from repro.core.glove import (
    GloveResult,
    GloveStats,
    _greedy_merge,
    finalize_result,
    glove,
    validate_population,
)
from repro.core.merge import merge_fingerprints
# Merges reshape in the same pass (merge_fingerprints(reshape=...)); the
# name stays bound here because perfbench/layers.py traces it.
from repro.core.reshape import reshape_fingerprint  # noqa: F401
from repro.core.shard import _boundary_repair
from repro.obs import get_metrics
from repro.stream.feed import ReplayFeed, StreamEvent, replay_dataset
from repro.stream.stats import StreamStats, WindowStats
from repro.stream.windows import ClosedWindow, StreamConfig, WindowManager


@dataclass
class WindowResult:
    """One window's publication (or deferral record).

    ``result`` is the window's :class:`~repro.core.glove.GloveResult`
    — ``None`` for deferred windows, whose population was carried
    forward unpublished.
    """

    index: int
    start_min: float
    end_min: float
    stats: WindowStats
    result: Optional[GloveResult] = None

    @property
    def emitted(self) -> bool:
        """Whether this window published any groups."""
        return self.result is not None

    @property
    def dataset(self) -> FingerprintDataset:
        """The window's published groups (empty for deferred windows)."""
        if self.result is None:
            return FingerprintDataset(name=f"w{self.index}-deferred")
        return self.result.dataset


@dataclass
class StreamResult:
    """All windows of one streaming run plus aggregate statistics."""

    windows: List[WindowResult] = field(default_factory=list)
    config: GloveConfig = field(default_factory=GloveConfig)
    stream: StreamConfig = field(default_factory=lambda: StreamConfig(window_min=1.0))
    stats: StreamStats = field(default_factory=StreamStats)

    @property
    def emitted(self) -> List[WindowResult]:
        """The windows that published groups, in window order."""
        return [w for w in self.windows if w.emitted]

    def combined_dataset(self, name: str = "stream") -> FingerprintDataset:
        """All published windows concatenated into one dataset.

        Group uids are unique within a window but may repeat across
        windows (a subscriber active in several windows, or identical
        merge labels); repeats are disambiguated with an ``@w<index>``
        suffix.  With a single emitted window the output is exactly
        that window's dataset — the CSV serialization of the anchor
        invariant relies on this.
        """
        out = FingerprintDataset(name=name)
        for window in self.emitted:
            for fp in window.dataset:
                uid = fp.uid
                if uid in out:
                    uid = f"{fp.uid}@w{window.index}"
                    n = 0
                    while uid in out:
                        n += 1
                        uid = f"{fp.uid}@w{window.index}.{n}"
                    fp = Fingerprint(uid, fp.data, count=fp.count, members=fp.members)
                out.add(fp)
        return out


class _PendingWindow:
    """An emitted window held back, pre-suppression, for residual repair."""

    def __init__(self, index, start, end, finished, glove_stats, wstats, name):
        self.index = index
        self.start = start
        self.end = end
        self.finished: List[Fingerprint] = finished
        self.glove_stats: GloveStats = glove_stats
        self.wstats: WindowStats = wstats
        self.name = name


def _absorb(group: Fingerprint, native: Fingerprint, config: GloveConfig) -> Fingerprint:
    """Fold a carried member's fresh fingerprint into their carried group.

    Uses the standard specialized-generalization merge so the group's
    published trace covers the member's new samples, then restores the
    group's identity: the member is already counted, so ``count`` and
    ``members`` must not grow (DESIGN.md D7).
    """
    merged = merge_fingerprints(
        group, native, config.stretch, uid=group.uid, reshape=config.reshape
    )
    return Fingerprint(group.uid, merged.data, count=group.count, members=group.members)


def _assemble(
    closed: ClosedWindow,
    carry: List[Fingerprint],
    config: GloveConfig,
    wstats: WindowStats,
    uid_order: Optional[dict] = None,
) -> List[Fingerprint]:
    """A window's population: carried groups first, then native users.

    Native fingerprints are assembled in the canonical order of
    :meth:`~repro.stream.windows.ClosedWindow.fingerprints` —
    arrival-independent — and any native uid already claimed by a
    carried group is absorbed into that group instead of forming a
    duplicate claim.
    """
    population: List[Fingerprint] = list(carry)
    claimed = {}
    for pos, fp in enumerate(population):
        for member in fp.members:
            claimed[member] = pos
    wstats.n_carried_in = len(carry)
    wstats.n_carried_in_members = sum(fp.count for fp in carry)
    for fp in closed.fingerprints(uid_order):
        pos = claimed.get(fp.uid)
        if pos is not None:
            population[pos] = _absorb(population[pos], fp, config)
            wstats.n_absorbed += 1
        else:
            population.append(fp)
            wstats.n_native_fingerprints += 1
    return population


def _batch_result(
    dataset: FingerprintDataset,
    config: GloveConfig,
    compute: ComputeConfig,
    wstats: WindowStats,
):
    """Run batch :func:`glove` for one window and record its stats."""
    result = glove(dataset, config, compute)
    wstats.n_groups = len(result.dataset)
    wstats.n_merges = result.stats.n_merges
    wstats.suppression = result.stats.suppression
    wstats.n_boundary_crossings = result.stats.n_boundary_crossings
    wstats.n_probe_dispatches = result.stats.n_probe_dispatches
    wstats.n_batched_probes = result.stats.n_batched_probes
    wstats.n_bound_pruned = result.stats.n_bound_pruned
    return result


def _fold_residue(
    pending: "_PendingWindow",
    residue: List[Fingerprint],
    config: GloveConfig,
    compute: ComputeConfig,
) -> None:
    """Fold a below-k end-of-stream residue into the held-back window.

    A residue fingerprint belonging to subscribers the window *already
    published* (users active both in the window and in a trailing
    deferred window) is absorbed into the group that claims them —
    merging samples, not membership, so no subscriber is claimed twice
    within the publication.  Only genuinely unpublished subscribers go
    through the cross-boundary repair that grows a nearest group's
    count (the sharded tier's mechanism, DESIGN.md D5/D7).
    """
    claimed = {}
    for pos, group in enumerate(pending.finished):
        for member in group.members:
            claimed[member] = pos
    to_repair: List[Fingerprint] = []
    for fp in residue:
        owners = {claimed.get(member) for member in fp.members}
        if owners == {None}:
            to_repair.append(fp)
            continue
        if len(owners) != 1 or None in owners:
            # Leftover lineages are disjoint from finished groups, so a
            # residue fingerprint is either fully unpublished or fully
            # owned by one group; anything else is an internal error.
            raise RuntimeError(
                f"residue fingerprint {fp.uid!r} straddles published groups"
            )
        pos = owners.pop()
        pending.finished[pos] = _absorb(pending.finished[pos], fp, config)
    if to_repair:
        _boundary_repair(pending.finished, to_repair, config, compute, pending.glove_stats)


def _window_stats(closed: ClosedWindow) -> WindowStats:
    return WindowStats(
        index=closed.index,
        start_min=closed.start,
        end_min=closed.end,
        n_events=closed.n_events,
        n_late_events=closed.n_late_events,
    )


def _finalize(pending: _PendingWindow, config: GloveConfig) -> WindowResult:
    """Package a held-back window: suppression, stats, result."""
    t0 = time.perf_counter()
    out = FingerprintDataset(name=pending.name)
    for fp in pending.finished:
        out.add(fp)
    pending.glove_stats.n_output_fingerprints = len(out)
    result = finalize_result(out, pending.glove_stats, config)
    pending.wstats.n_groups = len(result.dataset)
    pending.wstats.n_merges = pending.glove_stats.n_merges
    pending.wstats.suppression = result.stats.suppression
    pending.wstats.n_boundary_crossings = pending.glove_stats.n_boundary_crossings
    pending.wstats.n_probe_dispatches = pending.glove_stats.n_probe_dispatches
    pending.wstats.n_batched_probes = pending.glove_stats.n_batched_probes
    pending.wstats.n_bound_pruned = pending.glove_stats.n_bound_pruned
    pending.wstats.wall_s += time.perf_counter() - t0
    return WindowResult(
        index=pending.index,
        start_min=pending.start,
        end_min=pending.end,
        stats=pending.wstats,
        result=result,
    )


def iter_stream_glove(
    feed: Iterable[StreamEvent],
    config: GloveConfig = GloveConfig(),
    stream: StreamConfig = StreamConfig(window_min=24 * 60.0),
    compute: Optional[ComputeConfig] = None,
    stats: Optional[StreamStats] = None,
    feed_name: str = "stream",
    uid_order: Optional[dict] = None,
) -> Iterator[WindowResult]:
    """Anonymize an event feed window by window, yielding as windows close.

    The bounded-memory core of the streaming tier: holds the open
    windows' events, the carry pool, and (with carry-over) one emitted
    window of lookahead.  Windows are yielded in index order.  With
    carry-over disabled a window whose population cannot reach ``k``
    raises ``ValueError`` (enable carry-over to defer it instead).
    ``uid_order`` (uid -> source-dataset position) selects the
    canonical within-window population order; see
    :meth:`~repro.stream.windows.ClosedWindow.fingerprints`.
    """
    compute = compute if compute is not None else get_default_compute()
    stats = stats if stats is not None else StreamStats()
    manager = WindowManager(stream)
    carry: List[Fingerprint] = []
    pending: Optional[_PendingWindow] = None
    trailing: List[WindowResult] = []
    users: Set[str] = set()
    k = config.k
    last_end = None

    def process(closed: ClosedWindow):
        """Anonymize one closed window; returns results ready to yield."""
        nonlocal carry, pending, trailing, last_end
        t0 = time.perf_counter()
        wstats = _window_stats(closed)
        last_end = closed.end if last_end is None else max(last_end, closed.end)
        name = f"{feed_name}-w{closed.index}-glove-k{k}"

        if not stream.carry_over:
            window_ds = FingerprintDataset(
                closed.fingerprints(uid_order), name=f"{feed_name}-w{closed.index}"
            )
            wstats.n_native_fingerprints = len(window_ds)
            if window_ds.n_users < k:
                raise ValueError(
                    f"window {closed.index} holds {window_ds.n_users} subscribers, "
                    f"below k={k}; enable carry-over to defer under-populated windows"
                )
            result = _batch_result(window_ds, config, compute, wstats)
            wstats.wall_s = time.perf_counter() - t0
            stats.record_window(wstats)
            return [
                WindowResult(
                    index=closed.index,
                    start_min=closed.start,
                    end_min=closed.end,
                    stats=wstats,
                    result=result,
                )
            ]

        population = _assemble(closed, carry, config, wstats, uid_order)
        carry = []
        total = sum(fp.count for fp in population)
        if total < k:
            carry = population
            wstats.deferred = True
            wstats.carried_out_members = total
            wstats.wall_s = time.perf_counter() - t0
            stats.record_window(wstats)
            deferred = WindowResult(
                index=closed.index, start_min=closed.start, end_min=closed.end, stats=wstats
            )
            if pending is None:
                return [deferred]
            trailing.append(deferred)
            return []

        glove_stats = GloveStats(n_input_fingerprints=len(population))
        with StretchEngine(population, stretch=config.stretch, compute=compute) as engine:
            finished, leftover, _ = _greedy_merge(engine, population, config, glove_stats)
            finished_fps = [engine.store.fps[s] for s in finished]
            leftover_fp = engine.store.fps[leftover] if leftover is not None else None
            (
                glove_stats.n_boundary_crossings,
                glove_stats.n_probe_dispatches,
                glove_stats.n_batched_probes,
                glove_stats.n_bound_pruned,
            ) = engine.backend.dispatch_counters()
        if leftover_fp is not None:
            carry = [leftover_fp]
            wstats.carried_out_members = leftover_fp.count
        wstats.wall_s = time.perf_counter() - t0

        ready: List[WindowResult] = []
        if pending is not None:
            result = _finalize(pending, config)
            stats.record_window(result.stats)
            ready.append(result)
        ready.extend(trailing)
        trailing = []
        pending = _PendingWindow(
            closed.index, closed.start, closed.end, finished_fps, glove_stats, wstats, name
        )
        return ready

    t_start = time.perf_counter()
    for event in feed:
        stats.n_events += 1
        users.add(event.uid)
        for closed in manager.push(event):
            yield from process(closed)
    for closed in manager.flush():
        yield from process(closed)

    # End of stream: repair the residual carry pool (DESIGN.md D7).
    if carry:
        total = sum(fp.count for fp in carry)
        if total >= k:
            t0 = time.perf_counter()
            index = manager.next_index
            start = last_end if last_end is not None else 0.0
            end = max(start, manager.max_time)
            wstats = WindowStats(index=index, start_min=start, end_min=end)
            wstats.residual = True
            wstats.n_carried_in = len(carry)
            wstats.n_carried_in_members = total
            residual_ds = FingerprintDataset(carry, name=f"{feed_name}-residual")
            result = _batch_result(residual_ds, config, compute, wstats)
            wstats.wall_s = time.perf_counter() - t0
            if pending is not None:
                done = _finalize(pending, config)
                stats.record_window(done.stats)
                yield done
                pending = None
            yield from trailing
            trailing = []
            stats.record_window(wstats)
            yield WindowResult(
                index=index, start_min=start, end_min=end, stats=wstats, result=result
            )
        elif pending is None:
            # No window was ever emitted, so there is nothing to fold
            # the below-k residue into.  Input validation guarantees
            # the *full* population reaches k, so this only happens
            # when the run itself was lossy (late events discarded
            # under ``late_policy="drop"``); the residue is suppressed
            # and accounted rather than crashing a by-design-lossy run.
            stats.n_unpublished_members = total
        else:
            # Below-k residue: fold into the held-back window's groups,
            # the temporal analogue of cross-shard boundary repair.
            t0 = time.perf_counter()
            _fold_residue(pending, carry, config, compute)
            pending.wstats.carried_out_members = 0
            pending.wstats.n_carried_in += len(carry)
            pending.wstats.n_carried_in_members += total
            pending.wstats.wall_s += time.perf_counter() - t0
        carry = []

    if pending is not None:
        done = _finalize(pending, config)
        stats.record_window(done.stats)
        yield done
    yield from trailing

    stats.n_users = len(users)
    stats.n_late_redirected = manager.n_redirected
    stats.n_late_dropped = manager.n_dropped
    stats.wall_s = time.perf_counter() - t_start
    stats.record_metrics(get_metrics())


def stream_glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    stream: StreamConfig = StreamConfig(window_min=24 * 60.0),
    compute: Optional[ComputeConfig] = None,
    feed: Optional[ReplayFeed] = None,
) -> StreamResult:
    """k-anonymize a dataset as a windowed stream; returns every window.

    Replays ``dataset`` as a timestamped event feed (or consumes the
    given pre-built ``feed``) and runs :func:`iter_stream_glove` to
    completion.  Every *emitted* window hides each of its subscribers
    in a crowd of at least ``config.k``; a single window covering the
    whole recording with carry-over disabled reproduces batch
    :func:`repro.core.glove.glove` byte for byte (DESIGN.md D7).
    """
    validate_population(list(dataset), config.k)
    if feed is None:
        feed = replay_dataset(dataset)
    stats = StreamStats()
    uid_order = {uid: pos for pos, uid in enumerate(dataset.uids)}
    windows = list(
        iter_stream_glove(
            feed,
            config,
            stream,
            compute,
            stats=stats,
            feed_name=dataset.name,
            uid_order=uid_order,
        )
    )
    windows.sort(key=lambda w: w.index)
    return StreamResult(windows=windows, config=config, stream=stream, stats=stats)
