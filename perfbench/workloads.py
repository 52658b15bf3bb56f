"""The benchmark's workloads: inputs from a seed, one timed call, checks.

Every workload synthesizes ``synth-civ`` data at k=2 and calls one
public entry point directly -- ``glove``, ``glove`` with the sharded
backend, ``iter_stream_glove`` or ``kgap`` -- never through
``Pipeline``, so the artifact store cannot serve a run.  Compute
settings are written out in full (``kernel_threads=1``) so no
environment knob can change them.  ``perfbench/spec.json`` records why
each workload exists and which layers it loads.
"""

from __future__ import annotations

import hashlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from perfbench.layers import Probes, module

#: Anonymity level of every workload.
K = 2

#: Generator seed of the synthetic country every workload draws from.
#: The run's ``--seed`` picks which subscribers of it take part (and
#: the stream's arrival jitter): inputs differ from seed to seed while
#: the geography -- which alone moves the accuracy metrics by about
#: 25% and the work by about 10% between generator seeds -- stays put.
POPULATION_SEED = 0

#: Share of the synthetic country's subscribers drawn into the input.
DRAW_FRACTION = 0.95


@dataclass
class Outcome:
    """One timed call: its wall time, its results and the work it did."""

    seconds: float
    #: Seconds from the input that completed each published result to
    #: the result being handed back (one entry per published result).
    latencies_s: List[float]
    result: Any
    #: Work counters from the returned stats; identical for a traced
    #: and an untraced call on the same input.
    counters: Dict[str, int]
    #: Sum of the peak resident sets of the call's shard workers, KiB.
    worker_peak_kb: int = 0
    #: High-water resident set of the benchmark process when the call
    #: returned, plus ``worker_peak_kb``, KiB.
    peak_kb: int = 0
    ipc_bytes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def release(self) -> None:
        """Drop the call's output once a newer call supersedes it."""
        self.result = None
        self.extra = {}


def _glove_counters(stats) -> Dict[str, int]:
    return {
        "merges": stats.n_merges,
        "exact_evaluations": stats.n_exact_evaluations,
        "pruned_evaluations": stats.n_pruned_evaluations,
        "boundary_crossings": stats.n_boundary_crossings,
        "probe_dispatches": stats.n_probe_dispatches,
        "shards": stats.shards_used,
        "boundary_repaired": stats.boundary_repaired,
        "groups": stats.n_output_fingerprints,
    }


def check_groups(groups, k: int = K) -> List[str]:
    """Problems with one publication: groups below k or members claimed twice."""
    problems = []
    seen = set()
    for fp in groups:
        if fp.count < k or len(set(fp.members)) != fp.count:
            problems.append(f"group {fp.uid!r} hides {len(set(fp.members))} subscribers (k={k})")
        dup = seen.intersection(fp.members)
        if dup:
            problems.append(f"subscribers {sorted(dup)[:3]} appear in more than one group")
        seen.update(fp.members)
    return problems


def output_digest(dataset) -> str:
    """SHA-256 of a published dataset: uids, members and sample bytes in order."""
    h = hashlib.sha256()
    for fp in dataset:
        h.update(fp.uid.encode())
        h.update(",".join(fp.members).encode())
        h.update(np.ascontiguousarray(fp.data, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    """A named input size plus the call it times."""

    name: str
    users: int
    days: int

    def synthesize(self, seed: int):
        """``users`` subscribers drawn by ``seed`` from the fixed synthetic country."""
        from repro.core.dataset import FingerprintDataset

        population = module("repro.cdr.datasets").synthesize(
            "synth-civ",
            n_users=round(self.users / DRAW_FRACTION),
            days=self.days,
            seed=POPULATION_SEED,
        )
        fps = list(population)
        pick = np.random.default_rng(seed).choice(len(fps), size=self.users, replace=False)
        return FingerprintDataset((fps[i] for i in np.sort(pick)), name=population.name)

    def setup(self, seed: int) -> Dict[str, Any]:
        return {"dataset": self.synthesize(seed)}

    def compute(self):
        from repro.core.config import ComputeConfig

        return ComputeConfig(kernel_threads=1)

    def call(self, inputs: Dict[str, Any], probes: Probes) -> Outcome:
        raise NotImplementedError

    def check(self, inputs: Dict[str, Any], outcome: Outcome) -> List[str]:
        raise NotImplementedError

    def digest(self, outcome: Outcome) -> Optional[str]:
        """Digest compared with the reference of the default seed, if any."""
        return None

    def accuracy(self, inputs: Dict[str, Any], outcome: Outcome):
        """Table 2 ``(mean position error m, mean time error min)`` of the output."""
        from repro.analysis.accuracy import utility_report

        report = utility_report(inputs["dataset"], self.published(inputs, outcome), "glove")
        return report.mean_position_error_m, report.mean_time_error_min

    def published(self, inputs, outcome):
        raise NotImplementedError


@dataclass(frozen=True)
class Batch(Workload):
    """Unsharded ``glove()`` over the whole dataset."""

    def call(self, inputs, probes):
        from repro.core.config import GloveConfig

        glove = module("repro.core.glove").glove
        t0 = time.perf_counter()
        result = glove(inputs["dataset"], GloveConfig(k=K), self.compute())
        seconds = time.perf_counter() - t0
        return Outcome(seconds, [seconds], result, _glove_counters(result.stats))

    def check(self, inputs, outcome):
        groups = list(outcome.result.dataset)
        problems = check_groups(groups)
        covered = sorted(m for fp in groups for m in fp.members)
        if covered != sorted(inputs["dataset"].uids):
            problems.append("published members differ from the input subscribers")
        return problems

    def published(self, inputs, outcome):
        return outcome.result.dataset

    def digest(self, outcome):
        return output_digest(outcome.result.dataset)


@dataclass(frozen=True)
class Sharded(Batch):
    """``glove()`` on the sharded backend with a two-process shard pool."""

    workers: int = 2
    #: ``None`` lets the program pick the shard count from the input size.
    shards: Optional[int] = None

    def compute(self):
        from repro.core.config import ComputeConfig

        return ComputeConfig(
            backend="sharded", workers=self.workers, shards=self.shards, kernel_threads=1
        )

    def call(self, inputs, probes):
        outcome = super().call(inputs, probes)
        outcome.worker_peak_kb = sum(probes.worker_peak_kb.values())
        outcome.ipc_bytes = probes.ipc_bytes
        return outcome


@dataclass(frozen=True)
class Stream(Workload):
    """``iter_stream_glove`` over a jittered replay, pulled one event at a time."""

    window_min: float = 90.0
    max_lag_min: float = 30.0
    jitter_min: float = 45.0
    min_windows: int = 100

    def setup(self, seed):
        from repro.stream.feed import replay_dataset

        dataset = self.synthesize(seed)
        feed = replay_dataset(dataset, max_jitter_min=self.jitter_min, seed=seed)
        uid_order = {uid: pos for pos, uid in enumerate(dataset.uids)}
        return {"dataset": dataset, "feed": feed, "uid_order": uid_order}

    def call(self, inputs, probes):
        from repro.core.config import GloveConfig
        from repro.stream.driver import iter_stream_glove
        from repro.stream.stats import StreamStats
        from repro.stream.windows import StreamConfig

        stats = StreamStats()
        config = StreamConfig(
            window_min=self.window_min, max_lag_min=self.max_lag_min, carry_over=True
        )
        windows = []
        latencies = []
        t0 = time.perf_counter()
        with probes.span("stream"):
            for window in iter_stream_glove(
                probes.feed(inputs["feed"]),
                GloveConfig(k=K),
                config,
                self.compute(),
                stats=stats,
                feed_name=inputs["dataset"].name,
                uid_order=inputs["uid_order"],
            ):
                if window.emitted:
                    # Residual windows are never closed by the manager:
                    # they are published after the end of the feed.
                    closed_at = probes.window_closed_at.get(window.index, probes.feed_end)
                    latencies.append(time.perf_counter() - closed_at)
                windows.append(window)
        seconds = time.perf_counter() - t0
        emitted = [w.result.stats for w in windows if w.emitted]
        counters = {
            "merges": stats.n_merges,
            "exact_evaluations": sum(s.n_exact_evaluations for s in emitted),
            "pruned_evaluations": sum(s.n_pruned_evaluations for s in emitted),
            "boundary_crossings": stats.n_boundary_crossings,
            "probe_dispatches": stats.n_probe_dispatches,
            "groups": stats.n_groups,
            "events": stats.n_events,
            "late_events": stats.n_late_redirected + stats.n_late_dropped,
            "windows": stats.n_windows,
            "published_windows": stats.n_emitted_windows,
            "deferred_windows": stats.n_deferred_windows,
            "unpublished_members": stats.n_unpublished_members,
        }
        return Outcome(seconds, latencies, windows, counters)

    def check(self, inputs, outcome):
        problems = []
        published = set()
        for window in outcome.result:
            if window.emitted:
                groups = list(window.dataset)
                problems += [f"window {window.index}: {p}" for p in check_groups(groups)]
                published.update(m for fp in groups for m in fp.members)
        missing = set(inputs["dataset"].uids) - published
        if missing or outcome.counters["unpublished_members"]:
            problems.append(f"{len(missing)} input subscribers were never published")
        if outcome.counters["published_windows"] < self.min_windows:
            problems.append(
                f"{outcome.counters['published_windows']} windows published, "
                f"fewer than {self.min_windows}"
            )
        return problems

    def published(self, inputs, outcome):
        """Each subscriber's published samples, across every window that holds them.

        A subscriber sits in one group per window, so each original
        sample is matched against the union of its groups' samples.
        """
        from repro.core.dataset import FingerprintDataset
        from repro.core.fingerprint import Fingerprint

        rows = defaultdict(list)
        for window in outcome.result:
            for fp in window.dataset:
                for member in fp.members:
                    rows[member].append(fp.data)
        return FingerprintDataset(
            (Fingerprint(uid, np.vstack(rows[uid])) for uid in inputs["dataset"].uids if rows[uid]),
            name="stream-published",
        )


@dataclass(frozen=True)
class Measure(Workload):
    """``kgap(k=2)``: the dense pairwise stretch matrix plus nearest neighbours."""

    def call(self, inputs, probes):
        kgap = module("repro.core.kgap").kgap
        t0 = time.perf_counter()
        result = kgap(inputs["dataset"], k=K, compute=self.compute())
        seconds = time.perf_counter() - t0
        n = result.n
        return Outcome(
            seconds,
            [seconds],
            result,
            {"pairs": n * (n - 1) // 2},
            extra={"matrix": probes.matrices[-1]},
        )

    def check(self, inputs, outcome):
        problems = []
        matrix = outcome.extra["matrix"]
        result = outcome.result
        n = len(inputs["dataset"])
        off = ~np.eye(n, dtype=bool)
        if matrix.shape != (n, n) or not np.array_equal(matrix, matrix.T):
            problems.append("stretch matrix is not a symmetric n x n matrix")
        elif not (np.isinf(np.diag(matrix)).all() and np.isfinite(matrix[off]).all()):
            problems.append("stretch matrix diagonal is not +inf or an off-diagonal entry is not finite")
        elif matrix[off].min() < 0.0 or matrix[off].max() > 1.0:
            problems.append("stretch efforts outside [0, 1]")
        elif not np.array_equal(result.gaps, matrix.min(axis=1)):
            problems.append("k-gaps differ from the row minima of the stretch matrix")
        if (result.neighbor_indices[:, 0] == np.arange(n)).any():
            problems.append("a fingerprint is its own nearest neighbour")
        return problems

    def digest(self, outcome):
        matrix = np.ascontiguousarray(outcome.extra["matrix"], dtype=np.float64)
        return hashlib.sha256(matrix.tobytes()).hexdigest()

    def published(self, inputs, outcome):
        """Each subscriber merged with the neighbour its k-gap prices.

        The measure publishes no groups; the Table 2 error of merging
        every fingerprint with its nearest neighbour is the accuracy
        the k-gap stands for.
        """
        from repro.core.config import GloveConfig
        from repro.core.dataset import FingerprintDataset
        from repro.core.fingerprint import Fingerprint
        from repro.core.merge import merge_fingerprints
        from repro.core.reshape import reshape_fingerprint

        config = GloveConfig(k=K)
        fps = list(inputs["dataset"])
        nearest = outcome.result.neighbor_indices[:, 0]
        merged = (
            reshape_fingerprint(merge_fingerprints(fp, fps[int(j)], config.stretch))
            for fp, j in zip(fps, nearest)
        )
        return FingerprintDataset(
            (Fingerprint(fp.uid, m.data) for fp, m in zip(fps, merged)),
            name="measure-nearest-merge",
        )


#: The benchmark's workloads by name; sizes are fixed here and in spec.json.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Batch("batch-1200", users=1200, days=2),
        Sharded("sharded-3000", users=3000, days=2),
        Stream("stream-200", users=200, days=7),
        Measure("measure-1200", users=1200, days=2),
    )
}
