"""Pluggable stretch-compute engine: the substrate of the GLOVE hot loop.

The paper offloads GLOVE's O(|M|^2 n-bar^2) Eq. 10 evaluations to a
CUDA GPU (Section 6.3).  This module makes the compute substrate a
first-class, swappable subsystem instead of logic inlined into the
algorithm:

* :class:`SlotStore` owns the padded fingerprint tensors and the slot
  lifecycle (append/retire) shared by every backend;
* :class:`StretchBackend` implementations execute the bulk Eq. 10
  kernels — ``numpy`` (chunked broadcasting), ``process`` (multi-core
  pool, absorbed from the former ``repro.core.parallel`` API),
  ``compiled`` (numba-JIT scalar kernels, optional ``[compiled]``
  extra) and ``auto`` (workload-size dispatch, preferring the compiled
  tier inline when importable); new tiers (sharded, GPU) register
  through :func:`register_backend`;
* :class:`StretchEngine` ties a store to a backend and adds the cheap
  bounding-box lower bounds on fingerprint stretch that let callers
  prune exact evaluations which provably cannot beat a current best.

All backends run the identical kernel per (probe, target) pair, so
results are byte-identical regardless of backend, chunking or worker
count; see DESIGN.md for the invariants.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig, env_int
from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import (
    PaddedFingerprints,
    ProbeBatch,
    many_vs_all,
    many_vs_some,
    one_vs_all,
)
from repro.core.sample import DT, DX, DY, NCOLS, T, X, Y

# ----------------------------------------------------------------------
# Process-wide default compute configuration
# ----------------------------------------------------------------------
_default_compute = ComputeConfig()


def get_default_compute() -> ComputeConfig:
    """The process-wide :class:`ComputeConfig` used when none is given."""
    return _default_compute


def set_default_compute(compute: ComputeConfig) -> ComputeConfig:
    """Install a new process-wide default compute config; returns the old one.

    Entry points (``glove-repro``, the ``glove`` CLI, the benchmark
    suite) call this once at start-up so that every internal
    :func:`repro.core.glove.glove` / k-gap matrix build picks up the
    selected backend without threading a parameter through the thirteen
    experiment modules.
    """
    global _default_compute
    old = _default_compute
    _default_compute = compute
    return old


def _effective_workers(compute: ComputeConfig) -> int:
    if compute.workers is not None:
        return compute.workers
    return min(os.cpu_count() or 1, 8)


def _effective_kernel_threads(compute: ComputeConfig) -> int:
    """Resolved intra-batch thread count of the compiled tier.

    The explicit config field wins; otherwise the
    ``REPRO_KERNEL_THREADS`` environment knob applies (default 1).
    ``auto`` (flag or env) resolves to the machine's CPU count, so a
    1-CPU container never splits batches — the large_n sweep measured
    18.454 s → 23.908 s going 1→8 threads there (BENCH_glove.json).
    The env knob degrades to 1 on other malformed values — only the
    config field / CLI flag validates strictly (DESIGN.md D6).
    """
    if compute.kernel_threads == "auto":
        return max(1, os.cpu_count() or 1)
    if compute.kernel_threads is not None:
        return int(compute.kernel_threads)
    if os.environ.get("REPRO_KERNEL_THREADS", "").strip().lower() == "auto":
        return max(1, os.cpu_count() or 1)
    return max(1, env_int("REPRO_KERNEL_THREADS", 1))


def grow_array(arr: np.ndarray, capacity: int, fill=0) -> np.ndarray:
    """Return ``arr`` grown to ``capacity`` rows, new rows set to ``fill``.

    Shared by the slot store, the engine's pruning summaries and the
    GLOVE nearest-neighbour cache so capacity growth follows one policy.
    """
    if arr.shape[0] >= capacity:
        return arr
    out = np.full((capacity,) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: arr.shape[0]] = arr
    return out


def _owned_addresses(*buffers) -> Optional[Tuple[int, ...]]:
    """Raw addresses of ``(array, dtype)`` buffers on the cc tier, else None.

    The owners of long-lived buffers (the slot store's tensors, the
    engine's bound summaries) call this wherever they allocate or grow
    them and keep the result next to the buffers, so a cc crossing
    passes stored ints instead of resolving every address again.  An
    address is replaced together with its buffer and dies with its
    owner (DESIGN.md D9, "Crossing cost").  The numba and NumPy tiers
    take the arrays themselves.
    """
    if kernels.COMPILED_TIER != "cc":
        return None
    # Already imported: kernels bound the cc tier through it.
    from repro.core import _ckernel

    return tuple(_ckernel.address(a, dtype) for a, dtype in buffers)


# ----------------------------------------------------------------------
# Slot store: padded tensors + slot lifecycle
# ----------------------------------------------------------------------
class SlotStore:
    """Growable padded tensor of fingerprints with slot lifecycle.

    Duck-types the :class:`repro.core.pairwise.PaddedFingerprints`
    interface (``data``, ``mask``, ``lengths``, ``counts``) so the bulk
    kernels can address live slots directly while slots are appended
    (merge products) and retired (merged-away parents).

    Merged fingerprints never have more samples than their shorter
    parent, so the per-slot sample capacity ``m_max`` is fixed by the
    initial population; the slot capacity grows geometrically on demand.
    """

    def __init__(self, fingerprints: Sequence[Fingerprint]):
        fps = list(fingerprints)
        if not fps:
            raise ValueError("cannot build a slot store from zero fingerprints")
        if any(fp.m == 0 for fp in fps):
            raise ValueError("cannot store fingerprints with zero samples")
        n = len(fps)
        # n inputs + at most n-1 merge products + one leftover fold.
        capacity = 2 * n
        m_max = max(fp.m for fp in fps)
        self.data = np.zeros((capacity, m_max, NCOLS), dtype=np.float64)
        self.mask = np.zeros((capacity, m_max), dtype=bool)
        self.lengths = np.zeros(capacity, dtype=np.int64)
        self.counts = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.fps: List[Optional[Fingerprint]] = [None] * capacity
        self.size = 0
        self._resolve()
        for fp in fps:
            self.append(fp)

    @property
    def capacity(self) -> int:
        """Currently allocated slot capacity."""
        return self.data.shape[0]

    @property
    def m_max(self) -> int:
        """Per-slot sample capacity."""
        return self.data.shape[1]

    def _grow(self) -> None:
        new_cap = max(self.capacity + 1, self.capacity * 3 // 2)
        for name in ("data", "mask", "lengths", "counts", "alive"):
            setattr(self, name, grow_array(getattr(self, name), new_cap))
        self.fps.extend([None] * (new_cap - len(self.fps)))
        self._resolve()

    def _resolve(self) -> None:
        # The cc addresses of (data, lengths, counts), or None.
        self.addrs = _owned_addresses(
            (self.data, np.float64), (self.lengths, np.int64), (self.counts, np.int64)
        )

    def append(self, fp: Fingerprint) -> int:
        """Store a fingerprint in the next free slot; returns the slot id."""
        if fp.m > self.m_max:
            raise ValueError(
                f"fingerprint {fp.uid!r} has {fp.m} samples, exceeding the "
                f"per-slot capacity {self.m_max}"
            )
        if self.size == self.capacity:
            self._grow()
        slot = self.size
        self.data[slot, : fp.m] = fp.data
        self.mask[slot, : fp.m] = True
        self.lengths[slot] = fp.m
        self.counts[slot] = fp.count
        self.alive[slot] = True
        self.fps[slot] = fp
        self.size += 1
        return slot

    def retire(self, slot: int) -> None:
        """Mark a slot dead (its fingerprint was merged away)."""
        if not self.alive[slot]:
            raise ValueError(f"slot {slot} is not alive")
        self.alive[slot] = False

    def probe(self, slot: int) -> np.ndarray:
        """The trimmed ``(m, 6)`` sample array of a slot."""
        return self.data[slot, : self.lengths[slot]]

    def view(self) -> "PaddedFingerprints":
        """A packed view of the first ``size`` slots (shared memory)."""
        packed = PaddedFingerprints.__new__(PaddedFingerprints)
        packed.data = self.data[: self.size]
        packed.mask = self.mask[: self.size]
        packed.lengths = self.lengths[: self.size]
        packed.counts = self.counts[: self.size]
        packed.uids = [fp.uid if fp is not None else "" for fp in self.fps[: self.size]]
        return packed

    def __len__(self) -> int:
        return self.size


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class StretchBackend(abc.ABC):
    """Executes bulk Eq. 10 evaluations against a packed store.

    Implementations must be *value-transparent*: every (probe, target)
    pair goes through the same floating-point kernel, so any two
    backends return byte-identical arrays for the same inputs.
    """

    name: str = "?"

    #: True when the backend's exact kernel is cheap enough that the
    #: engine's level-1 bucket bounds cost more to compute than the
    #: exact evaluations they would prune.  Callers walking candidates
    #: may drop that refinement level — pruning tightness never changes
    #: outputs, only which evaluations run (DESIGN.md D7/D9).
    fast_exact: bool = False

    #: True when the backend offers the fused in-kernel bound-and-prune
    #: entries (:meth:`bounded_many_vs_all` / :meth:`bounded_many_vs_some`,
    #: DESIGN.md D13).  The engine's walkers switch to them when pruning
    #: is enabled; tiers without the entries keep the Python-side walk.
    supports_bounded: bool = False

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        self.compute = compute
        self.stretch = stretch
        #: Python→kernel transitions: one per kernel invocation (a
        #: batched native call moving P probes still counts one).
        self.n_boundary_crossings = 0
        #: Probe rows dispatched, across all entry points.
        self.n_probe_dispatches = 0
        #: Probe rows that went through a *batched* multi-probe kernel
        #: entry (native ``many_vs_all``/``many_vs_some``); zero on
        #: tiers that fall back to per-probe loops.
        self.n_batched_probes = 0
        #: (probe, target) pairs whose exact evaluation the fused
        #: bounded entries skipped in-kernel; zero on tiers without
        #: them.
        self.n_bound_pruned = 0

    def dispatch_counters(self) -> Tuple[int, int, int, int]:
        """``(crossings, probe_dispatches, batched_probes, bound_pruned)``.

        Composite backends override this to aggregate their children so
        a silent per-probe fallback is visible in run stats instead of
        only in wall time.
        """
        return (
            self.n_boundary_crossings,
            self.n_probe_dispatches,
            self.n_batched_probes,
            self.n_bound_pruned,
        )

    @abc.abstractmethod
    def one_vs_all(
        self,
        probe_data: np.ndarray,
        probe_count: int,
        packed,
        targets: np.ndarray,
    ) -> np.ndarray:
        """Eq. 10 efforts from one probe to the given target slots."""

    @abc.abstractmethod
    def pairwise_matrix(self, packed) -> np.ndarray:
        """Full symmetric ``Delta`` matrix with ``+inf`` diagonal."""

    def many_vs_all(
        self,
        probes: Sequence[np.ndarray],
        probe_counts: Sequence[int],
        packed,
        targets: np.ndarray,
    ) -> np.ndarray:
        """Eq. 10 efforts from several probes to one shared target set.

        Returns a ``(P, len(targets))`` matrix whose row ``p`` equals
        :meth:`one_vs_all` of probe ``p`` (bitwise).  The default stacks
        per-probe rows through the subclass's own :meth:`one_vs_all`,
        so every backend stays value-transparent; tiers with a cheaper
        multi-probe path (shared target gathers) override it.
        """
        targets = np.asarray(targets, dtype=np.int64)
        if not len(probes):
            return np.empty((0, targets.size), dtype=np.float64)
        return np.stack(
            [
                self.one_vs_all(p, int(c), packed, targets)
                for p, c in zip(probes, probe_counts)
            ]
        )

    def many_vs_some(
        self,
        probes: Sequence[np.ndarray],
        probe_counts: Sequence[int],
        packed,
        targets_list: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Ragged multi-probe dispatch: probe ``p`` vs its own subset.

        Entry ``p`` of the result is bitwise equal to :meth:`one_vs_all`
        of probe ``p`` against ``targets_list[p]``.  The batched merge
        frontier in :mod:`repro.core.glove` uses this to coalesce all
        refresh scans of one iteration into a single dispatch.
        """
        out = []
        for p, c, t in zip(probes, probe_counts, targets_list):
            t = np.asarray(t, dtype=np.int64)
            if t.size == 0:
                out.append(np.empty(0, dtype=np.float64))
            else:
                out.append(self.one_vs_all(p, int(c), packed, t))
        return out

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class NumpyBackend(StretchBackend):
    """Single-process chunked-broadcasting backend (the default tier)."""

    name = "numpy"

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += 1
        return one_vs_all(
            probe_data,
            probe_count,
            packed,
            self.stretch,
            indices=targets,
            chunk=self.compute.chunk,
        )

    def many_vs_all(self, probes, probe_counts, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        if not len(probes):
            return np.empty((0, targets.size), dtype=np.float64)
        # The broadcast kernel shares target gathers across probes but
        # still enters the chunked kernel once per probe row.
        self.n_boundary_crossings += len(probes)
        self.n_probe_dispatches += len(probes)
        return many_vs_all(
            probes, probe_counts, packed, self.stretch,
            indices=targets, chunk=self.compute.chunk,
        )

    def many_vs_some(self, probes, probe_counts, packed, targets_list):
        self.n_boundary_crossings += len(probes)
        self.n_probe_dispatches += len(probes)
        return many_vs_some(
            probes, probe_counts, packed, targets_list,
            self.stretch, chunk=self.compute.chunk,
        )

    def pairwise_matrix(self, packed):
        n = len(packed)
        mat = np.full((n, n), np.inf, dtype=np.float64)
        for i in range(n - 1):
            targets = np.arange(i + 1, n)
            vals = self.one_vs_all(
                packed.data[i, : packed.lengths[i]], int(packed.counts[i]), packed, targets
            )
            mat[i, i + 1 :] = vals
            mat[i + 1 :, i] = vals
        return mat


# Worker-side state for matrix builds, installed once per process by the
# pool initializer (the packed tensors are shipped a single time).
_WORKER_PACKED: Optional[PaddedFingerprints] = None
_WORKER_STRETCH: Optional[StretchConfig] = None
_WORKER_CHUNK: int = 0


def _matrix_init(data, mask, lengths, counts, stretch, chunk) -> None:
    global _WORKER_PACKED, _WORKER_STRETCH, _WORKER_CHUNK
    packed = PaddedFingerprints.__new__(PaddedFingerprints)
    packed.data = data
    packed.mask = mask
    packed.lengths = lengths
    packed.counts = counts
    packed.uids = [""] * data.shape[0]
    _WORKER_PACKED = packed
    _WORKER_STRETCH = stretch
    _WORKER_CHUNK = chunk


def _matrix_row_block(rows: np.ndarray) -> List[np.ndarray]:
    packed = _WORKER_PACKED
    n = len(packed)
    out = []
    for i in rows:
        i = int(i)
        targets = np.arange(i + 1, n)
        if targets.size == 0:
            out.append(np.empty(0))
            continue
        probe = packed.data[i, : packed.lengths[i]]
        out.append(
            one_vs_all(
                probe,
                int(packed.counts[i]),
                packed,
                _WORKER_STRETCH,
                indices=targets,
                chunk=_WORKER_CHUNK,
            )
        )
    return out


def _ova_shard(args) -> np.ndarray:
    """Stateless one-vs-all shard: all tensors travel with the task."""
    probe_data, probe_count, data, mask, lengths, counts, stretch, chunk = args
    packed = PaddedFingerprints.__new__(PaddedFingerprints)
    packed.data = data
    packed.mask = mask
    packed.lengths = lengths
    packed.counts = counts
    packed.uids = [""] * data.shape[0]
    return one_vs_all(
        probe_data, probe_count, packed, stretch,
        indices=np.arange(data.shape[0]), chunk=chunk,
    )


class ProcessBackend(StretchBackend):
    """Multi-core tier: Eq. 10 evaluations sharded over a process pool.

    Full matrix builds ship the packed tensors to each worker once (pool
    initializer) and shard probe rows in blocks; large one-vs-all calls
    shard their target set with stateless tasks.  Small calls run inline
    on the NumPy kernel — below
    :attr:`~repro.core.config.ComputeConfig.parallel_targets_threshold`
    the per-call pool overhead exceeds the kernel time.
    """

    name = "process"

    #: Probe rows per matrix-build task.
    MATRIX_BLOCK = 16

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        super().__init__(compute, stretch)
        self.workers = _effective_workers(compute)
        self._pool: Optional[ProcessPoolExecutor] = None

    def _shard_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        self.n_probe_dispatches += 1
        if self.workers <= 1 or targets.size < self.compute.parallel_targets_threshold:
            self.n_boundary_crossings += 1
            return one_vs_all(
                probe_data, probe_count, packed, self.stretch,
                indices=targets, chunk=self.compute.chunk,
            )
        shards = np.array_split(targets, self.workers)
        shards = [s for s in shards if s.size]
        self.n_boundary_crossings += len(shards)
        tasks = [
            (
                probe_data,
                probe_count,
                packed.data[s],
                packed.mask[s],
                packed.lengths[s],
                packed.counts[s],
                self.stretch,
                self.compute.chunk,
            )
            for s in shards
        ]
        results = list(self._shard_pool().map(_ova_shard, tasks))
        return np.concatenate(results)

    def pairwise_matrix(self, packed):
        n = len(packed)
        if n < 4 or self.workers <= 1:
            return NumpyBackend(self.compute, self.stretch).pairwise_matrix(packed)
        mat = np.full((n, n), np.inf, dtype=np.float64)
        blocks = [
            np.arange(s, min(s + self.MATRIX_BLOCK, n - 1))
            for s in range(0, n - 1, self.MATRIX_BLOCK)
        ]
        # A dedicated pool per build: the initializer broadcast ties the
        # workers to this packed snapshot.
        with ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_matrix_init,
            initargs=(
                packed.data,
                packed.mask,
                packed.lengths,
                packed.counts,
                self.stretch,
                self.compute.chunk,
            ),
        ) as pool:
            for rows, results in zip(blocks, pool.map(_matrix_row_block, blocks)):
                for i, vals in zip(rows, results):
                    i = int(i)
                    if vals.size:
                        mat[i, i + 1 :] = vals
                        mat[i + 1 :, i] = vals
        return mat

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class CompiledBackend(StretchBackend):
    """Compiled kernel tier over the same padded tensor layout.

    Wraps the accelerated :mod:`repro.core.kernels` binding — numba
    JIT with the ``[compiled]`` packaging extra, otherwise a shared
    library built with the system C compiler (the ``cc`` tier, see
    :mod:`repro.core._ckernel`).  Byte-identical to the NumPy
    reference by construction — the scalar kernel replicates the
    broadcast kernel's operation order including NumPy's pairwise
    summation (DESIGN.md D9) — so selecting it changes wall time only,
    never a single output bit.
    """

    name = "compiled"
    fast_exact = True
    supports_bounded = True

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        super().__init__(compute, stretch)
        if not kernels.COMPILED_AVAILABLE:
            raise RuntimeError(
                "backend 'compiled' has no accelerated binding: numba is not "
                "importable (install the [compiled] extra: pip install "
                "'glove-repro[compiled]') and no system C compiler is "
                "available; select the 'numpy' / 'auto' backend instead"
            )
        self.kernel_threads = _effective_kernel_threads(compute)
        self._threads: Optional[ThreadPoolExecutor] = None

    def _args(self):
        cfg = self.stretch
        return cfg.w_sigma, cfg.w_tau, cfg.phi_max_sigma_m, cfg.phi_max_tau_min

    def _thread_pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(max_workers=self.kernel_threads)
        return self._threads

    def _probe_slices(self, n_probes: int) -> List[Tuple[int, int]]:
        """Contiguous ``[start, end)`` sub-batches for the thread splitter.

        Probes are mutually independent in the batched kernels (each
        (probe, target) pair re-zeroes its scratch; see DESIGN.md D11),
        so splitting a batch into contiguous slices — whatever the
        count — reproduces the unsplit call bit for bit.  The split
        only decides which GIL-released native call computes each row.
        """
        nt = min(self.kernel_threads, n_probes)
        if nt <= 1:
            return [(0, n_probes)]
        step = -(-n_probes // nt)
        return [(s, min(s + step, n_probes)) for s in range(0, n_probes, step)]

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += 1
        return kernels.one_vs_all_arrays(
            np.ascontiguousarray(probe_data), float(probe_count),
            packed.data, packed.lengths, packed.counts, targets, *self._args(),
        )

    def many_vs_all(self, probes, probe_counts, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        P = len(probes)
        if P == 0:
            return np.empty((0, targets.size), dtype=np.float64)
        batch = ProbeBatch(probes, probe_counts)
        slices = self._probe_slices(P)
        self.n_boundary_crossings += len(slices)
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        args = self._args()

        def run(s: int, e: int) -> np.ndarray:
            return kernels.many_vs_all_arrays(
                batch.data[s:e], batch.lengths[s:e], batch.counts[s:e],
                packed.data, packed.lengths, packed.counts, targets, *args,
            )

        if len(slices) == 1:
            return run(0, P)
        out = np.empty((P, targets.size), dtype=np.float64)
        futures = [(s, self._thread_pool().submit(run, s, e)) for s, e in slices]
        for s, fut in futures:
            rows = fut.result()
            out[s : s + rows.shape[0]] = rows
        return out

    def many_vs_some(self, probes, probe_counts, packed, targets_list):
        P = len(probes)
        if P == 0:
            return []
        t_arrays = [np.asarray(t, dtype=np.int64) for t in targets_list]
        offsets = np.zeros(P + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_arrays], out=offsets[1:])
        total = int(offsets[-1])
        flat_out = np.empty(total, dtype=np.float64)
        if total:
            flat_targets = np.concatenate(t_arrays)
            batch = ProbeBatch(probes, probe_counts)
            # Slices with no targets dispatch nothing (the frontier may
            # batch probes whose candidate lists all emptied).
            slices = [
                (s, e) for s, e in self._probe_slices(P) if offsets[e] > offsets[s]
            ]
            self.n_boundary_crossings += len(slices)
            args = self._args()

            def run(s: int, e: int) -> np.ndarray:
                # Rebase the CSR offsets so each sub-batch addresses its
                # own flat slice starting at zero.
                return kernels.many_vs_some_arrays(
                    batch.data[s:e], batch.lengths[s:e], batch.counts[s:e],
                    packed.data, packed.lengths, packed.counts,
                    flat_targets[offsets[s] : offsets[e]],
                    np.ascontiguousarray(offsets[s : e + 1] - offsets[s]),
                    *args,
                )

            if len(slices) == 1:
                s, e = slices[0]
                flat_out[offsets[s] : offsets[e]] = run(s, e)
            else:
                futures = [
                    (s, e, self._thread_pool().submit(run, s, e)) for s, e in slices
                ]
                for s, e, fut in futures:
                    flat_out[offsets[s] : offsets[e]] = fut.result()
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        return [flat_out[offsets[p] : offsets[p + 1]] for p in range(P)]

    def pairwise_matrix(self, packed):
        self.n_boundary_crossings += 1
        self.n_probe_dispatches += len(packed)
        return kernels.pairwise_matrix_arrays(
            packed.data, packed.lengths, packed.counts, *self._args()
        )

    def bounded_many_vs_all(
        self, probe_slots, store, bounds, targets, thresholds, owned=None
    ):
        """Fused bound-and-prune argmin sweep (DESIGN.md D13).

        Per probe slot, returns the running-best ``(min, argmin)`` over
        ``targets`` (self-pairs skipped in-kernel) plus the count of
        pairs whose exact evaluation the inline level-0/level-1 bounds
        pruned.  Probes are independent, so the thread splitter applies
        unchanged.  ``owned`` carries the cc addresses of the store and
        ``bounds`` buffers when their owner resolved them
        (:meth:`StretchEngine._owned`).
        """
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        targets = np.ascontiguousarray(targets, dtype=np.int64)
        P = probe_slots.shape[0]
        if P == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )
        hull, bucket_hull, bucket_occ = bounds
        thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
        slices = self._probe_slices(P)
        self.n_boundary_crossings += len(slices)
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        args = self._args()
        # Only the cc wrappers take owner-held addresses; the numba
        # entries take the arrays alone.
        kw = {} if owned is None else {"owned": owned}

        def run(s: int, e: int):
            return kernels.bounded_many_vs_all_arrays(
                probe_slots[s:e], store.data, store.lengths, store.counts,
                hull, bucket_hull, bucket_occ, targets, thresholds[s:e], *args, **kw,
            )

        if len(slices) == 1:
            best, best_idx, pruned = run(0, P)
        else:
            best = np.empty(P, dtype=np.float64)
            best_idx = np.empty(P, dtype=np.int64)
            pruned = np.zeros(P, dtype=np.int64)
            futures = [(s, self._thread_pool().submit(run, s, e)) for s, e in slices]
            for s, fut in futures:
                b, bi, pr = fut.result()
                best[s : s + b.shape[0]] = b
                best_idx[s : s + b.shape[0]] = bi
                pruned[s : s + b.shape[0]] = pr
        self.n_bound_pruned += int(pruned.sum())
        return best, best_idx, pruned

    def bounded_many_vs_some(
        self, probe_slots, store, bounds, targets_list, thresholds,
        reverse_list, best_vals, owned=None,
    ):
        """Fused bound-and-prune row sweep with reverse-aware skipping.

        Returns per-probe rows with ``+inf`` sentinels at pruned
        positions plus per-probe pruned counts.  ``reverse`` pairs are
        only skipped when the bound also clears the target's cached
        best (``best_vals``), keeping reverse propagation
        value-transparent (DESIGN.md D13).  ``owned`` is as in
        :meth:`bounded_many_vs_all`.
        """
        probe_slots = np.ascontiguousarray(probe_slots, dtype=np.int64)
        P = probe_slots.shape[0]
        pruned = np.zeros(P, dtype=np.int64)
        if P == 0:
            return [], pruned
        t_arrays = [np.asarray(t, dtype=np.int64) for t in targets_list]
        offsets = np.zeros(P + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_arrays], out=offsets[1:])
        total = int(offsets[-1])
        flat_out = np.empty(total, dtype=np.float64)
        if total:
            hull, bucket_hull, bucket_occ = bounds
            flat_targets = np.concatenate(t_arrays)
            flat_reverse = np.concatenate(
                [np.asarray(r, dtype=bool) for r in reverse_list]
            )
            thresholds = np.ascontiguousarray(thresholds, dtype=np.float64)
            best_vals = np.ascontiguousarray(best_vals, dtype=np.float64)
            slices = [
                (s, e) for s, e in self._probe_slices(P) if offsets[e] > offsets[s]
            ]
            self.n_boundary_crossings += len(slices)
            args = self._args()
            kw = {} if owned is None else {"owned": owned}

            def run(s: int, e: int):
                return kernels.bounded_many_vs_some_arrays(
                    probe_slots[s:e], store.data, store.lengths, store.counts,
                    hull, bucket_hull, bucket_occ,
                    flat_targets[offsets[s] : offsets[e]],
                    np.ascontiguousarray(offsets[s : e + 1] - offsets[s]),
                    thresholds[s:e],
                    flat_reverse[offsets[s] : offsets[e]],
                    best_vals, *args, **kw,
                )

            if len(slices) == 1:
                s, e = slices[0]
                flat_out[offsets[s] : offsets[e]], pruned[s:e] = run(s, e)
            else:
                futures = [
                    (s, e, self._thread_pool().submit(run, s, e)) for s, e in slices
                ]
                for s, e, fut in futures:
                    flat_out[offsets[s] : offsets[e]], pruned[s:e] = fut.result()
        self.n_probe_dispatches += P
        self.n_batched_probes += P
        self.n_bound_pruned += int(pruned.sum())
        return [flat_out[offsets[p] : offsets[p + 1]] for p in range(P)], pruned

    def close(self) -> None:
        if self._threads is not None:
            self._threads.shutdown()
            self._threads = None


class AutoBackend(StretchBackend):
    """Workload-size dispatch between the registered compute tiers.

    Small workloads stay on the inline kernels — the compiled tier when
    the ``[compiled]`` extra is importable, the NumPy reference
    otherwise (both byte-identical, so the preference is invisible in
    results).  Full matrix builds over at least
    ``parallel_matrix_threshold`` fingerprints and one-vs-all calls
    over at least ``parallel_targets_threshold`` targets go to the
    process pool (when more than one worker is available).
    """

    name = "auto"

    def __init__(self, compute: ComputeConfig, stretch: StretchConfig):
        super().__init__(compute, stretch)
        self.workers = _effective_workers(compute)
        self._numpy = NumpyBackend(compute, stretch)
        # Inline tier: the compiled kernels when an accelerated binding
        # exists (numba extra or system-cc build), the NumPy reference
        # otherwise.  Byte-identity across tiers (enforced by the
        # parity suite) keeps the switch value-transparent.
        if kernels.COMPILED_AVAILABLE:
            self._inline: StretchBackend = CompiledBackend(compute, stretch)
            self.fast_exact = True
            self.supports_bounded = True
        else:
            self._inline = self._numpy
        self._process: Optional[ProcessBackend] = None

    def _pooled(self) -> ProcessBackend:
        if self._process is None:
            self._process = ProcessBackend(self.compute, self.stretch)
        return self._process

    def _prefer_pool(self, n_pairs_threshold: bool) -> bool:
        """Route to the process pool only when the inline tier is the
        NumPy reference.  At the measured per-pair costs (~0.97 µs
        inline compiled vs ~26 µs pooled, kernel bench row) the
        fork-and-pickle pool never beats the compiled inline tier, so
        workload size alone must not send work there.
        """
        return (
            self._inline is self._numpy
            and self.workers > 1
            and n_pairs_threshold
        )

    def one_vs_all(self, probe_data, probe_count, packed, targets):
        targets = np.asarray(targets, dtype=np.int64)
        if self._prefer_pool(
            targets.size >= self.compute.parallel_targets_threshold
        ):
            return self._pooled().one_vs_all(probe_data, probe_count, packed, targets)
        return self._inline.one_vs_all(probe_data, probe_count, packed, targets)

    def many_vs_all(self, probes, probe_counts, packed, targets):
        return self._inline.many_vs_all(probes, probe_counts, packed, targets)

    def many_vs_some(self, probes, probe_counts, packed, targets_list):
        return self._inline.many_vs_some(probes, probe_counts, packed, targets_list)

    def bounded_many_vs_all(
        self, probe_slots, store, bounds, targets, thresholds, owned=None
    ):
        return self._inline.bounded_many_vs_all(
            probe_slots, store, bounds, targets, thresholds, owned
        )

    def bounded_many_vs_some(
        self, probe_slots, store, bounds, targets_list, thresholds,
        reverse_list, best_vals, owned=None,
    ):
        return self._inline.bounded_many_vs_some(
            probe_slots, store, bounds, targets_list, thresholds,
            reverse_list, best_vals, owned,
        )

    def pairwise_matrix(self, packed):
        if self._prefer_pool(len(packed) >= self.compute.parallel_matrix_threshold):
            return self._pooled().pairwise_matrix(packed)
        return self._inline.pairwise_matrix(packed)

    def dispatch_counters(self) -> Tuple[int, int, int, int]:
        """Aggregate over the delegate tiers.

        Multi-probe calls route to the inline tier unconditionally;
        before these counters that was a *silent* per-probe fallback
        whenever no compiled binding existed — now a batched frontier
        that degraded to P crossings per pass is visible in
        :class:`repro.core.glove.GloveStats` and the kernel benchmark
        row rather than only in wall time.
        """
        children = [self._numpy]
        if self._inline is not self._numpy:
            children.append(self._inline)
        if self._process is not None:
            children.append(self._process)
        crossings = self.n_boundary_crossings
        probes = self.n_probe_dispatches
        batched = self.n_batched_probes
        bound_pruned = self.n_bound_pruned
        for child in children:
            crossings += child.n_boundary_crossings
            probes += child.n_probe_dispatches
            batched += child.n_batched_probes
            bound_pruned += child.n_bound_pruned
        return (crossings, probes, batched, bound_pruned)

    def close(self) -> None:
        if self._inline is not self._numpy:
            self._inline.close()
        if self._process is not None:
            self._process.close()
            self._process = None


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
BackendFactory = Callable[[ComputeConfig, StretchConfig], StretchBackend]

_BACKENDS: Dict[str, BackendFactory] = {
    "numpy": NumpyBackend,
    "process": ProcessBackend,
    "compiled": CompiledBackend,
    "auto": AutoBackend,
}


def available_backends() -> List[str]:
    """Names of the registered compute backends."""
    return sorted(_BACKENDS)


def register_backend(name: str, factory: BackendFactory, overwrite: bool = False) -> None:
    """Register a compute backend under ``name``.

    ``factory(compute, stretch)`` must return a :class:`StretchBackend`.
    This is the extension point for future tiers (sharded, GPU): a
    registered backend is selectable by name through
    :class:`~repro.core.config.ComputeConfig` everywhere — CLI,
    experiment runner, benchmarks.
    """
    if not overwrite and name in _BACKENDS:
        raise ValueError(f"backend {name!r} is already registered")
    _BACKENDS[name] = factory


# Algorithm-level drivers: a backend may take over whole glove() runs
# (the sharded tier partitions the population before any kernel runs,
# which cannot be expressed at the one_vs_all/pairwise_matrix level).
_GLOVE_DRIVERS: Dict[str, Callable] = {}


def register_glove_driver(name: str, driver: Callable, overwrite: bool = False) -> None:
    """Route ``glove()`` runs of backend ``name`` to an algorithm driver.

    ``driver(dataset, config, compute)`` must return a
    :class:`repro.core.glove.GloveResult`.  Kernel-level calls (k-gap
    matrix builds, one-vs-all rows) still go through the backend
    registered under the same name via :func:`register_backend`.
    """
    if not overwrite and name in _GLOVE_DRIVERS:
        raise ValueError(f"glove driver {name!r} is already registered")
    _GLOVE_DRIVERS[name] = driver


def get_glove_driver(name: str) -> Optional[Callable]:
    """The glove driver registered for a backend name, if any."""
    return _GLOVE_DRIVERS.get(name)


def create_backend(
    compute: ComputeConfig, stretch: StretchConfig = StretchConfig()
) -> StretchBackend:
    """Instantiate the backend selected by ``compute.backend``."""
    try:
        factory = _BACKENDS[compute.backend]
    except KeyError:
        raise ValueError(
            f"unknown compute backend {compute.backend!r}; "
            f"registered: {', '.join(available_backends())}"
        ) from None
    return factory(compute, stretch)


def compute_pairwise_matrix(
    fingerprints: Sequence[Fingerprint],
    config: StretchConfig = StretchConfig(),
    compute: Optional[ComputeConfig] = None,
) -> np.ndarray:
    """Full pairwise ``Delta`` matrix through the selected backend.

    The backend-aware counterpart of
    :func:`repro.core.pairwise.pairwise_matrix`; values are
    byte-identical across backends.
    """
    compute = compute if compute is not None else get_default_compute()
    packed = PaddedFingerprints(list(fingerprints))
    with create_backend(compute, config) as backend:
        return backend.pairwise_matrix(packed)


# ----------------------------------------------------------------------
# The engine: store + backend + lower bounds
# ----------------------------------------------------------------------
def _interval_gap(a_lo, a_hi, b_lo, b_hi):
    """Separation between intervals ``[a_lo, a_hi]`` and ``[b_lo, b_hi]``."""
    return np.maximum(0.0, np.maximum(a_lo - b_hi, b_lo - a_hi))


class StretchEngine:
    """Stretch-compute subsystem driving one GLOVE (or k-gap) workload.

    Owns a :class:`SlotStore`, a backend instance, and — when pruning is
    enabled — per-slot bounding-box summaries supporting two levels of
    lower bounds on the fingerprint stretch effort (Eq. 10):

    * **level 0** (:meth:`hull_lower_bounds`): the spatiotemporal gap
      between two slots' global bounding boxes, O(1) per pair;
    * **level 1** (:meth:`bucket_lower_bounds`): the probe's samples
      against the target's per-time-bucket spatial hulls (and vice
      versa, following Eq. 10's longer-side rule), O(m·B) per pair with
      ``B`` a small constant.

    Both bounds never exceed the exact effort (see DESIGN.md for the
    proof sketch), so a caller tracking a current-best value may skip
    the exact kernel for any candidate whose bound is already worse.
    """

    def __init__(
        self,
        fingerprints: Sequence[Fingerprint],
        stretch: StretchConfig = StretchConfig(),
        compute: Optional[ComputeConfig] = None,
    ):
        self.compute = compute if compute is not None else get_default_compute()
        self.stretch = stretch
        self.store = SlotStore(fingerprints)
        self.backend = create_backend(self.compute, stretch)
        self.pruning = self.compute.pruning
        # With a compiled exact kernel the level-1 bucket refinement
        # costs more than the (at most one batch of) evaluations it
        # prunes, so walkers consult this flag and stop at level 0.
        # Bound tightness never changes outputs, only eval counts.
        self.lb1_pruning = self.pruning and not self.backend.fast_exact
        # Fused in-kernel bound-and-prune sweep (DESIGN.md D13): when
        # the backend exposes the bounded entries, walkers hand the
        # whole bound→sort→walk loop to one native call per pass and
        # skip the Python-side bound sweep entirely.
        self.fused_pruning = self.pruning and getattr(
            self.backend, "supports_bounded", False
        )
        if self.pruning:
            self._init_bounds()

    # -- slot lifecycle -------------------------------------------------
    def append(self, fp: Fingerprint) -> int:
        """Add a fingerprint (e.g. a merge product); returns its slot."""
        slot = self.store.append(fp)
        if self.pruning:
            self._ensure_bound_capacity()
            self._summarize(np.array([slot], dtype=np.int64))
        return slot

    def retire(self, slot: int) -> None:
        """Retire a slot whose fingerprint was merged away."""
        self.store.retire(slot)

    # -- exact evaluation ----------------------------------------------
    def row(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Exact Eq. 10 efforts from a live slot to the target slots."""
        targets = np.asarray(targets, dtype=np.int64)
        return self.backend.one_vs_all(
            self.store.probe(slot), int(self.store.counts[slot]), self.store, targets
        )

    def rows(self, slots: Sequence[int], targets: np.ndarray) -> np.ndarray:
        """Exact efforts from several live slots to one shared target set.

        Returns a ``(len(slots), len(targets))`` matrix; row ``p`` is
        bitwise equal to :meth:`row` of ``slots[p]``.
        """
        targets = np.asarray(targets, dtype=np.int64)
        store = self.store
        return self.backend.many_vs_all(
            [store.probe(int(s)) for s in slots],
            [int(store.counts[s]) for s in slots],
            store, targets,
        )

    def rows_some(
        self, slots: Sequence[int], targets_list: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        """Exact efforts from several live slots, each to its own targets.

        The ragged multi-probe dispatch behind the batched merge
        frontier: entry ``p`` is bitwise equal to :meth:`row` of
        ``slots[p]`` against ``targets_list[p]``.
        """
        store = self.store
        return self.backend.many_vs_some(
            [store.probe(int(s)) for s in slots],
            [int(store.counts[s]) for s in slots],
            store, targets_list,
        )

    def pairwise_matrix(self) -> np.ndarray:
        """Full matrix over the currently stored slots."""
        return self.backend.pairwise_matrix(self.store.view())

    # -- fused bound-and-prune dispatch (DESIGN.md D13) -----------------
    def _bounds_pack(self):
        return (self._hull, self._bucket_hull, self._bucket_occ)

    def _owned(self) -> Optional[Tuple[int, ...]]:
        # On the cc tier, the addresses of the store and summary buffers
        # in the bounded entries' argument order, read from their owners
        # at call time; None elsewhere.
        store_addrs = self.store.addrs
        return None if store_addrs is None else store_addrs + self._bound_addrs

    def _thresholds(self, n: int, thresholds) -> np.ndarray:
        if thresholds is None:
            return np.full(n, np.inf, dtype=np.float64)
        return np.ascontiguousarray(thresholds, dtype=np.float64)

    def bounded_argmin(
        self, slots: Sequence[int], targets: np.ndarray, thresholds=None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused ``(min, argmin, pruned)`` per probe slot over ``targets``.

        Requires :attr:`fused_pruning`.  Self-pairs are skipped
        in-kernel; a probe whose exact minimum is not strictly below
        its threshold reports ``(threshold, -1)``.  Without thresholds
        (``+inf``) the result is bitwise the lowest-index argmin of the
        exact :meth:`row` — the in-kernel running best only prunes
        pairs that cannot win (DESIGN.md D13).
        """
        slots_arr = np.ascontiguousarray(slots, dtype=np.int64)
        return self.backend.bounded_many_vs_all(
            slots_arr, self.store, self._bounds_pack(),
            targets, self._thresholds(slots_arr.size, thresholds), self._owned(),
        )

    def bounded_rows_some(
        self,
        slots: Sequence[int],
        targets_list: Sequence[np.ndarray],
        reverse_list: Sequence[np.ndarray],
        best_vals: np.ndarray,
        thresholds=None,
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Fused ragged rows with ``+inf`` sentinels at pruned positions.

        Requires :attr:`fused_pruning`.  Entry ``p`` equals :meth:`row`
        of ``slots[p]`` at every evaluated position; a pair is pruned
        only when its bound exceeds the probe's running best *and* —
        for ``reverse``-flagged targets — is at least the target's
        cached best in ``best_vals``, so reverse propagation sees every
        pair that could update it.
        """
        slots_arr = np.ascontiguousarray(slots, dtype=np.int64)
        return self.backend.bounded_many_vs_some(
            slots_arr, self.store, self._bounds_pack(), targets_list,
            self._thresholds(slots_arr.size, thresholds), reverse_list, best_vals,
            self._owned(),
        )

    # -- pruning summaries ---------------------------------------------
    def _init_bounds(self) -> None:
        store = self.store
        n = store.size
        # The time range of every stored sample, over the padded tensor
        # (exact minima and maxima, so equal to a per-slot reduction).
        valid = store.mask[:n]
        t = store.data[:n, :, T]
        t_lo = float(np.where(valid, t, np.inf).min())
        t_hi = float(np.where(valid, t + store.data[:n, :, DT], -np.inf).max())
        span = max(t_hi - t_lo, 1e-9)
        n_buckets = int(np.ceil(span / self.compute.lb_bucket_minutes))
        n_buckets = int(np.clip(n_buckets, 1, self.compute.lb_max_buckets))
        self._bucket_edges = np.linspace(t_lo, t_hi, n_buckets + 1)
        cap = store.capacity
        # Component-major (struct-of-arrays) layout: row c holds one
        # hull component for every slot, so the level-0 bound sweep
        # gathers six contiguous vectors instead of strided columns.
        self._hull = np.zeros((6, cap), dtype=np.float64)
        self._bucket_hull = np.zeros((cap, n_buckets, 6), dtype=np.float64)
        self._bucket_occ = np.zeros((cap, n_buckets), dtype=bool)
        self._edges_addrs = _owned_addresses((self._bucket_edges, np.float64))
        self._resolve_bounds()
        self._summarize(np.arange(n, dtype=np.int64))

    def _ensure_bound_capacity(self) -> None:
        cap = self.store.capacity
        if self._hull.shape[1] >= cap:
            return
        # The SoA hull grows along columns (slots are axis 1); the
        # shared grow_array helper only grows rows.
        hull = np.zeros((6, cap), dtype=np.float64)
        hull[:, : self._hull.shape[1]] = self._hull
        self._hull = hull
        for name in ("_bucket_hull", "_bucket_occ"):
            setattr(self, name, grow_array(getattr(self, name), cap))
        self._resolve_bounds()

    def _resolve_bounds(self) -> None:
        # The cc addresses of (hull, bucket_hull, bucket_occ), or None.
        self._bound_addrs = _owned_addresses(
            (self._hull, np.float64),
            (self._bucket_hull, np.float64),
            (self._bucket_occ, np.bool_),
        )

    def _summarize(self, slots: np.ndarray) -> None:
        """Compute the hulls and per-bucket hulls of the given slots.

        One native call on an accelerated tier; the NumPy reference,
        slot by slot, otherwise.
        """
        if kernels.COMPILED_TIER is None:
            for slot in slots:
                self._summarize_numpy(int(slot))
            return
        store = self.store
        kw = {}
        if store.addrs is not None:
            kw["owned"] = store.addrs[:2] + self._edges_addrs + self._bound_addrs
        kernels.summarize_slots_arrays(
            store.data, store.lengths, slots, self._bucket_edges,
            self._hull, self._bucket_hull, self._bucket_occ, **kw,
        )

    def _summarize_numpy(self, slot: int) -> None:
        """The NumPy reference of :meth:`_summarize` for one slot."""
        d = self.store.probe(slot)
        x_lo, x_hi = d[:, X], d[:, X] + d[:, DX]
        y_lo, y_hi = d[:, Y], d[:, Y] + d[:, DY]
        t_lo, t_hi = d[:, T], d[:, T] + d[:, DT]
        self._hull[:, slot] = (
            x_lo.min(), x_hi.max(), y_lo.min(), y_hi.max(), t_lo.min(), t_hi.max()
        )
        edges = self._bucket_edges
        # A sample belongs to every bucket its time interval touches
        # (closed bounds, so boundary samples are never orphaned).
        overlap = (t_lo[:, None] <= edges[1:][None, :]) & (t_hi[:, None] >= edges[:-1][None, :])
        occ = overlap.any(axis=0)
        inf = np.inf

        def bucket_min(v):
            return np.where(overlap, v[:, None], inf).min(axis=0)

        bh = self._bucket_hull[slot]
        bh[:, 0] = bucket_min(x_lo)
        bh[:, 1] = -bucket_min(-x_hi)
        bh[:, 2] = bucket_min(y_lo)
        bh[:, 3] = -bucket_min(-y_hi)
        # Clamp occupied time ranges to the bucket: tighter, still valid.
        bh[:, 4] = np.maximum(bucket_min(t_lo), edges[:-1])
        bh[:, 5] = np.minimum(-bucket_min(-t_hi), edges[1:])
        self._bucket_occ[slot] = occ

    # -- lower bounds ---------------------------------------------------
    def hull_lower_bounds(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Level-0 bound: gap between global bounding boxes, O(1)/pair."""
        h = self._hull[:, slot]
        H = self._hull[:, targets]
        gx = _interval_gap(h[0], h[1], H[0], H[1])
        gy = _interval_gap(h[2], h[3], H[2], H[3])
        gt = _interval_gap(h[4], h[5], H[4], H[5])
        cfg = self.stretch
        return cfg.w_sigma * np.minimum((gx + gy) / cfg.phi_max_sigma_m, 1.0) + (
            cfg.w_tau * np.minimum(gt / cfg.phi_max_tau_min, 1.0)
        )

    def hull_lower_bounds_many(
        self, slots: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Level-0 bounds for several probe slots at once: ``(P, T)``.

        Row ``p`` is bitwise equal to :meth:`hull_lower_bounds` of
        ``slots[p]`` (pure elementwise arithmetic), computed in one
        broadcast instead of ``P`` dispatches.
        """
        h = self._hull[:, np.asarray(slots, dtype=np.int64)][:, :, None]  # (6, P, 1)
        H = self._hull[:, targets][:, None, :]  # (6, 1, T)
        gx = _interval_gap(h[0], h[1], H[0], H[1])
        gy = _interval_gap(h[2], h[3], H[2], H[3])
        gt = _interval_gap(h[4], h[5], H[4], H[5])
        cfg = self.stretch
        return cfg.w_sigma * np.minimum((gx + gy) / cfg.phi_max_sigma_m, 1.0) + (
            cfg.w_tau * np.minimum(gt / cfg.phi_max_tau_min, 1.0)
        )

    def bucket_lower_bounds(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Level-1 bound: samples vs per-time-bucket hulls, O(m·B)/pair.

        Follows Eq. 10's direction rule: the mean runs over the longer
        fingerprint's samples (both directions averaged on equal
        lengths), so each direction is bounded with the corresponding
        side's samples against the other side's bucket hulls.
        """
        targets = np.asarray(targets, dtype=np.int64)
        ma = int(self.store.lengths[slot])
        len_t = self.store.lengths[targets]
        a_side = ma >= len_t  # probe is the longer (or equal) side
        b_side = len_t >= ma  # target is the longer (or equal) side
        la = np.zeros(targets.size)
        lb = np.zeros(targets.size)
        if a_side.any():
            la[a_side] = self._lb_probe_samples(slot, targets[a_side])
        if b_side.any():
            lb[b_side] = self._lb_target_samples(slot, targets[b_side])
        out = np.where(
            ma > len_t, la, np.where(len_t > ma, lb, (la + lb) / 2.0)
        )
        return out

    def _sample_bucket_lb(self, s_lo, s_hi, hulls, occ):
        """Per-(sample, bucket) bound; ``inf`` on unoccupied buckets.

        ``s_lo``/``s_hi`` are ``(..., 3)`` interval bounds (x, y, t) and
        ``hulls`` is ``(..., B, 6)``; broadcasting aligns the rest.
        """
        gx = _interval_gap(s_lo[..., 0], s_hi[..., 0], hulls[..., 0], hulls[..., 1])
        gy = _interval_gap(s_lo[..., 1], s_hi[..., 1], hulls[..., 2], hulls[..., 3])
        gt = _interval_gap(s_lo[..., 2], s_hi[..., 2], hulls[..., 4], hulls[..., 5])
        cfg = self.stretch
        lb = cfg.w_sigma * np.minimum((gx + gy) / cfg.phi_max_sigma_m, 1.0) + (
            cfg.w_tau * np.minimum(gt / cfg.phi_max_tau_min, 1.0)
        )
        return np.where(occ, lb, np.inf)

    def _lb_probe_samples(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Mean over probe samples of the min bound to target buckets."""
        d = self.store.probe(slot)
        s_lo = np.stack([d[:, X], d[:, Y], d[:, T]], axis=-1)
        s_hi = np.stack([d[:, X] + d[:, DX], d[:, Y] + d[:, DY], d[:, T] + d[:, DT]], axis=-1)
        ma = d.shape[0]
        n_buckets = self._bucket_hull.shape[1]
        out = np.empty(targets.size)
        block = max(1, (1 << 21) // max(ma * n_buckets, 1))
        for start in range(0, targets.size, block):
            sel = targets[start : start + block]
            hulls = self._bucket_hull[sel][:, None, :, :]  # (C, 1, B, 6)
            occ = self._bucket_occ[sel][:, None, :]  # (C, 1, B)
            lb = self._sample_bucket_lb(
                s_lo[None, :, None, :], s_hi[None, :, None, :], hulls, occ
            )  # (C, ma, B)
            out[start : start + sel.size] = lb.min(axis=2).mean(axis=1)
        return out

    def _lb_target_samples(self, slot: int, targets: np.ndarray) -> np.ndarray:
        """Masked mean over target samples of the min bound to probe buckets.

        Targets are grouped by length so the broadcast work is sliced to
        each block's own maximum sample count; the final mean still sums
        a zero-padded width-``m_max`` array, so every bound value is
        bitwise independent of the block composition (same argument as
        :func:`repro.core.pairwise._chunk_efforts`).
        """
        occ = self._bucket_occ[slot]
        hulls = self._bucket_hull[slot][occ]  # (Bo, 6)
        n_b = hulls.shape[0]
        m_max = self.store.m_max
        out = np.empty(targets.size)
        order = (
            np.argsort(self.store.lengths[targets], kind="stable")
            if targets.size > 1
            else np.arange(targets.size)
        )
        block = max(1, (1 << 21) // max(m_max * n_b, 1))
        for start in range(0, targets.size, block):
            pos = order[start : start + block]
            sel = targets[pos]
            width = int(self.store.lengths[sel].max())
            d = self.store.data[sel, :width]  # (C, W, 6)
            mask = self.store.mask[sel, :width]
            s_lo = np.stack([d[:, :, X], d[:, :, Y], d[:, :, T]], axis=-1)
            s_hi = np.stack(
                [d[:, :, X] + d[:, :, DX], d[:, :, Y] + d[:, :, DY], d[:, :, T] + d[:, :, DT]],
                axis=-1,
            )
            lb = self._sample_bucket_lb(
                s_lo[:, :, None, :], s_hi[:, :, None, :], hulls[None, None, :, :], True
            )  # (C, W, Bo)
            per_sample = np.zeros((sel.size, m_max), dtype=np.float64)
            per_sample[:, :width] = np.where(mask, lb.min(axis=2), 0.0)
            out[pos] = per_sample.sum(axis=1) / self.store.lengths[sel]
        return out

    # -- resource management -------------------------------------------
    def close(self) -> None:
        """Release the backend's pooled resources."""
        self.backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
