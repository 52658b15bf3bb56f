"""The GLOVE k-anonymization algorithm (paper Alg. 1, Section 6).

GLOVE greedily merges the two not-yet-anonymized fingerprints at
minimum fingerprint stretch effort (Eq. 10) until every fingerprint
hides at least ``k`` subscribers:

1. find, for every fingerprint, its nearest not-yet-anonymized
   neighbour under the stretch effort;
2. repeatedly pick the globally closest pair, merge it through
   specialized generalization (Eq. 12-13 with two-stage matching), and
   re-insert the merged fingerprint;
3. a merged fingerprint reaching ``count >= k`` is final and leaves the
   working set.

The loop of Alg. 1 ends when fewer than two non-anonymized fingerprints
remain.  With unfavourable group-size arithmetic a single non-anonymous
fingerprint can be left over; to honour the paper's "k-anonymity of all
fingerprints by design" guarantee, the leftover is merged into its
nearest *finished* group (documented design decision, see DESIGN.md).

Complexity is O(|M|^2 n-bar^2) as in the paper's Section 6.3.  All bulk
Eq. 10 evaluations run on the pluggable
:class:`repro.core.engine.StretchEngine` (the reproduction's stand-in
for the paper's CUDA offload); instead of materializing a dense
``(2n, 2n)`` stretch matrix, the loop keeps one cached nearest
neighbour per live slot (O(n) state) and uses the engine's bounding-box
lower bounds to prune exact evaluations that provably cannot beat a
current best.  The pruning is exact: results are identical, merge for
merge, to an exhaustive search (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.config import ComputeConfig, GloveConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import (
    StretchEngine,
    get_default_compute,
    get_glove_driver,
    grow_array,
)
from repro.core.fingerprint import Fingerprint
from repro.core.merge import merge_fingerprints
# Merges reshape in the same pass (merge_fingerprints(reshape=...)); the
# name stays bound here because perfbench/layers.py traces it.
from repro.core.reshape import reshape_fingerprint  # noqa: F401
from repro.core.suppression import SuppressionStats, suppress_dataset
from repro.obs import get_metrics


@dataclass
class GloveStats:
    """Bookkeeping of one GLOVE run.

    Attributes
    ----------
    n_input_fingerprints:
        Fingerprints in the input dataset.
    n_output_fingerprints:
        Groups in the anonymized output.
    n_merges:
        Pairwise merge operations performed.
    leftover_merged:
        Whether a final non-anonymous leftover had to be folded into an
        already-finished group.
    shards_used:
        Population partitions the run was split into (1 for the
        unsharded path; the ``sharded`` backend records its effective
        shard count here).
    boundary_repaired:
        Per-shard non-anonymous leftovers that the sharded tier's
        cross-shard boundary-repair pass had to re-merge (0 for
        unsharded runs).
    n_exact_evaluations:
        Exact Eq. 10 fingerprint-pair evaluations executed.
    n_pruned_evaluations:
        Candidate pairs skipped because a lower bound proved they could
        not beat the current best (0 when pruning is disabled).
    n_boundary_crossings:
        Python→kernel transitions the run's backend performed (a
        batched native call moving a whole probe batch counts one).
        The dispatch-efficiency denominator: a batched frontier that
        silently degrades to per-probe dispatch shows up here rather
        than only in wall time.
    n_probe_dispatches:
        Probe rows dispatched through the backend, across all entry
        points.  ``n_probe_dispatches / n_boundary_crossings`` is the
        mean probes-per-crossing of the run.
    n_batched_probes:
        Probe rows that went through a batched multi-probe kernel
        entry; 0 when every dispatch was a per-probe call.
    n_bound_pruned:
        (probe, target) pairs whose exact evaluation the backend's
        fused in-kernel bound sweep skipped (DESIGN.md D13); 0 on
        tiers without bounded entries.  These pairs are also counted
        in ``n_pruned_evaluations``.
    suppression:
        Sample-suppression statistics (zero counts when disabled).
    """

    n_input_fingerprints: int = 0
    n_output_fingerprints: int = 0
    n_merges: int = 0
    leftover_merged: bool = False
    shards_used: int = 1
    boundary_repaired: int = 0
    n_exact_evaluations: int = 0
    n_pruned_evaluations: int = 0
    n_boundary_crossings: int = 0
    n_probe_dispatches: int = 0
    n_batched_probes: int = 0
    n_bound_pruned: int = 0
    suppression: Optional[SuppressionStats] = None

    def record_metrics(self, registry) -> None:
        """Accumulate this run's counters into a metrics registry (D12).

        Uses ``inc`` (not absolute writes): one process may run many
        GLOVE invocations (every stream window, every shard), and the
        registry keeps the process-wide totals across them.
        """
        registry.counter("glove.runs").inc()
        registry.counter("glove.merges").inc(self.n_merges)
        registry.counter("glove.exact_evaluations").inc(self.n_exact_evaluations)
        registry.counter("glove.pruned_evaluations").inc(self.n_pruned_evaluations)
        registry.counter("engine.boundary_crossings").inc(self.n_boundary_crossings)
        registry.counter("engine.probe_dispatches").inc(self.n_probe_dispatches)
        registry.counter("engine.batched_probes").inc(self.n_batched_probes)
        registry.counter("engine.bound_pruned").inc(self.n_bound_pruned)


@dataclass(frozen=True)
class GloveResult:
    """Anonymized dataset plus run statistics."""

    dataset: FingerprintDataset
    stats: GloveStats
    config: GloveConfig


#: Candidates per exact-kernel batch in the pruned best-first scans.
_SCAN_BATCH = 32

#: Probe slots per multi-probe block in the triangular initial build.
#: Larger blocks coalesce more dispatches but see staler candidate
#: bests (more non-prunable evaluations); 8 balances the two.
_BUILD_BLOCK = 8


class _NearestNeighbours:
    """Lazy per-slot nearest-neighbour cache over a stretch engine.

    For every pending slot ``r`` it caches ``best_val[r]`` /
    ``best_idx[r]``: the minimum stretch effort to any other pending
    slot and that slot's id (ties broken toward the lowest id, exactly
    like an exhaustive ``argmin``).  The cache is repaired lazily: a
    slot is re-scanned only when its cached neighbour is merged away,
    and scans walk candidates in lower-bound order so that the exact
    Eq. 10 kernel runs only for candidates whose bound does not already
    exceed the current best.
    """

    def __init__(self, engine: StretchEngine, stats: GloveStats):
        self.engine = engine
        self.stats = stats
        cap = engine.store.capacity
        self.best_val = np.full(cap, np.inf, dtype=np.float64)
        self.best_idx = np.full(cap, -1, dtype=np.int64)

    def ensure_capacity(self) -> None:
        """Grow the cache arrays alongside the slot store."""
        cap = self.engine.store.capacity
        self.best_val = grow_array(self.best_val, cap, np.inf)
        self.best_idx = grow_array(self.best_idx, cap, -1)

    def drop(self, slot: int) -> None:
        """Forget a retired slot's cached neighbour."""
        self.best_val[slot] = np.inf
        self.best_idx[slot] = -1

    def _exact(self, slot: int, targets: np.ndarray) -> np.ndarray:
        self.stats.n_exact_evaluations += targets.size
        return self.engine.row(slot, targets)

    def scan(self, slot: int, candidates: np.ndarray) -> tuple:
        """Nearest candidate of a slot: ``(value, candidate_slot)``.

        ``candidates`` must be in ascending slot order; ties in the
        effort resolve to the lowest slot id regardless of the order in
        which the pruned walk visits them.
        """
        cands = np.asarray(candidates, dtype=np.int64)
        engine = self.engine
        if engine.fused_pruning and cands.size:
            best, best_idx, pruned = engine.bounded_argmin([slot], cands)
            self.stats.n_exact_evaluations += int(cands.size - pruned[0])
            self.stats.n_pruned_evaluations += int(pruned[0])
            return float(best[0]), int(best_idx[0])
        return self._walk(slot, cands, np.zeros(cands.size, dtype=bool))

    def refresh(self, slot: int, candidates: np.ndarray) -> None:
        """Re-derive a slot's cached neighbour from scratch."""
        self.best_val[slot], self.best_idx[slot] = self.scan(slot, candidates)

    def refresh_many(self, slots: np.ndarray, candidates: np.ndarray) -> None:
        """Re-derive several slots' cached neighbours in one batched pass.

        ``candidates`` is the shared pending set (ascending); each probe
        slot is masked out of its own candidates.  All probes' exact
        evaluations of one walk round coalesce into a single multi-probe
        engine dispatch, but the per-pair values — and hence every
        ``(value, neighbour)`` result — are bitwise identical to calling
        :meth:`refresh` per slot (see :meth:`_walk_many`).
        """
        slots = np.asarray(slots, dtype=np.int64)
        cands = np.asarray(candidates, dtype=np.int64)
        engine = self.engine
        if engine.fused_pruning:
            # The argmin kernel skips self-pairs in-kernel, so the
            # shared candidate set goes down unmasked.
            best, best_idx, pruned = engine.bounded_argmin(slots, cands)
            n_valid = int((cands[None, :] != slots[:, None]).sum())
            n_pruned = int(pruned.sum())
            self.stats.n_exact_evaluations += n_valid - n_pruned
            self.stats.n_pruned_evaluations += n_pruned
            self.best_val[slots] = best
            self.best_idx[slots] = best_idx
            return
        valid = cands[None, :] != slots[:, None]
        reverse = np.zeros((slots.size, cands.size), dtype=bool)
        best, best_idx, _ = self._walk_many(slots, cands, valid, reverse)
        self.best_val[slots] = best
        self.best_idx[slots] = best_idx

    def build(self, initial: np.ndarray) -> None:
        """Triangular initial build in multi-probe blocks.

        Each slot scans only the slots before it and propagates the
        directed value back, so every unordered pair is evaluated at
        most once — like the seed path's upper-triangle build.  Blocks
        of ``_BUILD_BLOCK`` probes walk in lock-step with coalesced
        exact dispatches; results are bitwise identical to the
        sequential ``insert()``-per-slot build (see :meth:`_walk_many`):
        walk results are assigned first and buffered reverse proposals
        resolved afterwards, which reproduces the sequential
        strict-improvement order exactly.
        """
        self.ensure_capacity()
        initial = np.asarray(initial, dtype=np.int64)
        if self.engine.fused_pruning:
            self._build_fused(initial)
            return
        for s in range(0, initial.size, _BUILD_BLOCK):
            block = initial[s : s + _BUILD_BLOCK]
            cands = initial[: s + block.size - 1]
            # Probe q (global position s+q) may only see its prefix.
            valid = np.arange(cands.size)[None, :] < (s + np.arange(block.size))[:, None]
            best, best_idx, proposals = self._walk_many(block, cands, valid, valid)
            self.best_val[block] = best
            self.best_idx[block] = best_idx
            for tgt, (val, probe) in proposals.items():
                if val < self.best_val[tgt]:
                    self.best_val[tgt] = val
                    self.best_idx[tgt] = probe

    def _build_fused(self, initial: np.ndarray) -> None:
        """Triangular build through the fused bounded row kernel.

        Same block structure and proposal resolution as :meth:`build`,
        but each probe's prefix row comes back from one bounded kernel
        call with ``+inf`` sentinels at pruned positions.  Pruned pairs
        have bound > the probe's running best (can't change its argmin)
        and bound >= the target's cached best snapshot (can't win a
        resolved proposal: the sequential path applies a proposal only
        on strict improvement), so results stay bitwise identical.
        """
        engine = self.engine
        for s in range(0, initial.size, _BUILD_BLOCK):
            block = initial[s : s + _BUILD_BLOCK]
            # Probe q (global position s+q) sees exactly its prefix.
            t_lists = [initial[: s + q] for q in range(block.size)]
            rev_lists = [np.ones(t.size, dtype=bool) for t in t_lists]
            rows, pruned = engine.bounded_rows_some(
                block, t_lists, rev_lists, self.best_val
            )
            n_valid = sum(t.size for t in t_lists)
            n_pruned = int(pruned.sum())
            self.stats.n_exact_evaluations += n_valid - n_pruned
            self.stats.n_pruned_evaluations += n_pruned
            proposals: dict = {}
            best = np.full(block.size, np.inf)
            best_idx = np.full(block.size, -1, dtype=np.int64)
            for q in range(block.size):
                vals, tgts = rows[q], t_lists[q]
                ev = vals < np.inf
                if not ev.any():
                    continue
                vmin = float(vals.min())
                best[q] = vmin
                best_idx[q] = int(tgts[vals == vmin].min())
                p_slot = int(block[q])
                for t, v in zip(tgts[ev].tolist(), vals[ev].tolist()):
                    cur = proposals.get(t)
                    if cur is None or v < cur[0] or (v == cur[0] and p_slot < cur[1]):
                        proposals[t] = (v, p_slot)
            self.best_val[block] = best
            self.best_idx[block] = best_idx
            for tgt, (val, probe) in proposals.items():
                if val < self.best_val[tgt]:
                    self.best_val[tgt] = val
                    self.best_idx[tgt] = probe

    def insert(self, slot: int, candidates: np.ndarray, reverse: np.ndarray) -> None:
        """Find a fresh slot's neighbour and propagate it into others.

        Combines two walks the dense-matrix formulation did with one
        row: finding the new slot's own nearest candidate, and updating
        every candidate ``r`` whose cached best the new slot strictly
        beats.  ``reverse`` masks which candidates may receive that
        propagation (slots queued for a full refresh hold stale values
        and are excluded).  Candidates must be in ascending slot order.
        """
        self.ensure_capacity()
        cands = np.asarray(candidates, dtype=np.int64)
        self.best_val[slot], self.best_idx[slot] = self._walk(slot, cands, reverse)

    def _walk(self, slot: int, cands: np.ndarray, reverse: np.ndarray) -> tuple:
        """Pruned best-first walk shared by :meth:`scan` and :meth:`insert`.

        Walks candidates in lower-bound order, running the exact kernel
        only where a bound could still beat the running best (tie rule:
        lowest slot id, exactly like an exhaustive ``argmin``) or —
        where ``reverse`` allows — strictly beat a candidate's own
        cached best, in which case that candidate adopts ``slot``.
        Returns the ``(value, candidate)`` nearest pair for ``slot``.
        """
        if cands.size == 0:
            return np.inf, -1
        engine = self.engine

        if engine.fused_pruning:
            rows, pruned = engine.bounded_rows_some(
                [slot], [cands], [reverse], self.best_val
            )
            vals = rows[0]
            self.stats.n_exact_evaluations += int(cands.size - pruned[0])
            self.stats.n_pruned_evaluations += int(pruned[0])
            # +inf sentinels at pruned positions lose both comparisons
            # below by construction (bound > running best, and for
            # reverse targets bound >= their cached best).
            upd = reverse & (vals < self.best_val[cands])
            tgt = cands[upd]
            self.best_val[tgt] = vals[upd]
            self.best_idx[tgt] = slot
            vmin = float(vals.min())
            return vmin, int(cands[vals == vmin].min())

        def propagate(sub: np.ndarray, vals: np.ndarray) -> None:
            upd = reverse[sub] & (vals < self.best_val[cands[sub]])
            tgt = cands[sub[upd]]
            self.best_val[tgt] = vals[upd]
            self.best_idx[tgt] = slot

        if not engine.pruning:
            vals = self._exact(slot, cands)
            j = int(vals.argmin())
            propagate(np.arange(cands.size), vals)
            return float(vals[j]), int(cands[j])

        lb0 = engine.hull_lower_bounds(slot, cands)
        order = np.argsort(lb0, kind="stable")
        best, best_idx = np.inf, -1
        evaluated = 0
        pos = 0
        while pos < order.size:
            rest = order[pos:]
            if lb0[rest[0]] > best and not (
                reverse[rest] & (lb0[rest] < self.best_val[cands[rest]])
            ).any():
                break
            sel = rest[:_SCAN_BATCH]
            need = (lb0[sel] <= best) | (reverse[sel] & (lb0[sel] < self.best_val[cands[sel]]))
            sub = sel[need]
            if sub.size and engine.lb1_pruning:
                lb1 = engine.bucket_lower_bounds(slot, cands[sub])
                need = (lb1 <= best) | (reverse[sub] & (lb1 < self.best_val[cands[sub]]))
                sub = sub[need]
            if sub.size:
                vals = self._exact(slot, cands[sub])
                evaluated += sub.size
                vmin = float(vals.min())
                cmin = int(cands[sub][vals == vmin].min())
                if vmin < best or (vmin == best and cmin < best_idx):
                    best, best_idx = vmin, cmin
                propagate(sub, vals)
            pos += _SCAN_BATCH
        self.stats.n_pruned_evaluations += cands.size - evaluated
        return best, best_idx

    def _walk_many(
        self,
        slots: np.ndarray,
        cands: np.ndarray,
        valid: np.ndarray,
        reverse: np.ndarray,
    ) -> tuple:
        """Lock-step pruned walks of several probes over shared candidates.

        The multi-probe counterpart of :meth:`_walk`: each probe walks
        its valid candidates (``valid[p, c]``) in lower-bound order with
        the same batch size and pruning conditions, but the exact
        evaluations of all still-active probes in a round are coalesced
        into one ragged engine dispatch.  Reverse propagations are
        buffered as proposals and resolved by the caller (minimum value,
        ties to the lowest probe slot) *after* assigning the walk
        results, which reproduces the sequential apply order bit for
        bit.  Correctness of the batching does not depend on probes
        seeing each other's in-flight updates: candidate cached bests
        read during the walk are upper bounds of their sequential
        counterparts, so every pair the sequential walks would evaluate
        for its result is also evaluated here, extra evaluations never
        change a minimum or a resolved proposal, and per-pair values are
        batch-composition-independent.

        Returns ``(best_vals, best_idxs, proposals)`` with ``proposals``
        mapping candidate slot -> ``(value, probe_slot)``.
        """
        P, C = slots.size, cands.size
        best = np.full(P, np.inf)
        best_idx = np.full(P, -1, dtype=np.int64)
        proposals: dict = {}

        def propose(p_slot: int, tgts: np.ndarray, vals: np.ndarray) -> None:
            for t, v in zip(tgts.tolist(), vals.tolist()):
                cur = proposals.get(t)
                if cur is None or v < cur[0] or (v == cur[0] and p_slot < cur[1]):
                    proposals[t] = (v, p_slot)

        if P == 0 or C == 0:
            return best, best_idx, proposals
        engine = self.engine

        if not engine.pruning:
            t_lists = [cands[valid[p]] for p in range(P)]
            rows = engine.rows_some(slots, t_lists)
            for p in range(P):
                vals, tgts = rows[p], t_lists[p]
                self.stats.n_exact_evaluations += tgts.size
                if vals.size:
                    j = int(vals.argmin())
                    best[p], best_idx[p] = float(vals[j]), int(tgts[j])
                    rmask = reverse[p, valid[p]]
                    propose(int(slots[p]), tgts[rmask], vals[rmask])
            return best, best_idx, proposals

        lb0 = engine.hull_lower_bounds_many(slots, cands)
        n_valid = valid.sum(axis=1)
        # Invalid candidates carry finite hull bounds too, so push them
        # past every valid candidate: the first n_valid positions of
        # each probe's order are then exactly its valid candidates.
        lb0 = np.where(valid, lb0, np.inf)
        order = np.argsort(lb0, axis=1, kind="stable")
        pos = np.zeros(P, dtype=np.int64)
        active = n_valid > 0
        evaluated = np.zeros(P, dtype=np.int64)
        while active.any():
            round_subs: list = []
            for p in np.flatnonzero(active):
                if pos[p] >= n_valid[p]:
                    active[p] = False
                    continue
                rest = order[p, pos[p] : n_valid[p]]
                l_rest = lb0[p, rest]
                if l_rest[0] > best[p] and not (
                    reverse[p, rest] & (l_rest < self.best_val[cands[rest]])
                ).any():
                    active[p] = False
                    continue
                sel = rest[:_SCAN_BATCH]
                need = (lb0[p, sel] <= best[p]) | (
                    reverse[p, sel] & (lb0[p, sel] < self.best_val[cands[sel]])
                )
                sub = sel[need]
                if sub.size and engine.lb1_pruning:
                    lb1 = engine.bucket_lower_bounds(int(slots[p]), cands[sub])
                    need = (lb1 <= best[p]) | (
                        reverse[p, sub] & (lb1 < self.best_val[cands[sub]])
                    )
                    sub = sub[need]
                pos[p] += _SCAN_BATCH
                if sub.size:
                    round_subs.append((int(p), sub))
            if round_subs:
                probe_pos = [p for p, _ in round_subs]
                t_lists = [cands[sub] for _, sub in round_subs]
                rows = engine.rows_some(slots[probe_pos], t_lists)
                for (p, sub), tgts, vals in zip(round_subs, t_lists, rows):
                    self.stats.n_exact_evaluations += sub.size
                    evaluated[p] += sub.size
                    vmin = float(vals.min())
                    cmin = int(tgts[vals == vmin].min())
                    if vmin < best[p] or (vmin == best[p] and cmin < best_idx[p]):
                        best[p], best_idx[p] = vmin, cmin
                    rmask = reverse[p, sub]
                    if rmask.any():
                        propose(int(slots[p]), tgts[rmask], vals[rmask])
        self.stats.n_pruned_evaluations += int((n_valid - evaluated).sum())
        return best, best_idx, proposals


def glove(
    dataset: FingerprintDataset,
    config: GloveConfig = GloveConfig(),
    compute: Optional[ComputeConfig] = None,
) -> GloveResult:
    """k-anonymize a fingerprint dataset with GLOVE.

    Parameters
    ----------
    dataset:
        Input movement micro-data; every fingerprint must be non-empty
        and represent a single subscriber (``count == 1``) or an
        already-formed group.
    config:
        Anonymity level, stretch metric, suppression, reshaping.
    compute:
        Compute-substrate selection (backend, chunking, workers,
        pruning); defaults to the process-wide
        :func:`repro.core.engine.get_default_compute`.  Backends with a
        registered glove driver (e.g. ``sharded``) take over the whole
        run; for plain kernel backends the choice never changes
        results, only how fast they arrive.

    Returns
    -------
    :class:`GloveResult` whose dataset contains one fingerprint per
    group, each hiding at least ``config.k`` subscribers.
    """
    compute = compute if compute is not None else get_default_compute()
    driver = get_glove_driver(compute.backend)
    if driver is not None:
        return driver(dataset, config, compute)

    fps = list(dataset)
    k = config.k
    validate_population(fps, k)
    stats = GloveStats(n_input_fingerprints=len(fps))
    with StretchEngine(fps, stretch=config.stretch, compute=compute) as engine:
        out = _anonymize(engine, fps, config, stats, name=f"{dataset.name}-glove-k{k}")
        (
            stats.n_boundary_crossings,
            stats.n_probe_dispatches,
            stats.n_batched_probes,
            stats.n_bound_pruned,
        ) = engine.backend.dispatch_counters()
    return finalize_result(out, stats, config)


def validate_population(fps: List[Fingerprint], k: int) -> None:
    """Reject inputs that cannot be k-anonymized (shared with the sharded tier)."""
    total_users = sum(fp.count for fp in fps)
    if total_users < k:
        raise ValueError(f"dataset hides {total_users} users in total, cannot reach k={k}")
    if any(fp.m == 0 for fp in fps):
        raise ValueError("input contains empty fingerprints; screen the dataset first")


def finalize_result(
    out: FingerprintDataset, stats: GloveStats, config: GloveConfig
) -> GloveResult:
    """Apply output suppression and package a :class:`GloveResult`.

    Every anonymization path funnels through here — batch, sharded and
    per-stream-window — so this is also where a run's counters join the
    process-wide metrics registry (a no-op unless one is installed).
    """
    if config.suppression.enabled:
        out, supp = suppress_dataset(out, config.suppression)
        stats.suppression = supp
    else:
        stats.suppression = SuppressionStats(
            total_samples=out.n_samples, discarded_samples=0, discarded_fingerprints=0
        )
    stats.record_metrics(get_metrics())
    return GloveResult(dataset=out, stats=stats, config=config)


def _anonymize(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
    name: str,
) -> FingerprintDataset:
    """Full Alg. 1 on a stretch engine: greedy loop plus leftover fold."""
    finished, leftover, nn = _greedy_merge(engine, fps, config, stats)
    if leftover is not None:
        _fold_leftover(engine, nn, finished, leftover, config, stats)
    out = FingerprintDataset(name=name)
    for slot in finished:
        out.add(engine.store.fps[slot])
    stats.n_output_fingerprints = len(out)
    return out


def _merge_pair(a: Fingerprint, b: Fingerprint, config: GloveConfig) -> Fingerprint:
    """Merge (and optionally reshape) two fingerprints per the config.

    The single definition of GLOVE's merge post-processing, shared by
    the greedy loop, the leftover fold and the sharded tier's boundary
    repair so the steps can never diverge.
    """
    return merge_fingerprints(a, b, config.stretch, reshape=config.reshape)


def _greedy_merge(
    engine: StretchEngine,
    fps: List[Fingerprint],
    config: GloveConfig,
    stats: GloveStats,
) -> tuple:
    """The greedy merge loop of Alg. 1 on top of a stretch engine.

    Runs until fewer than two non-anonymized fingerprints remain and
    returns ``(finished_slots, leftover_slot, nn)``: the slots of the
    groups that reached ``count >= k``, the at-most-one still
    non-anonymous slot (``None`` when the arithmetic worked out), and
    the nearest-neighbour cache for callers that need further scans.
    The sharded tier uses this entry point per shard and handles
    leftovers in its cross-shard boundary-repair pass instead of the
    local fold of :func:`_fold_leftover`.
    """
    store = engine.store
    k = config.k
    n = len(fps)

    pending = np.zeros(store.capacity, dtype=bool)
    pending[:n] = store.counts[:n] < k
    finished: List[int] = [s for s in range(n) if not pending[s]]
    nn = _NearestNeighbours(engine, stats)

    # Triangular initial build, dispatched in multi-probe blocks (every
    # unordered pair evaluated at most once, bitwise identical to the
    # sequential insert()-per-slot build — see _NearestNeighbours.build).
    nn.build(np.flatnonzero(pending))

    def merge_pair(i: int, j: int) -> Fingerprint:
        return _merge_pair(store.fps[i], store.fps[j], config)

    while pending.sum() >= 2:
        live = np.flatnonzero(pending)
        i = int(live[nn.best_val[live].argmin()])
        j = int(nn.best_idx[i])
        merged = merge_pair(i, j)
        stats.n_merges += 1

        pending[i] = pending[j] = False
        engine.retire(i)
        engine.retire(j)
        nn.drop(i)
        nn.drop(j)
        # Slots whose cached neighbour just died need a full re-scan;
        # everyone else at most adopts the merge product (below).
        bi = nn.best_idx[live]
        invalidated = live[((bi == i) | (bi == j)) & (live != i) & (live != j)]

        slot = engine.append(merged)
        pending = grow_array(pending, store.capacity, False)
        nn.ensure_capacity()
        if merged.count >= k:
            finished.append(slot)
        else:
            pending[slot] = True
            targets = np.flatnonzero(pending)
            targets = targets[targets != slot]
            reverse = np.ones(targets.size, dtype=bool)
            if invalidated.size:
                reverse = ~np.isin(targets, invalidated)
            nn.insert(slot, targets, reverse)

        if invalidated.size:
            # One candidate scan per iteration (not per invalidated
            # slot), and all refresh walks batched into multi-probe
            # dispatches.
            nn.refresh_many(invalidated, np.flatnonzero(pending))

    leftover = np.flatnonzero(pending)
    return finished, (int(leftover[0]) if leftover.size else None), nn


def _fold_leftover(
    engine: StretchEngine,
    nn: "_NearestNeighbours",
    finished: List[int],
    leftover: int,
    config: GloveConfig,
    stats: GloveStats,
) -> None:
    """Fold a single non-anonymous leftover into the nearest finished
    group so every subscriber ends up in a crowd of >= k (DESIGN.md D2).

    Mutates ``finished`` in place: the absorbing group's slot is
    replaced by the merge product's.
    """
    if not finished:
        raise RuntimeError("no finished group to absorb the leftover fingerprint")
    _, tgt = nn.scan(leftover, np.array(sorted(finished), dtype=np.int64))
    merged = _merge_pair(engine.store.fps[leftover], engine.store.fps[tgt], config)
    stats.n_merges += 1
    stats.leftover_merged = True
    slot = engine.append(merged)
    engine.retire(leftover)
    engine.retire(tgt)
    finished[finished.index(tgt)] = slot
