"""The flat triangular build and the bulk slot-store load.

Both replaced per-object Python with whole-array operations and must
stay bit-identical to what they replaced, which is kept here as the
reference:

* the fused triangular build resolved each block's rows probe by probe,
  and its reverse proposals through a dict (minimum value, ties to the
  lowest probe slot), applying each only on strict improvement;
* the slot store was filled by one ``append`` per initial fingerprint.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig
from repro.core.engine import SlotStore, StretchEngine
from repro.core.fingerprint import Fingerprint
from repro.core.glove import _BUILD_BLOCK, GloveStats, _NearestNeighbours

needs_compiled = pytest.mark.skipif(
    not kernels.COMPILED_AVAILABLE, reason="no accelerated tier"
)


def population(n, seed, dup=0.4):
    """``n`` fingerprints, about ``dup`` of them copies of earlier ones.

    Copies share their sample array under a new uid, so many efforts tie
    exactly and the lowest-id / lowest-probe tie rules decide.
    """
    rng = np.random.default_rng(seed)
    fps = []
    for u in range(n):
        count = 1 + int(rng.integers(0, 3))
        members = [f"u{u}.{i}" for i in range(count)]
        if fps and rng.random() < dup:
            rows = fps[int(rng.integers(len(fps)))].data
        else:
            m = int(rng.integers(1, 7))
            t = np.sort(rng.integers(0, 24, m) * 10.0)
            rows = np.column_stack([
                rng.integers(-3, 4, m) * 2291.7, rng.choice([0.0, 100.0], m),
                rng.integers(-3, 4, m) * 2291.7, rng.choice([0.0, 250.5], m),
                t, rng.choice([0.0, 10.0, 60.0], m),
            ])
        fps.append(Fingerprint(f"u{u}", rows, count=count, members=members))
    return fps


def reference_build(engine, initial):
    """The per-probe / dict resolution the flat build replaced."""
    cap = engine.store.capacity
    best_val = np.full(cap, np.inf)
    best_idx = np.full(cap, -1, dtype=np.int64)
    n_exact = n_pruned = 0
    for s in range(0, initial.size, _BUILD_BLOCK):
        block = initial[s : s + _BUILD_BLOCK]
        t_lists = [initial[: s + q] for q in range(block.size)]
        offsets = np.zeros(block.size + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_lists], out=offsets[1:])
        flat, pruned = engine.bounded_rows_some(
            block, np.concatenate(t_lists), offsets,
            np.ones(int(offsets[-1]), dtype=bool), best_val,
        )
        rows = np.split(flat, offsets[1:-1])
        n_exact += int(offsets[-1]) - int(pruned.sum())
        n_pruned += int(pruned.sum())
        proposals = {}
        best = np.full(block.size, np.inf)
        bidx = np.full(block.size, -1, dtype=np.int64)
        for q in range(block.size):
            vals, tgts = rows[q], t_lists[q]
            ev = vals < np.inf
            if not ev.any():
                continue
            vmin = float(vals.min())
            best[q] = vmin
            bidx[q] = int(tgts[vals == vmin].min())
            p_slot = int(block[q])
            for t, v in zip(tgts[ev].tolist(), vals[ev].tolist()):
                cur = proposals.get(t)
                if cur is None or v < cur[0] or (v == cur[0] and p_slot < cur[1]):
                    proposals[t] = (v, p_slot)
        best_val[block] = best
        best_idx[block] = bidx
        for tgt, (val, probe) in proposals.items():
            if val < best_val[tgt]:
                best_val[tgt] = val
                best_idx[tgt] = probe
    return best_val, best_idx, n_exact, n_pruned


@needs_compiled
@pytest.mark.parametrize("n", [1, 2, 8, 9, 17, 40, 75])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_build_matches_the_per_probe_reference(n, seed):
    fps = population(n, seed)
    with StretchEngine(fps, StretchConfig(), ComputeConfig(backend="compiled")) as engine:
        # A pending set with gaps: groups already at k=3 are finished.
        initial = np.flatnonzero(engine.store.counts[:n] < 3)
        want_val, want_idx, n_exact, n_pruned = reference_build(engine, initial)
        stats = GloveStats()
        nn = _NearestNeighbours(engine, stats)
        nn.build(initial)
        assert nn.best_val.tobytes() == want_val.tobytes()
        assert nn.best_idx.tobytes() == want_idx.tobytes()
        assert (stats.n_exact_evaluations, stats.n_pruned_evaluations) == (n_exact, n_pruned)


@needs_compiled
def test_flat_build_ties_resolve_to_the_lowest_probe():
    # Every fingerprint is one of two sample arrays: every target sees
    # several probes at exactly the same effort.
    fps = population(24, seed=3, dup=0.9)
    assert len({fp.data.tobytes() for fp in fps}) <= 4
    with StretchEngine(fps, StretchConfig(), ComputeConfig(backend="compiled")) as engine:
        initial = np.arange(len(fps), dtype=np.int64)
        want_val, want_idx, _, _ = reference_build(engine, initial)
        nn = _NearestNeighbours(engine, GloveStats())
        nn.build(initial)
        assert nn.best_val.tobytes() == want_val.tobytes()
        assert nn.best_idx.tobytes() == want_idx.tobytes()


def appended_store(fps):
    """The slot store as n ``append`` calls filled it."""
    store = SlotStore.__new__(SlotStore)
    n = len(fps)
    m_max = max(fp.m for fp in fps)
    store.data = np.zeros((2 * n, m_max, 6))
    store.mask = np.zeros((2 * n, m_max), dtype=bool)
    store.lengths = np.zeros(2 * n, dtype=np.int64)
    store.counts = np.zeros(2 * n, dtype=np.int64)
    store.alive = np.zeros(2 * n, dtype=bool)
    store.fps = [None] * (2 * n)
    store.size = 0
    store._resolve()
    for fp in fps:
        store.append(fp)
    return store


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (13, 2), (60, 3)])
def test_bulk_load_matches_sequential_appends(n, seed):
    fps = population(n, seed)
    store = SlotStore(fps)
    want = appended_store(fps)
    for name in ("data", "mask", "lengths", "counts", "alive"):
        got, ref = getattr(store, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert got.flags.c_contiguous, name
        assert got.tobytes() == ref.tobytes(), name
    assert store.size == want.size == n
    assert len(store.fps) == len(want.fps)
    assert all(a is b for a, b in zip(store.fps, want.fps))
    if store.addrs is not None:
        assert store.addrs == (
            store.data.ctypes.data, store.lengths.ctypes.data, store.counts.ctypes.data
        )
    # Appends after the bulk load continue where it stopped.
    extra = Fingerprint("extra", fps[0].data)
    assert store.append(extra) == want.append(extra) == n
    assert store.data.tobytes() == want.data.tobytes()
