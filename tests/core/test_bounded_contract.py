"""The bounded nearest-neighbour contract, held on every backend tier.

``StretchEngine.bounded_argmin`` / ``bounded_rows_some`` (DESIGN.md D13)
run on the NumPy tier's batched-round walk and on the compiled tier's
fused native walk.  The tiers prune different pairs, so their outputs
are compared with the exhaustive rows of ``StretchEngine.row``, not
with each other:

* every value that is not the ``+inf`` sentinel equals the exact row
  bitwise, and the per-probe pruned count is the number of sentinels;
* each probe's ``(min, argmin)`` is the exhaustive one, ties going to
  the lowest id, and a probe whose threshold no target strictly beats
  reports ``(threshold, -1)``;
* no reverse target whose exact value beats its cached best is ever a
  sentinel, so reverse propagation sees every pair that could update it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.engine import StretchEngine
from repro.core.glove import glove
from repro.stream.driver import stream_glove
from repro.stream.windows import StreamConfig
from tests.conftest import make_fp
from tests.core.test_kernel_edges import (
    csr,
    fingerprint,
    populations,
    stretch_configs,
    thresholds_st,
)

BACKENDS = ["numpy"] + (["compiled"] if kernels.COMPILED_AVAILABLE else [])


def make_engine(fps, config, backend, max_buckets):
    return StretchEngine(
        fps, config,
        ComputeConfig(backend=backend, lb_bucket_minutes=60.0, lb_max_buckets=max_buckets),
    )


def exhaustive_argmin(row, targets, threshold):
    """Lowest-id argmin of an exact row under a strict threshold."""
    if row.size == 0 or not row.min() < threshold:
        return threshold, -1
    vmin = row.min()
    return vmin, int(targets[row == vmin].min())


def check_contract(engine, probes, t_lists, shared, thresholds, reverse, best_vals):
    flat, offsets = csr(t_lists)
    out, pruned = engine.bounded_rows_some(
        probes, flat, offsets, reverse, best_vals, thresholds
    )
    for p, slot in enumerate(probes):
        targets = t_lists[p]
        row = out[offsets[p] : offsets[p + 1]]
        exact = engine.row(slot, targets)
        evaluated = row < np.inf
        assert row[evaluated].tobytes() == exact[evaluated].tobytes()
        assert int(pruned[p]) == int((~evaluated).sum())
        # Reverse targets the probe strictly beats were all evaluated.
        rev = reverse[offsets[p] : offsets[p + 1]]
        assert evaluated[rev & (exact < best_vals[targets])].all()
        # The row's evaluated minimum is the exhaustive one.
        vmin, vidx = exhaustive_argmin(exact, targets, thresholds[p])
        if vidx >= 0:
            assert (float(row.min()), int(targets[row == row.min()].min())) == (vmin, vidx)

    best, best_idx, pruned = engine.bounded_argmin(probes, shared, thresholds)
    for p, slot in enumerate(probes):
        others = shared[shared != slot]
        want = exhaustive_argmin(engine.row(slot, others), others, thresholds[p])
        assert (best[p], best_idx[p]) == want
        assert 0 <= pruned[p] <= others.size


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    fps=populations(max_n=8),
    config=stretch_configs(),
    max_buckets=st.sampled_from([1, 4, 48]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_bounded_sweeps_keep_the_contract(backend, fps, config, max_buckets, data):
    engine = make_engine(fps, config, backend, max_buckets)
    n = len(fps)
    probes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    t_lists = [
        np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)
                      .filter(lambda t, p=p: p not in t)),
            dtype=np.int64,
        )
        for p in probes
    ]
    thresholds = np.array([data.draw(thresholds_st) for _ in probes])
    n_flat = sum(t.size for t in t_lists)
    reverse = np.array([data.draw(st.booleans()) for _ in range(n_flat)], dtype=bool)
    best_vals = np.array(
        [data.draw(st.sampled_from([np.inf, 0.0, 0.1, 0.5])) for _ in range(engine.store.capacity)]
    )
    shared = np.arange(n, dtype=np.int64)
    check_contract(engine, probes, t_lists, shared, thresholds, reverse, best_vals)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ties_self_pairs_and_all_pruned_probes(backend):
    # Eight copies of two sample arrays: every probe meets several
    # targets at exactly the same effort, and itself in the shared set.
    rng = np.random.default_rng(7)
    arrays = [
        np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 60.0], [4000.0, 100.0, 900.0, 0.0, 60.0, 0.0]]),
        np.array([[30000.0, 0.0, 0.0, 0.0, 240.0, 0.0]]),
    ]
    fps = [fingerprint(f"u{u}", arrays[u % 2].copy(), count=1 + u % 3) for u in range(8)]
    engine = make_engine(fps, StretchConfig(), backend, 4)
    n = len(fps)
    probes = [0, 3, 5]
    t_lists = [np.arange(n, dtype=np.int64)[np.arange(n) != p] for p in probes]
    shared = np.arange(n, dtype=np.int64)
    n_flat = sum(t.size for t in t_lists)
    for tau in (np.inf, 0.0, -np.inf):
        thresholds = np.full(len(probes), tau)
        for reverse in (np.zeros(n_flat, bool), np.ones(n_flat, bool), rng.random(n_flat) < 0.5):
            best_vals = np.where(rng.random(engine.store.capacity) < 0.5, 0.0, np.inf)
            check_contract(engine, probes, t_lists, shared, thresholds, reverse, best_vals)
    # A -inf threshold prunes every pair of every probe.
    best, best_idx, pruned = engine.bounded_argmin(probes, shared, np.full(3, -np.inf))
    assert (best == -np.inf).all() and (best_idx == -1).all()
    assert (pruned == n - 1).all()


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_tie_in_a_later_round_goes_to_the_lowest_id(backend):
    # Zero-extent points: "near" (slot 1) has a level-0 bound equal to
    # its exact effort v; the "box" (slot 2) and 31 wider boxes overlap
    # the probe, so their bound is 0 and they come first.  The box ties
    # "near" at exactly v, so a walk that meets "near" after the box
    # must still evaluate it (bound == best) and let the lower id win.
    def point(uid, x, extent=0.0):
        return make_fp(uid, [(x, 0.0, 0.0, extent, 0.0, 0.0)])

    fps = [point("probe", 0.0), point("near", 1000.0), point("box", 0.0, 2000.0)]
    fps += [point(f"wide{i}", 0.0, 4000.0) for i in range(31)]
    engine = make_engine(fps, StretchConfig(), backend, 1)
    n = len(fps)
    exact = engine.row(0, np.array([1, 2]))
    assert exact[0] == exact[1]
    best, best_idx, _ = engine.bounded_argmin([0], np.arange(n, dtype=np.int64))
    assert (best[0], best_idx[0]) == (exact[0], 1)
    targets = np.arange(1, n, dtype=np.int64)
    check_contract(
        engine, [0], [targets], np.arange(n, dtype=np.int64), np.array([np.inf]),
        np.zeros(targets.size, dtype=bool), np.full(engine.store.capacity, np.inf),
    )


# ---- timing-free guard: one nearest-neighbour walk ------------------------


def straggler_dataset():
    """Two tight pairs far apart plus a straggler: k=2 leaves a leftover."""
    return FingerprintDataset(
        [
            make_fp("L1", [(0.0, 0.0, 0.0)]),
            make_fp("L2", [(10.0, 0.0, 1.0)]),
            make_fp("R1", [(80_000.0, 0.0, 0.0)]),
            make_fp("R2", [(80_010.0, 0.0, 1.0)]),
            make_fp("straggler", [(80_500.0, 0.0, 2.0)]),
        ],
        name="straggler",
    )


def digest(dataset):
    return [(fp.uid, fp.count, fp.members, fp.data.tobytes()) for fp in dataset]


def every_glove_path(small_civ, backend):
    """Digests of the batch, leftover, sharded and stream paths."""
    compute = ComputeConfig(backend=backend)
    leftover = glove(straggler_dataset(), GloveConfig(k=2), compute)
    assert leftover.stats.leftover_merged
    out = [digest(leftover.dataset), digest(glove(small_civ, GloveConfig(k=3), compute).dataset)]
    for shards in (1, 3):
        sharded = ComputeConfig(backend="sharded", shards=shards, workers=1)
        out.append(digest(glove(small_civ, GloveConfig(k=2), sharded).dataset))
    stream = stream_glove(small_civ, GloveConfig(k=2), StreamConfig(window_min=6 * 60.0), compute)
    assert len(stream.emitted) > 1
    out.append(digest(stream.combined_dataset()))
    return out


@pytest.mark.parametrize("backend", ["numpy", "auto"])
def test_every_path_runs_on_the_bounded_sweeps(backend, small_civ, monkeypatch):
    # The exact row entry is a test oracle only: no anonymization path
    # may reach the kernel outside the bounded sweeps.
    want = every_glove_path(small_civ, backend)

    def unbounded_row(self, slot, targets):
        raise AssertionError("an unbounded nearest-neighbour walk ran")

    monkeypatch.setattr(StretchEngine, "row", unbounded_row)
    assert every_glove_path(small_civ, backend) == want
