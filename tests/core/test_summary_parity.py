"""Bitwise parity of the native slot summaries (DESIGN.md D9).

:class:`~repro.core.engine.StretchEngine` keeps, per slot, the global
hull column, per-time-bucket hulls and an occupancy mask for the
pruning bounds.  On an accelerated tier one ``summarize_slots`` call
writes them; these tests hold the pure twin and the bound tier to the
NumPy reference (``_summarize_numpy``) bit for bit, on samples that
touch bucket edges exactly, slots that leave buckets empty, a single
bucket, and a slot appended after the store outgrew its first capacity.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig
from repro.core.engine import StretchEngine
from repro.core.fingerprint import Fingerprint

BINDINGS = [("pure", kernels.summarize_slots_pure)]
if kernels.COMPILED_AVAILABLE:
    BINDINGS.append((kernels.COMPILED_TIER, kernels.summarize_slots_arrays))


def make_engine(fps, **compute):
    return StretchEngine(fps, StretchConfig(), ComputeConfig(backend="numpy", **compute))


def summaries(engine, slots):
    return (
        engine._hull[:, slots].copy(),
        engine._bucket_hull[slots].copy(),
        engine._bucket_occ[slots].copy(),
    )


def assert_parity(engine, slots):
    """Every binding rewrites ``slots`` to the NumPy reference's bits."""
    slots = np.asarray(slots, dtype=np.int64)
    for slot in slots:
        engine._summarize_numpy(int(slot))
    want = summaries(engine, slots)
    for tier, fn in BINDINGS:
        # Poison first, so a value the kernel fails to write shows.
        engine._hull[:, slots] = np.nan
        engine._bucket_hull[slots] = np.nan
        engine._bucket_occ[slots] = ~want[2]
        fn(
            engine.store.data, engine.store.lengths, slots, engine._bucket_edges,
            engine._hull, engine._bucket_hull, engine._bucket_occ,
        )
        got = summaries(engine, slots)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), tier
    return want


def fingerprint(uid, rows):
    return Fingerprint(uid, np.asarray(rows, dtype=np.float64))


# Integer times on a 0..240 span with 60-minute buckets: the bucket
# edges are the exact integers 0, 60, 120, 180, 240, and samples start
# or end on them often.
edge_t = st.integers(min_value=0, max_value=24).map(lambda v: v * 10.0)
edge_dt = st.sampled_from([0.0, 10.0, 20.0, 60.0])
coord = st.integers(min_value=-50, max_value=50).map(lambda v: v * 91.7)
ext = st.sampled_from([0.0, 100.0, 250.5])


@st.composite
def populations(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    fps = []
    for u in range(n):
        m = draw(st.integers(min_value=1, max_value=6))
        rows = [
            [draw(coord), draw(ext), draw(coord), draw(ext), min(t, 240.0 - dt), dt]
            for t, dt in ((draw(edge_t), draw(edge_dt)) for _ in range(m))
        ]
        fps.append(fingerprint(f"u{u}", rows))
    # Anchors pin the span to exactly [0, 240].
    fps.append(fingerprint("lo", [[0.0, 100.0, 0.0, 100.0, 0.0, 0.0]]))
    fps.append(fingerprint("hi", [[0.0, 100.0, 0.0, 100.0, 240.0, 0.0]]))
    return fps


class TestSummaryParity:
    @settings(max_examples=80, deadline=None)
    @given(populations())
    def test_samples_on_bucket_edges(self, fps):
        engine = make_engine(fps, lb_bucket_minutes=60.0)
        np.testing.assert_array_equal(engine._bucket_edges, [0.0, 60.0, 120.0, 180.0, 240.0])
        assert_parity(engine, range(engine.store.size))

    @settings(max_examples=40, deadline=None)
    @given(populations())
    def test_single_bucket(self, fps):
        engine = make_engine(fps, lb_max_buckets=1)
        assert engine._bucket_edges.shape == (2,)
        assert_parity(engine, range(engine.store.size))

    def test_edge_touching_samples_join_both_buckets(self):
        fps = [
            # Ends exactly on edge 60, starts exactly on edge 120.
            fingerprint("a", [[0.0, 100.0, 0.0, 100.0, 30.0, 30.0], [5.0, 1.0, 5.0, 1.0, 120.0, 0.0]]),
            fingerprint("b", [[0.0, 100.0, 0.0, 100.0, 0.0, 0.0], [0.0, 100.0, 0.0, 100.0, 240.0, 0.0]]),
        ]
        engine = make_engine(fps, lb_bucket_minutes=60.0)
        _, bucket_hull, occ = assert_parity(engine, [0, 1])
        np.testing.assert_array_equal(occ[0], [True, True, True, False])
        # The empty bucket stays at +-inf on every axis.
        np.testing.assert_array_equal(bucket_hull[0, 3], [np.inf, -np.inf] * 3)
        # Time ranges are clamped to the bucket: the sample ending on
        # edge 60 reaches into bucket 1 only at its boundary.
        np.testing.assert_array_equal(bucket_hull[0, 0, 4:], [30.0, 60.0])
        np.testing.assert_array_equal(bucket_hull[0, 1, 4:], [60.0, 120.0])

    def test_empty_buckets_between_clusters(self):
        fps = [
            fingerprint("early", [[1.0, 2.0, 3.0, 4.0, 0.0, 5.0]] * 3),
            fingerprint("late", [[9.0, 2.0, 7.0, 4.0, 1000.0, 5.0], [8.0, 1.0, 6.0, 2.0, 2000.0, 0.0]]),
        ]
        engine = make_engine(fps, lb_bucket_minutes=100.0)
        _, _, occ = assert_parity(engine, [0, 1])
        assert occ[0].sum() == 1 and not occ[0, 1:].any()
        # The late sample starting on edge 1000 joins buckets 9 and 10.
        assert occ[1, 9] and occ[1, 10] and occ[1, -1] and not occ[1, :9].any()

    def test_slot_grown_past_initial_capacity(self):
        base = [
            fingerprint(f"u{i}", [[i * 50.0, 100.0, 0.0, 100.0, i * 30.0, 1.0], [0.0, 10.0, i * 9.0, 10.0, 300.0 - i, 2.0]])
            for i in range(3)
        ]
        engine = make_engine(base, lb_bucket_minutes=60.0)
        first_capacity = engine.store.capacity
        while engine.store.size <= first_capacity:
            i = engine.store.size
            engine.append(fingerprint(f"x{i}", [[i * 7.0, 3.0, -i * 5.0, 8.0, (i * 37.0) % 300.0, 4.0]]))
        slot = engine.store.size - 1
        assert slot >= first_capacity
        assert engine._bucket_hull.shape[0] == engine.store.capacity
        assert_parity(engine, [slot])
        assert_parity(engine, range(engine.store.size))

    def test_engine_build_and_append_match_the_reference(self):
        # Whatever tier the engine ran at build and append time, its
        # stored summaries equal the NumPy reference's.
        fps = [
            fingerprint(f"u{i}", [[i * 3.0, 1.5, i * 2.0, 0.5, i * 11.0, 3.0], [i * 1.0, 2.0, 0.0, 1.0, 400.0, 7.0]])
            for i in range(5)
        ]
        engine = make_engine(fps)
        engine.append(fingerprint("m", [[0.0, 12.0, 0.0, 8.0, 0.0, 407.0]]))
        built = summaries(engine, np.arange(engine.store.size))
        for slot in range(engine.store.size):
            engine._summarize_numpy(slot)
        want = summaries(engine, np.arange(engine.store.size))
        for g, w in zip(built, want):
            assert g.tobytes() == w.tobytes()
