"""Edge shapes of the SIMD-shaped native loops (DESIGN.md D9).

The exact kernel runs the longer side in its vectorized inner loop, so a
probe longer than every stored fingerprint is the side hoisted into the
per-call scratch; the level-1 bound runs buckets in the outer loop and
samples in the inner one.  These tests hold every binding to the pure
twins and to the NumPy reference on the shapes where that restructuring
could go wrong, and check the precondition the order-free minima rest
on: no effort, no bound and no sweep output is ever -0.0 or NaN (zero
extents and coincident samples included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import ComputeConfig, StretchConfig
from repro.core.engine import StretchEngine, bucket_lower_bounds, hull_lower_bounds
from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import PaddedFingerprints, ProbeBatch, one_vs_all

EXACT = [("pure", kernels.one_vs_all_pure, kernels.many_vs_all_pure, kernels.many_vs_some_pure)]
BOUNDED = [("pure", kernels.bounded_many_vs_all_pure, kernels.bounded_many_vs_some_pure)]
if kernels.COMPILED_AVAILABLE:
    EXACT.append((
        kernels.COMPILED_TIER,
        kernels.one_vs_all_arrays,
        kernels.many_vs_all_arrays,
        kernels.many_vs_some_arrays,
    ))
    BOUNDED.append((
        kernels.COMPILED_TIER,
        kernels.bounded_many_vs_all_arrays,
        kernels.bounded_many_vs_some_arrays,
    ))

# Integer times on a 0..240 span with 60-minute buckets: the bucket
# edges are the exact integers 0, 60, 120, 180, 240, and samples start
# or end on them often.  Coarse coordinates and a zero extent make
# coincident samples (and bounds of exactly +0) common.
edge_t = st.integers(min_value=0, max_value=24).map(lambda v: v * 10.0)
edge_dt = st.sampled_from([0.0, 10.0, 20.0, 60.0])
coord = st.integers(min_value=-4, max_value=4).map(lambda v: v * 2291.7)
ext = st.sampled_from([0.0, 0.0, 100.0, 250.5])
weights = st.sampled_from([0.0, 0.25, 0.5, 1.0])
phis = st.sampled_from([(20_000.0, 480.0), (1.0, 1.0), (5_000.0, 30.0)])


@st.composite
def rows(draw, m):
    out = []
    for _ in range(m):
        t, dt = draw(edge_t), draw(edge_dt)
        out.append([draw(coord), draw(ext), draw(coord), draw(ext), min(t, 240.0 - dt), dt])
    return np.array(out, dtype=np.float64)


@st.composite
def populations(draw, min_n=3, max_n=6, max_m=5):
    """Fingerprints of mixed lengths; some are coincident twins."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    fps = []
    for u in range(n):
        if fps and draw(st.integers(min_value=0, max_value=3)) == 0:
            data = fps[draw(st.integers(min_value=0, max_value=len(fps) - 1))].data
        else:
            data = draw(rows(draw(st.integers(min_value=1, max_value=max_m))))
        fps.append(fingerprint(f"u{u}", data.copy(), count=draw(st.integers(1, 5))))
    return fps


@st.composite
def stretch_configs(draw):
    w_sigma = draw(weights)
    phi_sigma, phi_tau = draw(phis)
    return StretchConfig(
        phi_max_sigma_m=phi_sigma, phi_max_tau_min=phi_tau,
        w_sigma=w_sigma, w_tau=1.0 - w_sigma,
    )


def fingerprint(uid, data, count=1):
    return Fingerprint(uid, data, count=count, members=[f"{uid}-{i}" for i in range(count)])


def cfg_args(config):
    return (config.w_sigma, config.w_tau, config.phi_max_sigma_m, config.phi_max_tau_min)


def make_engine(fps, config, max_buckets):
    return StretchEngine(
        fps, config,
        ComputeConfig(backend="numpy", lb_bucket_minutes=60.0, lb_max_buckets=max_buckets),
    )


def engine_arrays(engine):
    store = engine.store
    return (
        store.data, store.lengths, store.counts,
        engine._hull, engine._bucket_hull, engine._bucket_occ,
    )


def lb0(engine, slot, targets):
    return hull_lower_bounds(engine._hull, slot, targets, engine.stretch)


def lb1(engine, slot, targets):
    return bucket_lower_bounds(
        engine.store, engine._bounds_pack(), slot, targets, engine.stretch
    )


def csr(t_lists):
    offsets = np.zeros(len(t_lists) + 1, dtype=np.int64)
    np.cumsum([t.size for t in t_lists], out=offsets[1:])
    flat = np.concatenate(t_lists) if offsets[-1] else np.empty(0, dtype=np.int64)
    return flat.astype(np.int64), offsets


def assert_order_free(values):
    """The precondition of the order-free minima: no -0.0, no NaN."""
    values = np.asarray(values, dtype=np.float64)
    assert not np.isnan(values).any()
    assert not np.signbit(values).any()


# ---- exact kernel: a probe longer than every target ----------------------


@pytest.mark.parametrize("tier,ova,mva,mvs", EXACT, ids=[b[0] for b in EXACT])
class TestLongProbe:
    """The probe is the longer side of every pair, so after the swap it
    is the vectorized inner side hoisted into the scratch: the scratch
    must be sized and strided by the pad width, not ``m_max``."""

    @given(
        probe=st.integers(min_value=5, max_value=11).flatmap(rows),
        short=st.integers(min_value=1, max_value=3).flatmap(rows),
        fps=populations(max_m=4),
        config=stretch_configs(),
    )
    @settings(max_examples=40, deadline=None)
    def test_long_probe_matches_reference(self, tier, ova, mva, mvs, probe, short, fps, config):
        packed = PaddedFingerprints(fps)
        assert probe.shape[0] > packed.data.shape[1]
        targets = np.arange(len(fps), dtype=np.int64)
        args = cfg_args(config)
        ref = one_vs_all(probe, 3, packed, config, indices=targets)
        ref_short = one_vs_all(short, 1, packed, config, indices=targets)
        got = ova(probe, 3.0, packed.data, packed.lengths, packed.counts, targets, *args)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(
            got, kernels.one_vs_all_pure(
                probe, 3.0, packed.data, packed.lengths, packed.counts, targets, *args
            ),
        )
        # Batched: the long probe next to a short one, both orders.
        for order in ((probe, short), (short, probe)):
            batch = ProbeBatch(list(order), [3 if p is probe else 1 for p in order])
            want = [ref if p is probe else ref_short for p in order]
            rows_out = mva(
                batch.data, batch.lengths, batch.counts,
                packed.data, packed.lengths, packed.counts, targets, *args,
            )
            for p in range(2):
                np.testing.assert_array_equal(rows_out[p], want[p])
            flat, offsets = csr([targets[::-1].copy(), targets[: len(fps) // 2].copy()])
            flat_out = mvs(
                batch.data, batch.lengths, batch.counts,
                packed.data, packed.lengths, packed.counts, flat, offsets, *args,
            )
            np.testing.assert_array_equal(flat_out[: offsets[1]], want[0][::-1])
            np.testing.assert_array_equal(
                flat_out[offsets[1]:], want[1][: len(fps) // 2]
            )
        assert_order_free(got)


# ---- the bounded sweep on its edge shapes -------------------------------

thresholds_st = st.one_of(
    st.sampled_from([np.inf, 0.0, 0.25, 1.0]),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


def check_bounded(engine, bmva, bmvs, n, probes, t_lists, thresholds, reverse, best_vals):
    """Tier vs pure twin bitwise, sentinels, counts and exact values."""
    arrays = engine_arrays(engine)
    args = cfg_args(engine.stretch)
    flat, offsets = csr(t_lists)
    probe_slots = np.array(probes, dtype=np.int64)
    out, pruned = bmvs(
        probe_slots, *arrays, flat, offsets, thresholds, reverse, best_vals, *args
    )
    ref_out, ref_pruned = kernels.bounded_many_vs_some_pure(
        probe_slots, *arrays, flat, offsets, thresholds, reverse, best_vals, *args
    )
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(pruned, ref_pruned)
    assert_order_free(out)
    for p, slot in enumerate(probes):
        row = out[offsets[p] : offsets[p + 1]]
        evaluated = row < np.inf
        # Pruned positions hold exactly the +inf sentinel, and count.
        assert np.all(row[~evaluated] == np.inf)
        assert int(pruned[p]) == int((~evaluated).sum())
        if t_lists[p].size:
            exact = engine.row(slot, t_lists[p])
            np.testing.assert_array_equal(row[evaluated], exact[evaluated])
            assert_order_free(exact)
            assert_order_free(lb0(engine, slot, t_lists[p]))
            assert_order_free(lb1(engine, slot, t_lists[p]))
    shared = np.arange(n, dtype=np.int64)
    best, idx, pr = bmva(probe_slots, *arrays, shared, thresholds, *args)
    ref = kernels.bounded_many_vs_all_pure(probe_slots, *arrays, shared, thresholds, *args)
    np.testing.assert_array_equal(best, ref[0])
    np.testing.assert_array_equal(idx, ref[1])
    np.testing.assert_array_equal(pr, ref[2])
    assert_order_free(best)


@pytest.mark.parametrize("tier,bmva,bmvs", BOUNDED, ids=[b[0] for b in BOUNDED])
class TestBoundedEdges:
    @given(
        fps=populations(),
        config=stretch_configs(),
        max_buckets=st.sampled_from([1, 2, 4, 48]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_edge_populations(self, tier, bmva, bmvs, fps, config, max_buckets, data):
        engine = make_engine(fps, config, max_buckets)
        n = len(fps)
        assert (engine.store.lengths[:n] == engine.store.data.shape[1]).any()
        probes = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
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
        check_bounded(engine, bmva, bmvs, n, probes, t_lists, thresholds, reverse, best_vals)

    @pytest.mark.parametrize("max_buckets", [1, 4])
    def test_length_relations_and_coincident_twins(self, tier, bmva, bmvs, max_buckets):
        # Lengths 4 (the full m_max), 2, 1, 1 and 2; slots 2 and 3, and
        # slots 1 and 4, are zero-extent coincident twins, so their
        # bounds and effort are exactly +0 and a threshold of 0.0 must
        # still evaluate them.
        # Every (probe, target) pair covers ma > mc, ma == mc and
        # mc > ma, and samples sit on the 60-minute bucket edges.
        full = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0, 60.0],
            [4000.0, 100.0, 900.0, 0.0, 60.0, 0.0],
            [9000.0, 0.0, 100.0, 250.5, 120.0, 60.0],
            [30000.0, 0.0, 0.0, 0.0, 240.0, 0.0],
        ])
        pair = np.array([[4000.0, 0.0, 900.0, 0.0, 60.0, 0.0], [0.0, 0.0, 0.0, 0.0, 180.0, 0.0]])
        twin = np.array([[9000.0, 0.0, 100.0, 0.0, 120.0, 0.0]])
        fps = [
            fingerprint("full", full, count=2),
            fingerprint("pair", pair),
            fingerprint("twin-a", twin.copy(), count=3),
            fingerprint("twin-b", twin.copy()),
            fingerprint("pair-b", pair[::-1].copy(), count=2),
        ]
        engine = make_engine(fps, StretchConfig(), max_buckets)
        assert engine._bucket_occ.shape[1] == max_buckets
        n = len(fps)
        probes = list(range(n))
        t_lists = [np.array([t for t in range(n) if t != p], dtype=np.int64) for p in probes]
        n_flat = sum(t.size for t in t_lists)
        for tau in (np.inf, 1.0, 0.05, 0.0):
            thresholds = np.full(n, tau)
            for rev in (False, True):
                reverse = np.full(n_flat, rev)
                best_vals = np.full(engine.store.capacity, 0.0 if rev else np.inf)
                check_bounded(
                    engine, bmva, bmvs, n, probes, t_lists, thresholds, reverse, best_vals
                )
        # The coincident twins: every bound is +0 and the pair evaluates
        # to +0 at a zero threshold instead of being pruned.
        assert lb0(engine, 2, np.array([3]))[0] == 0.0
        assert lb1(engine, 2, np.array([3]))[0] == 0.0
        flat, offsets = csr([np.array([3], dtype=np.int64)])
        out, pruned = bmvs(
            np.array([2], dtype=np.int64), *engine_arrays(engine), flat, offsets,
            np.zeros(1), np.zeros(1, dtype=bool), np.full(engine.store.capacity, np.inf),
            *cfg_args(engine.stretch),
        )
        assert out[0] == 0.0 and not np.signbit(out[0]) and pruned[0] == 0


# ---- invariant: exact efforts are never -0.0 or NaN ----------------------


@pytest.mark.parametrize("tier,ova,mva,mvs", EXACT, ids=[b[0] for b in EXACT])
@given(fps=populations(min_n=2), config=stretch_configs())
@settings(max_examples=40, deadline=None)
def test_exact_efforts_are_never_negative_zero_or_nan(tier, ova, mva, mvs, fps, config):
    packed = PaddedFingerprints(fps)
    targets = np.arange(len(fps), dtype=np.int64)
    for fp in fps:
        got = ova(
            np.ascontiguousarray(fp.data), float(fp.count),
            packed.data, packed.lengths, packed.counts, targets, *cfg_args(config),
        )
        assert_order_free(got)
    batch = ProbeBatch([fp.data for fp in fps], [fp.count for fp in fps])
    assert_order_free(mva(
        batch.data, batch.lengths, batch.counts,
        packed.data, packed.lengths, packed.counts, targets, *cfg_args(config),
    ))
