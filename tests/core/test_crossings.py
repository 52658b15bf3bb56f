"""The raw-address cc binding (DESIGN.md D9, "Crossing cost").

Every array reaches the cc library as a raw address from
``_ckernel.address``.  These tests hold the binding to three promises:

* **Refusal survives.**  A wrong dtype or a strided buffer on any
  argument the kernel reads or writes in place raises ``TypeError``;
  the slot summaries refuse a strided output rather than fill a copy.
  Inputs that live for one call are copied when strided, and the result
  stays the pure twin's, bit for bit.
* **Addresses follow their buffers.**  The slot store and the engine's
  bound summaries resolve their addresses where they allocate or grow
  the buffers, so sweeps after a reallocation read the new buffers, and
  nothing outside the engine keeps those buffers alive.
* **Resolution per allocation, not per crossing.**  A timing-free
  guard counts the address lookups of a small ``glove()`` run and a
  short stream run against the allocations and crossings they made.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import _ckernel, kernels
from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.engine import SlotStore, StretchEngine
from repro.core.fingerprint import Fingerprint
from repro.core.glove import glove
from repro.core.pairwise import PaddedFingerprints, ProbeBatch
from repro.stream.driver import stream_glove
from repro.stream.windows import StreamConfig

needs_cc = pytest.mark.skipif(_ckernel.LIB is None, reason="no cc kernel on this host")
needs_cc_tier = pytest.mark.skipif(
    kernels.COMPILED_TIER != "cc", reason="the cc tier is not the bound tier"
)

ARGS = (0.5, 0.5, 20_000.0, 480.0)
#: Another dtype of the same kind for every dtype the entries read.
WRONG_DTYPE = {np.float64: np.float32, np.int64: np.int32, np.bool_: np.uint8}


def population(n=6, seed=0):
    rng = np.random.default_rng(seed)
    fps = []
    for u in range(n):
        m = int(rng.integers(1, 6))
        t = np.sort(rng.integers(0, 24, m) * 10.0)
        rows = np.column_stack([
            rng.integers(-4, 5, m) * 2291.7, rng.choice([0.0, 100.0], m),
            rng.integers(-4, 5, m) * 2291.7, rng.choice([0.0, 250.5], m),
            t, rng.choice([0.0, 10.0, 60.0], m),
        ])
        count = 1 + u % 3
        members = [f"u{u}.{i}" for i in range(count)]
        fps.append(Fingerprint(f"u{u}", rows, count=count, members=members))
    return fps


def strided(a):
    """A non-C-contiguous array with the values, shape and dtype of ``a``."""
    wide = np.zeros(a.shape + (2,), dtype=a.dtype)
    wide[..., 0] = a
    view = wide[..., 0]
    assert not view.flags.c_contiguous
    return view


def entry_cases():
    """``(name, cc entry, pure twin, arguments, refused, copied)`` per entry.

    ``refused`` names the buffers the kernel reads or writes in place, so
    a strided one raises; ``copied`` names the inputs that live for one
    call, so a strided one is copied.  Every array in either list has
    its dtype checked.
    """
    (ova, pm, mva, mvs, bmva, bmvs, merge, summ) = kernels._bind_cc()
    fps = population()
    n = len(fps)
    packed = PaddedFingerprints(fps)
    store = (packed.data, packed.lengths, packed.counts)
    targets = np.arange(n, dtype=np.int64)
    batch = ProbeBatch([fps[0].data, fps[3].data], [1, 2])
    probes = (batch.data, batch.lengths, batch.counts)
    flat = np.array([1, 2, 3, 0, 4, 5], dtype=np.int64)
    offsets = np.array([0, 3, 6], dtype=np.int64)
    engine = StretchEngine(
        fps, StretchConfig(), ComputeConfig(backend="numpy", lb_bucket_minutes=60.0)
    )
    assert engine._bucket_edges.size > 2
    bounds = (engine._hull, engine._bucket_hull, engine._bucket_occ)
    slots = np.array([0, 2], dtype=np.int64)
    thresholds = np.array([np.inf, 0.3])
    reverse = np.array([True, False, True, False, True, True])
    best_vals = np.full(engine.store.capacity, 0.2)
    long_, short = sorted((fps[1].data, fps[4].data), key=len, reverse=True)
    owners = ["data", "lengths", "counts"]
    summaries = ["hull", "bucket_hull", "bucket_occ"]
    return [
        ("one_vs_all", ova, kernels.one_vs_all_pure,
         dict(a_data=fps[2].data, n_a=2.0, data=packed.data, lengths=packed.lengths,
              counts=packed.counts, targets=targets),
         owners, ["a_data", "targets"]),
        ("pairwise_matrix", pm, kernels.pairwise_matrix_pure,
         dict(zip(owners, store)), owners, []),
        ("many_vs_all", mva, kernels.many_vs_all_pure,
         dict(p_data=probes[0], p_lengths=probes[1], p_counts=probes[2],
              **dict(zip(owners, store)), targets=targets),
         ["p_data", "p_lengths", "p_counts"] + owners, ["targets"]),
        ("many_vs_some", mvs, kernels.many_vs_some_pure,
         dict(p_data=probes[0], p_lengths=probes[1], p_counts=probes[2],
              **dict(zip(owners, store)), flat_targets=flat, offsets=offsets),
         ["p_data", "p_lengths", "p_counts"] + owners, ["flat_targets", "offsets"]),
        ("bounded_many_vs_all", bmva, kernels.bounded_many_vs_all_pure,
         dict(probe_slots=slots, **dict(zip(owners, store)),
              hull=bounds[0], bucket_hull=bounds[1], bucket_occ=bounds[2],
              targets=targets, thresholds=thresholds),
         owners + summaries, ["probe_slots", "targets", "thresholds"]),
        ("bounded_many_vs_some", bmvs, kernels.bounded_many_vs_some_pure,
         dict(probe_slots=slots, **dict(zip(owners, store)),
              hull=bounds[0], bucket_hull=bounds[1], bucket_occ=bounds[2],
              flat_targets=flat, offsets=offsets, thresholds=thresholds,
              reverse=reverse, best_vals=best_vals),
         owners + summaries,
         ["probe_slots", "flat_targets", "offsets", "thresholds", "reverse", "best_vals"]),
        ("merge_samples", merge, kernels.merge_samples_pure,
         dict(long=long_, short=short, n_long=2.0, n_short=1.0),
         [], ["long", "short"]),
        ("summarize_slots", summ, kernels.summarize_slots_pure,
         dict(data=packed.data, lengths=packed.lengths, slots=targets,
              edges=engine._bucket_edges, hull=bounds[0], bucket_hull=bounds[1],
              bucket_occ=bounds[2]),
         ["data", "lengths", "edges"] + summaries, ["slots"]),
    ]


def run(name, fn, kwargs):
    """Run one entry on ``kwargs`` as given; returns its outputs."""
    if name == "summarize_slots":
        fn(*kwargs.values())
        return (kwargs["hull"], kwargs["bucket_hull"], kwargs["bucket_occ"])
    tail = (True, 1e-9) if name == "merge_samples" else ()
    out = fn(*kwargs.values(), *ARGS, *tail)
    return out if isinstance(out, tuple) else (out,)


def call(name, fn, kwargs):
    """Run one entry on copies of its arguments; returns its outputs."""
    return run(name, fn, {
        k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()
    })


def assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


CASES = entry_cases() if _ckernel.LIB is not None else []
CASE_IDS = [c[0] for c in CASES]


# ---- refusal survives ----------------------------------------------------

@needs_cc
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_cc_entry_matches_its_pure_twin(case):
    name, fn, pure, kwargs, _, _ = case
    assert_same(call(name, fn, kwargs), call(name, pure, kwargs))


@needs_cc
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_wrong_dtype_is_refused_on_every_array(case):
    name, fn, _, kwargs, refused, copied = case
    for arg in refused + copied:
        bad = dict(kwargs)
        bad[arg] = kwargs[arg].astype(WRONG_DTYPE[kwargs[arg].dtype.type])
        with pytest.raises(TypeError, match="data type"):
            call(name, fn, bad)


@needs_cc
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_strided_buffer_read_in_place_is_refused(case):
    name, fn, _, kwargs, refused, _ = case
    for arg in refused:
        bad = dict(kwargs)
        bad[arg] = strided(kwargs[arg])
        with pytest.raises(TypeError, match="C_CONTIGUOUS"):
            run(name, fn, bad)


@needs_cc
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_strided_one_call_input_is_copied(case):
    name, fn, pure, kwargs, _, copied = case
    want = call(name, pure, kwargs)
    for arg in copied:
        view = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}
        view[arg] = strided(kwargs[arg])
        assert_same(run(name, fn, view), want)


@needs_cc
def test_strided_summary_output_is_refused_not_filled_in_a_copy():
    (*_, summ) = kernels._bind_cc()
    engine = StretchEngine(population(), StretchConfig(), ComputeConfig(backend="numpy"))
    slots = np.arange(len(engine.store), dtype=np.int64)
    outputs = {
        "hull": engine._hull, "bucket_hull": engine._bucket_hull,
        "bucket_occ": engine._bucket_occ,
    }
    for name, buf in outputs.items():
        view = strided(buf)
        view[...] = True if view.dtype == bool else np.nan
        before = view.copy()
        args = dict(outputs, **{name: view})
        with pytest.raises(TypeError, match="C_CONTIGUOUS"):
            summ(engine.store.data, engine.store.lengths, slots, engine._bucket_edges,
                 args["hull"], args["bucket_hull"], args["bucket_occ"])
        assert view.tobytes() == before.tobytes()


def test_address_refuses_non_arrays_other_dtypes_and_strides():
    a = np.zeros((3, 4))
    assert _ckernel.address(a, _ckernel.F64) == a.ctypes.data
    with pytest.raises(TypeError, match="must be an ndarray"):
        _ckernel.address([0.0, 1.0], _ckernel.F64)
    with pytest.raises(TypeError, match="data type int64"):
        _ckernel.address(a, _ckernel.I64)
    with pytest.raises(TypeError, match="C_CONTIGUOUS"):
        _ckernel.address(a[:, ::2], _ckernel.F64)
    with pytest.raises(TypeError, match="C_CONTIGUOUS"):
        _ckernel.address(a.T, _ckernel.F64)


# ---- addresses follow reallocation and are not retained ------------------

def pure_sweeps(engine, slots, targets, t_lists, reverse, best_vals):
    store = engine.store
    arrays = (
        store.data, store.lengths, store.counts,
        engine._hull, engine._bucket_hull, engine._bucket_occ,
    )
    args = (
        engine.stretch.w_sigma, engine.stretch.w_tau,
        engine.stretch.phi_max_sigma_m, engine.stretch.phi_max_tau_min,
    )
    offsets = np.zeros(len(slots) + 1, dtype=np.int64)
    np.cumsum([t.size for t in t_lists], out=offsets[1:])
    argmin = kernels.bounded_many_vs_all_pure(
        slots, *arrays, targets, np.full(len(slots), np.inf), *args
    )
    rows, pruned = kernels.bounded_many_vs_some_pure(
        slots, *arrays, np.concatenate(t_lists), offsets,
        np.full(len(slots), np.inf), np.concatenate(reverse), best_vals, *args,
    )
    return argmin, ([rows[offsets[p] : offsets[p + 1]] for p in range(len(slots))], pruned)


def assert_sweeps_match_pure(engine, rng):
    n = len(engine.store)
    slots = np.sort(rng.choice(n, size=min(4, n), replace=False)).astype(np.int64)
    targets = np.arange(n, dtype=np.int64)
    t_lists = [targets[targets != s] for s in slots]
    reverse = [rng.random(t.size) < 0.5 for t in t_lists]
    best_vals = np.where(rng.random(engine.store.capacity) < 0.5, 0.1, np.inf)
    want_argmin, (want_rows, want_pruned) = pure_sweeps(
        engine, slots, targets, t_lists, reverse, best_vals
    )
    assert_same(engine.bounded_argmin(slots, targets), want_argmin)
    rows, pruned = engine.bounded_rows_some(slots, t_lists, reverse, best_vals)
    assert_same(tuple(rows) + (pruned,), tuple(want_rows) + (want_pruned,))


@pytest.mark.skipif(not kernels.COMPILED_AVAILABLE, reason="no accelerated tier")
def test_sweeps_follow_the_buffers_past_the_first_capacity():
    rng = np.random.default_rng(3)
    fps = population(n=5, seed=3)
    engine = StretchEngine(fps, StretchConfig(), ComputeConfig(backend="compiled"))
    store = engine.store
    first = store.capacity
    assert_sweeps_match_pure(engine, rng)
    old_data, old_hull = store.data, engine._hull
    extra = population(n=first, seed=4)
    for fp in extra:
        engine.append(Fingerprint(f"x{fp.uid}", fp.data[: store.m_max]))
    assert store.capacity > first
    assert store.data is not old_data and engine._hull is not old_hull
    if store.addrs is not None:
        assert store.addrs == (
            store.data.ctypes.data, store.lengths.ctypes.data, store.counts.ctypes.data
        )
        assert engine._bound_addrs == (
            engine._hull.ctypes.data, engine._bucket_hull.ctypes.data,
            engine._bucket_occ.ctypes.data,
        )
    # Nothing but the engine holds the new buffers from here on.
    del old_data, old_hull
    gc.collect()
    assert_sweeps_match_pure(engine, rng)
    for slot in range(len(store)):
        want_hull = engine._hull[:, slot].copy()
        engine._summarize_numpy(slot)
        assert engine._hull[:, slot].tobytes() == want_hull.tobytes()


def test_engine_buffers_die_with_the_engine():
    compute = ComputeConfig(backend="compiled" if kernels.COMPILED_AVAILABLE else "numpy")
    engine = StretchEngine(population(), StretchConfig(), compute)
    if engine.fused_pruning:
        n = len(engine.store)
        engine.bounded_argmin([0, 1], np.arange(n, dtype=np.int64))
    engine.append(Fingerprint("extra", engine.store.probe(0).copy()))
    refs = [weakref.ref(a) for a in (engine.store.data, engine._hull, engine._bucket_hull)]
    del engine
    gc.collect()
    assert all(ref() is None for ref in refs)


# ---- timing-free guard: resolution per allocation, not per crossing ------

#: Arrays an entry resolves on every crossing when the owners pass their
#: buffers' addresses: the inputs that live for one call, plus — for the
#: entries that take no owner addresses — the buffers themselves.
PER_CALL = {
    "glove_one_vs_all": 5,
    "glove_pairwise_matrix": 3,
    "glove_many_vs_all": 7,
    "glove_many_vs_some": 8,
    "glove_bounded_many_vs_all": 3,
    "glove_bounded_many_vs_some": 6,
    "glove_merge_samples": 2,
    "glove_summarize_slots": 1,
}


@pytest.fixture
def counted(monkeypatch):
    """Counts of address lookups, C calls and owner-buffer allocations."""
    counts = Counter()
    address = _ckernel.address

    def counting_address(a, dtype):
        counts["resolutions"] += 1
        return address(a, dtype)

    monkeypatch.setattr(_ckernel, "address", counting_address)
    for name in PER_CALL:
        entry = getattr(_ckernel.LIB, name)

        def counting_entry(*args, _entry=entry, _name=name):
            counts[_name] += 1
            return _entry(*args)

        monkeypatch.setattr(_ckernel.LIB, name, counting_entry)
    # Each slot store holds three addressed buffers, each bound-summary
    # set four (the bucket edges, the hull, the bucket hulls and the
    # occupancy), and a growth reallocates three of each.
    for owner, method, buffers in (
        (SlotStore, "__init__", 3),
        (StretchEngine, "_init_bounds", 4),
        (SlotStore, "_grow", 6),
    ):
        real = getattr(owner, method)

        def counting_method(self, *args, _real=real, _n=buffers):
            counts["allocations"] += _n
            return _real(self, *args)

        monkeypatch.setattr(owner, method, counting_method)
    return counts


def assert_resolved_per_allocation(counts):
    crossings = sum(counts[name] for name in PER_CALL)
    per_call = sum(PER_CALL[name] * counts[name] for name in PER_CALL)
    assert counts["glove_bounded_many_vs_all"] > 0
    assert counts["glove_summarize_slots"] > 0
    assert counts["resolutions"] <= counts["allocations"] + per_call, (
        dict(counts), crossings,
    )


@needs_cc_tier
def test_glove_resolves_owned_buffers_per_allocation(counted, small_civ):
    glove(small_civ, GloveConfig(k=2), ComputeConfig(backend="compiled"))
    assert counted["glove_merge_samples"] > 0
    assert_resolved_per_allocation(counted)


@needs_cc_tier
def test_stream_resolves_owned_buffers_per_allocation(counted, small_civ):
    stream_glove(
        small_civ, GloveConfig(k=2), StreamConfig(window_min=6 * 60.0),
        ComputeConfig(backend="compiled"),
    )
    assert_resolved_per_allocation(counted)
