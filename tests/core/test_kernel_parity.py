"""Parity and fallback tests for the compiled stretch-kernel tier.

The byte-identity policy (DESIGN.md D9) requires every kernel tier —
numba JIT, the system-cc binding, and the pure-Python twins — to return
bit-for-bit the NumPy reference's results.  The property tests below
drive both the *active* accelerated binding (whatever tier this
environment resolved) and the always-importable pure twins against
``repro.core.pairwise`` on arbitrary padded tensors: ragged lengths
(masked tails), count weights, and coordinate spreads that push the
saturating terms to their 0/1 edges.

The fallback tests run subprocesses with numba import-blocked and the
cc tier disabled (``REPRO_CC_KERNEL=0``) to prove the ``auto`` and
``compiled`` backends degrade exactly as documented when no accelerated
binding exists.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.pairwise import PaddedFingerprints, ProbeBatch, one_vs_all, pairwise_matrix
from repro.core.sample import Sample

# Wide value ranges on purpose: spatial spreads far beyond phi_sigma
# (20 km) and temporal gaps beyond phi_tau (480 min) exercise the
# saturated branch, tight clusters the near-zero clamp.
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
extents = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
durations = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


@st.composite
def fingerprints(draw, uid, max_m=7):
    m = draw(st.integers(min_value=1, max_value=max_m))
    samples = [
        Sample(
            x=draw(coords),
            y=draw(coords),
            t=draw(times),
            dx=draw(extents),
            dy=draw(extents),
            dt=draw(durations),
        )
        for _ in range(m)
    ]
    count = draw(st.integers(min_value=1, max_value=50))
    members = [f"{uid}-{i}" for i in range(count)]
    return Fingerprint(uid, samples, count=count, members=members)


@st.composite
def collections(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return [draw(fingerprints(f"u{i}")) for i in range(n)]


def _config_args(config):
    return (
        config.w_sigma,
        config.w_tau,
        config.phi_max_sigma_m,
        config.phi_max_tau_min,
    )


BINDINGS = [("pure", kernels.one_vs_all_pure, kernels.pairwise_matrix_pure)]
if kernels.COMPILED_AVAILABLE:
    BINDINGS.append(
        (kernels.COMPILED_TIER, kernels.one_vs_all_arrays, kernels.pairwise_matrix_arrays)
    )


@pytest.mark.parametrize("tier,ova,pm", BINDINGS, ids=[b[0] for b in BINDINGS])
class TestKernelParity:
    @given(probe=fingerprints("probe"), fps=collections(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_vs_all_bitwise(self, tier, ova, pm, probe, fps, data):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(fps) - 1),
                min_size=1,
                max_size=len(fps),
                unique=True,
            )
        )
        targets = np.array(subset, dtype=np.int64)
        reference = one_vs_all(probe.data, probe.count, packed, config, indices=targets)
        got = ova(
            np.ascontiguousarray(probe.data),
            float(probe.count),
            packed.data,
            packed.lengths,
            packed.counts,
            targets,
            *_config_args(config),
        )
        # Bitwise, not approx: the compiled tiers replicate the NumPy
        # reference's operation order including pairwise summation.
        np.testing.assert_array_equal(got, reference)

    @given(fps=collections())
    @settings(max_examples=40, deadline=None)
    def test_pairwise_matrix_bitwise(self, tier, ova, pm, fps):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        reference = pairwise_matrix(fps, config)
        got = pm(packed.data, packed.lengths, packed.counts, *_config_args(config))
        np.testing.assert_array_equal(got, reference)

    def test_saturation_edges(self, tier, ova, pm):
        # One pair far beyond both saturation thresholds (delta == 1)
        # and one identical pair (delta == 0): the clamp edges must be
        # exact, not approximately so.
        near = Fingerprint(
            "a", [Sample(x=0.0, y=0.0, t=0.0)], count=3, members=["a0", "a1", "a2"]
        )
        far = Fingerprint("b", [Sample(x=1e8, y=1e8, t=1e7)], count=1)
        twin = Fingerprint(
            "c", [Sample(x=0.0, y=0.0, t=0.0)], count=2, members=["c0", "c1"]
        )
        packed = PaddedFingerprints([near, far, twin])
        config = StretchConfig()
        got = ova(
            np.ascontiguousarray(near.data),
            float(near.count),
            packed.data,
            packed.lengths,
            packed.counts,
            np.array([1, 2], dtype=np.int64),
            *_config_args(config),
        )
        assert got[0] == 1.0
        assert got[1] == 0.0


BATCHED_BINDINGS = [("pure", kernels.many_vs_all_pure, kernels.many_vs_some_pure)]
if kernels.COMPILED_AVAILABLE:
    BATCHED_BINDINGS.append(
        (kernels.COMPILED_TIER, kernels.many_vs_all_arrays, kernels.many_vs_some_arrays)
    )


def _pack_probes(probes):
    return ProbeBatch([fp.data for fp in probes], [fp.count for fp in probes])


@pytest.mark.parametrize(
    "tier,mva,mvs", BATCHED_BINDINGS, ids=[b[0] for b in BATCHED_BINDINGS]
)
class TestBatchedParity:
    """The batched multi-probe entries against the per-probe loop.

    Row ``p`` of ``many_vs_all``/slice ``p`` of ``many_vs_some`` must be
    bitwise equal to a standalone ``one_vs_all`` dispatch of probe ``p``
    — the property that makes the engine's thread splitter byte-identical
    by construction (DESIGN.md D11).  The NumPy reference is the anchor;
    the inline per-probe loop of the same tier guards against batch
    scratch reuse leaking state between probes.
    """

    @given(probes=collections(min_n=1, max_n=5), fps=collections(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_many_vs_all_bitwise(self, tier, mva, mvs, probes, fps, data):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        subset = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(fps) - 1),
                min_size=1,
                max_size=len(fps),
                unique=True,
            )
        )
        targets = np.array(subset, dtype=np.int64)
        batch = _pack_probes(probes)
        got = mva(
            batch.data, batch.lengths, batch.counts,
            packed.data, packed.lengths, packed.counts,
            targets, *_config_args(config),
        )
        assert got.shape == (len(probes), targets.size)
        for p, probe in enumerate(probes):
            reference = one_vs_all(
                probe.data, probe.count, packed, config, indices=targets
            )
            np.testing.assert_array_equal(got[p], reference)

    @given(probes=collections(min_n=1, max_n=5), fps=collections(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_many_vs_some_bitwise_ragged(self, tier, mva, mvs, probes, fps, data):
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        # Per-probe target lists, empties allowed: the merge frontier
        # batches probes whose candidate lists may have emptied.
        t_lists = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=len(fps) - 1),
                        min_size=0,
                        max_size=len(fps),
                        unique=True,
                    )
                ),
                dtype=np.int64,
            )
            for _ in probes
        ]
        offsets = np.zeros(len(probes) + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_lists], out=offsets[1:])
        flat = (
            np.concatenate(t_lists)
            if offsets[-1]
            else np.empty(0, dtype=np.int64)
        )
        batch = _pack_probes(probes)
        got = mvs(
            batch.data, batch.lengths, batch.counts,
            packed.data, packed.lengths, packed.counts,
            flat, offsets, *_config_args(config),
        )
        assert got.shape == (int(offsets[-1]),)
        for p, probe in enumerate(probes):
            sl = got[offsets[p] : offsets[p + 1]]
            if t_lists[p].size == 0:
                assert sl.size == 0
                continue
            reference = one_vs_all(
                probe.data, probe.count, packed, config, indices=t_lists[p]
            )
            np.testing.assert_array_equal(sl, reference)

    def test_empty_batch(self, tier, mva, mvs):
        fp = Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        packed = PaddedFingerprints([fp])
        config = StretchConfig()
        empty_probes = np.zeros((0, 1, 6), dtype=np.float64)
        empty_i64 = np.zeros(0, dtype=np.int64)
        out = mva(
            empty_probes, empty_i64, empty_i64,
            packed.data, packed.lengths, packed.counts,
            np.array([0], dtype=np.int64), *_config_args(config),
        )
        assert out.shape == (0, 1)
        flat_out = mvs(
            empty_probes, empty_i64, empty_i64,
            packed.data, packed.lengths, packed.counts,
            empty_i64, np.zeros(1, dtype=np.int64), *_config_args(config),
        )
        assert flat_out.shape == (0,)

    def test_single_probe_matches_one_vs_all(self, tier, mva, mvs):
        probe = Fingerprint(
            "p", [Sample(x=10.0, y=20.0, t=5.0), Sample(x=1500.0, y=0.0, t=90.0)],
            count=3, members=["p0", "p1", "p2"],
        )
        fps = [
            Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1),
            Fingerprint("b", [Sample(x=50_000.0, y=0.0, t=900.0)], count=2,
                        members=["b0", "b1"]),
        ]
        packed = PaddedFingerprints(fps)
        config = StretchConfig()
        targets = np.array([0, 1], dtype=np.int64)
        batch = _pack_probes([probe])
        got = mva(
            batch.data, batch.lengths, batch.counts,
            packed.data, packed.lengths, packed.counts,
            targets, *_config_args(config),
        )
        reference = one_vs_all(probe.data, probe.count, packed, config, indices=targets)
        np.testing.assert_array_equal(got[0], reference)


BOUNDED_BINDINGS = [
    ("pure", kernels.bounded_many_vs_all_pure, kernels.bounded_many_vs_some_pure)
]
if kernels.COMPILED_AVAILABLE:
    BOUNDED_BINDINGS.append(
        (
            kernels.COMPILED_TIER,
            kernels.bounded_many_vs_all_arrays,
            kernels.bounded_many_vs_some_arrays,
        )
    )

#: Admissible per-probe thresholds including both infinities — a
#: threshold only decides *which* pairs evaluate, never their values.
threshold_values = st.one_of(
    st.sampled_from([np.inf, -np.inf, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


def _bounded_engine(fps):
    from repro.core.config import ComputeConfig
    from repro.core.engine import StretchEngine

    return StretchEngine(fps, compute=ComputeConfig(backend="numpy"))


def _bounded_args(engine, config):
    store = engine.store
    return (
        store.data, store.lengths, store.counts,
        engine._hull, engine._bucket_hull, engine._bucket_occ,
    ), _config_args(config)


@pytest.mark.parametrize(
    "tier,bmva,bmvs", BOUNDED_BINDINGS, ids=[b[0] for b in BOUNDED_BINDINGS]
)
class TestBoundedParity:
    """The fused bound-and-prune entries (DESIGN.md D13).

    Three invariants: (1) the pure twins and the active accelerated
    tier agree bitwise — including the ``+inf`` sentinels and the
    per-probe pruned counts; (2) every *evaluated* position is bitwise
    the unbounded row's value — pruning decides which pairs run, never
    what they return; (3) the argmin mode returns exactly the
    exhaustive lowest-id argmin whenever the true minimum is strictly
    below the probe's threshold, and ``(threshold, -1)`` otherwise,
    for arbitrary admissible thresholds including both infinities.
    """

    @given(
        fps=collections(min_n=3, max_n=6),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_mode_tiers_agree_and_match_unbounded(self, tier, bmva, bmvs, fps, data):
        engine = _bounded_engine(fps)
        config = engine.stretch
        n = len(fps)
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=3, unique=True,
            )
        )
        probe_slots = np.array(probes, dtype=np.int64)
        t_lists = [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=0, max_size=n, unique=True,
                    ).filter(lambda t, p=p: p not in t)
                ),
                dtype=np.int64,
            )
            for p in probes
        ]
        thresholds = np.array(
            [data.draw(threshold_values) for _ in probes], dtype=np.float64
        )
        offsets = np.zeros(len(probes) + 1, dtype=np.int64)
        np.cumsum([t.size for t in t_lists], out=offsets[1:])
        flat = (
            np.concatenate(t_lists) if offsets[-1] else np.empty(0, dtype=np.int64)
        )
        reverse = np.array(
            [data.draw(st.booleans()) for _ in range(int(offsets[-1]))], dtype=bool
        )
        best_vals = np.full(engine.store.capacity, np.inf)
        for t in range(n):
            if data.draw(st.booleans()):
                best_vals[t] = data.draw(
                    st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
                )
        arrays, cfg_args = _bounded_args(engine, config)
        out, pruned = bmvs(
            probe_slots, *arrays, flat, offsets, thresholds, reverse, best_vals,
            *cfg_args,
        )
        ref_out, ref_pruned = kernels.bounded_many_vs_some_pure(
            probe_slots, *arrays, flat, offsets, thresholds, reverse, best_vals,
            *cfg_args,
        )
        # (1) cross-tier bitwise agreement, sentinels and counts included.
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(pruned, ref_pruned)
        for p, probe_slot in enumerate(probes):
            row = out[offsets[p] : offsets[p + 1]]
            tgts = t_lists[p]
            assert int(pruned[p]) + int((row < np.inf).sum()) == tgts.size
            if tgts.size == 0:
                continue
            exact = engine.row(probe_slot, tgts)
            ev = row < np.inf
            # (2) evaluated positions are the unbounded row, bitwise.
            np.testing.assert_array_equal(row[ev], exact[ev])
            # Reverse value-transparency: a pair whose exact value would
            # update the target's cached best is never pruned.
            rev_p = reverse[offsets[p] : offsets[p + 1]]
            must_eval = rev_p & (exact < best_vals[tgts])
            assert bool(ev[must_eval].all())

    @given(fps=collections(min_n=3, max_n=6), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_argmin_mode_matches_exhaustive(self, tier, bmva, bmvs, fps, data):
        engine = _bounded_engine(fps)
        config = engine.stretch
        n = len(fps)
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=3, unique=True,
            )
        )
        probe_slots = np.array(probes, dtype=np.int64)
        targets = np.array(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1, max_size=n, unique=True,
                )
            ),
            dtype=np.int64,
        )
        thresholds = np.array(
            [data.draw(threshold_values) for _ in probes], dtype=np.float64
        )
        arrays, cfg_args = _bounded_args(engine, config)
        best, best_idx, pruned = bmva(
            probe_slots, *arrays, targets, thresholds, *cfg_args
        )
        ref = kernels.bounded_many_vs_all_pure(
            probe_slots, *arrays, targets, thresholds, *cfg_args
        )
        np.testing.assert_array_equal(best, ref[0])
        np.testing.assert_array_equal(best_idx, ref[1])
        np.testing.assert_array_equal(pruned, ref[2])
        for p, probe_slot in enumerate(probes):
            others = targets[targets != probe_slot]
            tau = thresholds[p]
            if others.size == 0:
                assert best[p] == tau and best_idx[p] == -1
                continue
            exact = engine.row(probe_slot, others)
            vmin = float(exact.min())
            if vmin < tau:
                assert best[p] == vmin
                assert best_idx[p] == int(others[exact == vmin].min())
            else:
                # Strictly-below-threshold semantics: a candidate whose
                # value merely *ties* the threshold never wins.
                assert best[p] == tau
                assert best_idx[p] == -1
            assert 0 <= int(pruned[p]) <= others.size

    def test_threshold_edges(self, tier, bmva, bmvs):
        twin_a = Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        twin_b = Fingerprint("b", [Sample(x=0.0, y=0.0, t=0.0)], count=1)
        far = Fingerprint("c", [Sample(x=1e8, y=1e8, t=1e7)], count=1)
        engine = _bounded_engine([twin_a, twin_b, far])
        arrays, cfg_args = _bounded_args(engine, engine.stretch)
        probe_slots = np.array([0], dtype=np.int64)
        targets = np.array([1, 2], dtype=np.int64)

        def run(tau):
            return bmva(
                probe_slots, *arrays, targets,
                np.array([tau], dtype=np.float64), *cfg_args,
            )

        # tau = +inf: the exhaustive argmin (twin pair, effort 0.0).
        best, idx, _ = run(np.inf)
        assert best[0] == 0.0 and idx[0] == 1
        # tau == exact minimum: strict inequality leaves no winner.
        best, idx, _ = run(0.0)
        assert best[0] == 0.0 and idx[0] == -1
        # tau = -inf: every pair pruned, sentinel result.
        best, idx, pruned = run(-np.inf)
        assert best[0] == -np.inf and idx[0] == -1
        assert pruned[0] == targets.size


_FALLBACK_PROLOGUE = """
import sys

class _BlockNumba:
    def find_module(self, name, path=None):
        if name == "numba" or name.startswith("numba."):
            return self
    def find_spec(self, name, path=None, target=None):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba blocked for fallback test")
    def load_module(self, name):
        raise ImportError("numba blocked for fallback test")

sys.meta_path.insert(0, _BlockNumba())
"""


def _run_fallback_probe(body, env_updates):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env.update(env_updates)
    return subprocess.run(
        [sys.executable, "-c", _FALLBACK_PROLOGUE + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    )


class TestFallback:
    def test_no_accelerated_tier_falls_back_to_pure(self):
        # numba import-blocked and the cc tier disabled: the module must
        # still import, report no compiled tier, and alias the pure twins.
        proc = _run_fallback_probe(
            """
            from repro.core import kernels
            assert not kernels.NUMBA_AVAILABLE
            assert kernels.COMPILED_TIER is None
            assert not kernels.COMPILED_AVAILABLE
            assert kernels.one_vs_all_arrays is kernels.one_vs_all_pure
            assert kernels.pairwise_matrix_arrays is kernels.pairwise_matrix_pure
            print("fallback-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout

    def test_auto_backend_uses_numpy_without_compiled(self):
        proc = _run_fallback_probe(
            """
            from repro.core.config import ComputeConfig, StretchConfig
            from repro.core.engine import AutoBackend, NumpyBackend

            backend = AutoBackend(ComputeConfig(backend="auto"), StretchConfig())
            assert isinstance(backend._inline, NumpyBackend)
            assert not backend.fast_exact
            print("auto-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "auto-ok" in proc.stdout

    def test_compiled_backend_raises_without_binding(self):
        proc = _run_fallback_probe(
            """
            from repro.core.config import ComputeConfig, StretchConfig
            from repro.core.engine import create_backend

            try:
                create_backend(ComputeConfig(backend="compiled"), StretchConfig())
            except RuntimeError as exc:
                assert "[compiled] extra" in str(exc), exc
                print("raise-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "raise-ok" in proc.stdout

    def test_glove_runs_without_accelerated_tier(self):
        # End-to-end: the default path stays fully functional (and on the
        # NumPy reference) with every accelerated tier unavailable.
        proc = _run_fallback_probe(
            """
            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.glove import glove
            from repro.core.scenarios import get_scenario
            from repro.core.pipeline import Pipeline
            from repro.core.artifacts import ArtifactStore

            sc = get_scenario("bench").scaled(n_users=24, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            result = glove(dataset, GloveConfig(k=2), ComputeConfig(backend="auto"))
            assert result.dataset.is_k_anonymous(2)
            print("glove-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "glove-ok" in proc.stdout

    def test_bounded_entries_fall_back_to_pure_twins(self):
        # The fused bound-and-prune entries degrade exactly like the
        # unbounded family: with no accelerated tier the array names
        # alias the pure twins, and the twins still honor thresholds —
        # pruned pairs get +inf sentinels, a -inf threshold prunes
        # everything, and a +inf threshold yields the exact argmin.
        proc = _run_fallback_probe(
            """
            import numpy as np

            from repro.core import kernels
            from repro.core.config import ComputeConfig
            from repro.core.engine import StretchEngine
            from repro.core.fingerprint import Fingerprint
            from repro.core.sample import Sample

            assert not kernels.COMPILED_AVAILABLE
            assert kernels.bounded_many_vs_all_arrays is kernels.bounded_many_vs_all_pure
            assert kernels.bounded_many_vs_some_arrays is kernels.bounded_many_vs_some_pure

            fps = [
                Fingerprint("a", [Sample(x=0.0, y=0.0, t=0.0)], count=1),
                Fingerprint("b", [Sample(x=10.0, y=0.0, t=5.0)], count=1),
                Fingerprint("c", [Sample(x=1e8, y=1e8, t=1e7)], count=1),
            ]
            engine = StretchEngine(fps, compute=ComputeConfig(backend="numpy"))
            # NumpyBackend has no bounded dispatch: fused pruning stays off
            # and glove takes the seed path untouched.
            assert not engine.fused_pruning
            store = engine.store
            arrays = (
                store.data, store.lengths, store.counts,
                engine._hull, engine._bucket_hull, engine._bucket_occ,
            )
            cfg = engine.stretch
            cfg_args = (cfg.w_sigma, cfg.w_tau, cfg.phi_max_sigma_m, cfg.phi_max_tau_min)
            probe = np.array([0], dtype=np.int64)
            targets = np.array([1, 2], dtype=np.int64)

            # +inf threshold: exact lowest-id argmin, far pair lb1-pruned.
            best, idx, pruned = kernels.bounded_many_vs_all_pure(
                probe, *arrays, targets, np.array([np.inf]), *cfg_args
            )
            exact = engine.row(0, targets)
            assert best[0] == exact.min() and idx[0] == 1
            assert pruned[0] > 0

            # -inf threshold: everything pruned, sentinel result.
            best, idx, pruned = kernels.bounded_many_vs_all_pure(
                probe, *arrays, targets, np.array([-np.inf]), *cfg_args
            )
            assert best[0] == -np.inf and idx[0] == -1 and pruned[0] == 2

            # Row mode: pruned positions carry the +inf sentinel, the
            # evaluated ones are bitwise the unbounded row.
            offsets = np.array([0, 2], dtype=np.int64)
            out, pruned = kernels.bounded_many_vs_some_pure(
                probe, *arrays, targets, offsets, np.array([np.inf]),
                np.zeros(2, dtype=bool), np.full(store.capacity, np.inf),
                *cfg_args,
            )
            ev = out < np.inf
            assert pruned[0] == int((~ev).sum())
            assert np.array_equal(out[ev], exact[ev])
            print("bounded-fallback-ok")
            """,
            {"REPRO_CC_KERNEL": "0"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "bounded-fallback-ok" in proc.stdout

    def test_merge_layer_falls_back_to_numpy_byte_identically(self):
        # With no accelerated tier the merge (and reshape) and the slot
        # summaries must run the NumPy reference — never the slow pure
        # twins — and the glove() output must be byte-identical to the
        # run on the accelerated tier.
        body = """
            import hashlib

            from repro.core import engine, kernels, merge
            from repro.core.artifacts import ArtifactStore
            from repro.core.config import ComputeConfig, GloveConfig
            from repro.core.glove import glove
            from repro.core.pipeline import Pipeline
            from repro.core.scenarios import get_scenario

            calls = {"merge": 0, "summarize": 0, "kernel": 0}
            numpy_merge = merge.merge_sample_arrays_numpy
            numpy_summarize = engine.StretchEngine._summarize_numpy

            def count_merge(*args, **kwargs):
                calls["merge"] += 1
                return numpy_merge(*args, **kwargs)

            def count_summarize(self, slot):
                calls["summarize"] += 1
                return numpy_summarize(self, slot)

            def count_kernel(fn):
                def wrapper(*args, **kwargs):
                    calls["kernel"] += 1
                    return fn(*args, **kwargs)
                return wrapper

            merge.merge_sample_arrays_numpy = count_merge
            engine.StretchEngine._summarize_numpy = count_summarize
            kernels.merge_samples_arrays = count_kernel(kernels.merge_samples_arrays)
            kernels.summarize_slots_arrays = count_kernel(kernels.summarize_slots_arrays)

            sc = get_scenario("bench").scaled(n_users=40, days=1, seed=0)
            dataset = sc.synthesize(Pipeline(ArtifactStore(root=None)))
            digest = hashlib.sha256()
            for reshape in (True, False):
                result = glove(dataset, GloveConfig(k=2, reshape=reshape), ComputeConfig(backend="auto"))
                for fp in result.dataset:
                    digest.update(fp.uid.encode())
                    digest.update(str(fp.count).encode())
                    digest.update(fp.data.tobytes())
            if kernels.COMPILED_TIER is None:
                assert calls["merge"] > 0 and calls["summarize"] > 0, calls
                assert calls["kernel"] == 0, calls
            else:
                assert calls["merge"] == 0 and calls["summarize"] == 0, calls
                assert calls["kernel"] > 0, calls
            print("tier", kernels.COMPILED_TIER)
            print("digest", digest.hexdigest())
            """
        fallback = _run_fallback_probe(body, {"REPRO_CC_KERNEL": "0"})
        assert fallback.returncode == 0, fallback.stderr
        assert "tier None" in fallback.stdout
        native = _run_fallback_probe(body, {"REPRO_CC_KERNEL": "1"})
        assert native.returncode == 0, native.stderr
        if kernels.COMPILED_TIER == "cc":
            assert "tier cc" in native.stdout

        def digest(out):
            return [line for line in out.splitlines() if line.startswith("digest")]

        assert digest(fallback.stdout) == digest(native.stdout)
        assert len(digest(fallback.stdout)) == 1
