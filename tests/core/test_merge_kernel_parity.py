"""Bitwise parity of the native merge layer (DESIGN.md D9).

The two-stage merge of Fig. 6a — and, when asked, the reshape sweep of
Fig. 6b — runs as one kernel (``merge_samples``) on every tier.  These
tests hold the pure twin and the bound accelerated tier to the NumPy
reference (:func:`merge_sample_arrays_numpy` followed by
:func:`reshape_sample_array`) bit for bit, on inputs built to hit the
cases where an innocent-looking rewrite would drift: several stage-2
leftovers folding into one target, equal lengths, a one-row short side,
tied efforts, and overlapping runs for the reshape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.config import StretchConfig
from repro.core.fingerprint import Fingerprint
from repro.core.merge import (
    generalize_rows,
    merge_fingerprints,
    merge_sample_arrays,
    merge_sample_arrays_numpy,
)
from repro.core.reshape import reshape_fingerprint, reshape_sample_array
from repro.core.sample import NCOLS, OVERLAP_ATOL, T

BINDINGS = [("pure", kernels.merge_samples_pure)]
if kernels.COMPILED_AVAILABLE:
    BINDINGS.append((kernels.COMPILED_TIER, kernels.merge_samples_arrays))


def reference(long, short, n_long, n_short, config, reshape):
    merged = merge_sample_arrays_numpy(long, short, n_long, n_short, config)
    return reshape_sample_array(merged) if reshape else merged


def run(fn, long, short, n_long, n_short, config, reshape):
    return fn(
        long, short, float(n_long), float(n_short),
        config.w_sigma, config.w_tau, config.phi_max_sigma_m, config.phi_max_tau_min,
        reshape, OVERLAP_ATOL,
    )


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def check_all(long, short, n_long, n_short, config=StretchConfig()):
    for reshape in (False, True):
        want = reference(long, short, n_long, n_short, config, reshape)
        for _, fn in BINDINGS:
            assert_bitwise(run(fn, long, short, n_long, n_short, config, reshape), want)
        # The public entry dispatches to whichever tier is bound.
        assert_bitwise(merge_sample_arrays(long, short, n_long, n_short, config, reshape), want)


# Coarse grids make equal efforts (argmin ties) and exactly touching
# intervals common; the fractional steps make sums round.
grid_xy = st.integers(min_value=0, max_value=40).map(lambda v: v * 137.3)
grid_ext = st.sampled_from([0.0, 100.0, 0.7, 333.3, 2500.0])
grid_t = st.integers(min_value=0, max_value=60).map(lambda v: v * 7.3)
grid_dt = st.sampled_from([0.0, 1.0, 7.3, 45.5, 200.0])


@st.composite
def sample_arrays(draw, m):
    rows = [
        [draw(grid_xy), draw(grid_ext), draw(grid_xy), draw(grid_ext), draw(grid_t), draw(grid_dt)]
        for _ in range(m)
    ]
    data = np.array(rows, dtype=np.float64).reshape(m, NCOLS)
    return data[np.argsort(data[:, T], kind="stable")]


@st.composite
def merge_inputs(draw, equal=False, short_len=None):
    ms = short_len if short_len is not None else draw(st.integers(min_value=1, max_value=7))
    ml = ms if equal else ms + draw(st.integers(min_value=0, max_value=6))
    return (
        draw(sample_arrays(ml)),
        draw(sample_arrays(ms)),
        draw(st.integers(min_value=1, max_value=9)),
        draw(st.integers(min_value=1, max_value=9)),
    )


class TestMergeParity:
    @settings(max_examples=150, deadline=None)
    @given(merge_inputs())
    def test_random_inputs(self, inputs):
        check_all(*inputs)

    @settings(max_examples=60, deadline=None)
    @given(merge_inputs(equal=True))
    def test_equal_lengths(self, inputs):
        check_all(*inputs)

    @settings(max_examples=60, deadline=None)
    @given(merge_inputs(short_len=1))
    def test_one_row_short_side(self, inputs):
        long, short, n_long, n_short = inputs
        check_all(long, short, n_long, n_short)
        merged = merge_sample_arrays(long, short, n_long, n_short)
        assert merged.shape == (1, NCOLS)
        # A single target absorbs everything: the bulk generalization.
        np.testing.assert_array_equal(merged[0], generalize_rows(np.vstack([long, short])))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tied_efforts_take_the_lowest_index(self, data):
        # Duplicated short rows tie exactly, and with small saturation
        # thresholds most cells between *different* samples clamp to
        # the same 1.0.  The lowest index must win on every tier, or the
        # matched set (and so the rows and their order) would differ.
        short = data.draw(sample_arrays(data.draw(st.integers(min_value=1, max_value=4))))
        short = np.vstack([short, short])[np.argsort(np.r_[short[:, T], short[:, T]], kind="stable")]
        long = data.draw(sample_arrays(short.shape[0] + data.draw(st.integers(0, 3))))
        config = data.draw(st.sampled_from([StretchConfig(), StretchConfig(phi_max_sigma_m=50.0, phi_max_tau_min=5.0)]))
        check_all(long, short, data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)), config)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_overlapping_runs_reshape(self, data):
        # Long intervals that chain into overlapping runs, with some
        # rows that merely touch the run end (not an overlap).
        ms = data.draw(st.integers(min_value=2, max_value=7))
        long = data.draw(sample_arrays(ms + data.draw(st.integers(0, 4))))
        short = data.draw(sample_arrays(ms))
        long[:, 5] = long[:, 5] * 9.0 + 30.0
        short[:, 5] = data.draw(st.sampled_from([0.0, 7.3, 14.6, 73.0]))
        check_all(long, short, 1, 1)
        merged = merge_sample_arrays(long, short, 1, 1, reshape=True)
        starts, ends = merged[:, T], merged[:, T] + merged[:, 5]
        assert (starts[1:] >= ends[:-1] - OVERLAP_ATOL).all()

    @settings(max_examples=60, deadline=None)
    @given(merge_inputs())
    def test_fused_reshape_equals_merge_then_reshape(self, inputs):
        # GLOVE merges with reshape=True in one pass; the result must be
        # the fingerprint the separate reshape pass would produce.
        long, short, n_long, n_short = inputs
        a = Fingerprint("a", long, count=n_long, members=[f"a{i}" for i in range(n_long)])
        b = Fingerprint("b", short, count=n_short, members=[f"b{i}" for i in range(n_short)])
        fused = merge_fingerprints(a, b, reshape=True)
        separate = reshape_fingerprint(merge_fingerprints(a, b))
        assert fused.data.tobytes() == separate.data.tobytes()
        assert (fused.uid, fused.count, fused.members) == (separate.uid, separate.count, separate.members)

    def test_leftovers_fold_sequentially_into_one_target(self):
        # All long samples match short[0]; short[1] and short[2] are
        # stage-2 leftovers folding into that one row, in order.  The
        # sequential folds give a different x extent (239.20000000000002)
        # than one bulk reduction over all rows (239.2), so a kernel that
        # reduced the leftovers in one pass would fail here.
        s0 = [47.3, 51.2, 0.0, 100.0, 0.0, 1.0]
        short = np.array([s0, [151.0, 95.1, 0.0, 100.0, 3000.0, 1.0], [6.9, 14.5, 0.0, 100.0, 6000.0, 1.0]])
        long = np.array([s0, s0, s0])
        check_all(long, short, 3, 1)
        merged = merge_sample_arrays(long, short, 3, 1)
        bulk = generalize_rows(np.vstack([long, short]))
        assert merged.shape == (1, NCOLS)
        assert merged[0].tobytes() != bulk.tobytes()

    @pytest.mark.parametrize("tier,fn", BINDINGS, ids=[b[0] for b in BINDINGS])
    def test_saturated_config(self, tier, fn):
        # Tiny saturation thresholds clamp most cells to 1.0: ties
        # everywhere, resolved by index alone.
        config = StretchConfig(phi_max_sigma_m=1e-3, phi_max_tau_min=1e-3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            ms = int(rng.integers(1, 6))
            long = np.sort(rng.integers(0, 9, (ms + int(rng.integers(0, 4)), NCOLS)).astype(float), axis=0)
            short = np.sort(rng.integers(0, 9, (ms, NCOLS)).astype(float), axis=0)
            for reshape in (False, True):
                want = reference(long, short, 2, 3, config, reshape)
                assert_bitwise(run(fn, long, short, 2, 3, config, reshape), want)
