"""Timing-free guard on sample validation in the stream tier.

A stream window validates its rows once, as one block, and merge
products on a compiled tier come out of the merge kernel's own output
check, so neither goes through ``validate_sample_array`` per object.
This guard counts the calls of a short compiled stream run with late
events, carry-over and absorbs: at most one per closed window, absorb
and carried group, and none at all from a merge or from the public
``Fingerprint`` constructor.  It counts calls only, never wall time.
"""

import sys
from collections import Counter

import pytest

from repro.core import kernels, sample
from repro.core.config import ComputeConfig, GloveConfig
from repro.stream.driver import stream_glove
from repro.stream.feed import replay_dataset
from repro.stream.windows import StreamConfig


@pytest.fixture
def validations(monkeypatch):
    """Count ``validate_sample_array`` calls by calling module."""
    original = sample.validate_sample_array
    callers = Counter()

    def counting(arr):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        return original(arr)

    for name, mod in list(sys.modules.items()):
        if name.startswith("repro") and getattr(mod, "validate_sample_array", None) is original:
            monkeypatch.setattr(mod, "validate_sample_array", counting)
    return callers


@pytest.mark.skipif(not kernels.COMPILED_AVAILABLE, reason="no accelerated tier")
def test_compiled_stream_validates_once_per_window(validations, small_civ):
    feed = replay_dataset(small_civ, max_jitter_min=90.0, seed=3)
    validations.clear()  # the replay itself builds nothing
    result = stream_glove(
        small_civ, GloveConfig(k=3),
        StreamConfig(window_min=180.0, max_lag_min=15.0),
        ComputeConfig(backend="compiled"), feed=feed,
    )
    windows = [w.stats for w in result.windows]
    closed = sum(1 for w in windows if not w.residual)
    absorbs = sum(w.n_absorbed for w in windows)
    carried = sum(w.n_carried_in for w in windows)
    merges = sum(w.n_merges for w in windows)
    # The run exercises what the bound is about.
    assert result.stats.n_late_redirected > 0
    assert absorbs > 0 and carried > 0 and merges > 0
    assert sum(validations.values()) <= closed + absorbs + carried
    # Every call is a window block; no merge product is re-validated.
    assert set(validations) == {"repro.stream.windows"}
    assert validations["repro.stream.windows"] == closed
