"""Tests for the event-feed adapter (:mod:`repro.stream.feed`)."""

import numpy as np
import pytest

from repro.core.dataset import FingerprintDataset
from repro.core.fingerprint import Fingerprint
from repro.core.sample import T
from repro.stream.feed import ReplayFeed, replay_dataset


class TestReplayDataset:
    def test_replays_every_sample_in_time_order(self, small_civ):
        feed = replay_dataset(small_civ)
        assert len(feed) == small_civ.n_samples
        assert feed.n_users == len(small_civ)
        ts = [e.t for e in feed]
        assert ts == sorted(ts)

    def test_events_carry_exact_rows(self, small_civ):
        feed = replay_dataset(small_civ)
        by_uid = {}
        for event in feed:
            by_uid.setdefault(event.uid, []).append(event.row)
        for fp in small_civ:
            rebuilt = Fingerprint(fp.uid, np.vstack(by_uid[fp.uid]))
            assert np.array_equal(rebuilt.data, fp.data)

    def test_zero_jitter_is_deterministic(self, small_civ):
        a = replay_dataset(small_civ)
        b = replay_dataset(small_civ)
        assert a.uids == b.uids
        assert np.array_equal(a.rows, b.rows)

    def test_jitter_bounded_and_seeded(self, small_civ):
        a = replay_dataset(small_civ, max_jitter_min=30.0, seed=7)
        b = replay_dataset(small_civ, max_jitter_min=30.0, seed=7)
        assert a.uids == b.uids and np.array_equal(a.rows, b.rows)
        # Reordering happens, but an event never arrives after one
        # recorded more than the jitter bound later.
        ts = a.rows[:, T]
        assert (ts[1:] < ts[:-1]).any()  # genuinely out of order
        running_max = np.maximum.accumulate(ts)
        assert float((running_max - ts).max()) < 30.0

    def test_rejects_grouped_fingerprints(self):
        group = Fingerprint(
            "g", np.array([[0.0, 100.0, 0.0, 100.0, 0.0, 1.0]]), count=2, members=("a", "b")
        )
        ds = FingerprintDataset([group], name="pub")
        with pytest.raises(ValueError, match="grouped"):
            replay_dataset(ds)

    def test_rejects_negative_jitter(self, small_civ):
        with pytest.raises(ValueError, match="non-negative"):
            replay_dataset(small_civ, max_jitter_min=-1.0)


class TestReplayFeed:
    def test_time_extent_and_shape_validation(self, small_civ):
        feed = replay_dataset(small_civ)
        lo, hi = feed.time_extent()
        assert lo <= hi
        with pytest.raises(ValueError, match="shape"):
            ReplayFeed(["a"], np.zeros((1, 4)))
        with pytest.raises(ValueError, match="uids"):
            ReplayFeed(["a", "b"], np.zeros((1, 6)))

    def test_empty_feed(self):
        feed = ReplayFeed([], np.empty((0, 6)))
        assert len(feed) == 0
        assert feed.time_extent() == (0.0, 0.0)
        assert list(feed) == []
