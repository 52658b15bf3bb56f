"""Edge-case tests for GLOVE beyond the happy path."""

import numpy as np
import pytest

from repro.core.config import ComputeConfig, GloveConfig, StretchConfig
from repro.core.dataset import FingerprintDataset
from repro.core.glove import glove
from benchmarks.seed_path import seed_glove
from tests.conftest import make_fp


class TestPreGroupedInputs:
    def test_existing_groups_are_respected(self):
        """Fingerprints that already hide >= k users pass through."""
        ds = FingerprintDataset(
            [
                make_fp("g", [(0.0, 0.0, 0.0)], count=2, members=("a", "b")),
                make_fp("c", [(10.0, 0.0, 1.0)]),
                make_fp("d", [(20.0, 0.0, 2.0)]),
            ]
        )
        result = glove(ds, GloveConfig(k=2))
        assert result.dataset.is_k_anonymous(2)
        index = {m: fp for fp in result.dataset for m in fp.members}
        # a and b were already safe; c and d must pair up.
        assert index["c"] is index["d"]
        assert index["a"].count >= 2

    def test_mixed_group_sizes_reach_k5(self):
        ds = FingerprintDataset(
            [
                make_fp("g3", [(0.0, 0.0, 0.0)], count=3, members=("a", "b", "c")),
                make_fp("u1", [(100.0, 0.0, 1.0)]),
                make_fp("u2", [(200.0, 0.0, 2.0)]),
                make_fp("u3", [(300.0, 0.0, 3.0)]),
                make_fp("u4", [(400.0, 0.0, 4.0)]),
            ]
        )
        result = glove(ds, GloveConfig(k=5))
        assert result.dataset.is_k_anonymous(5)
        assert result.dataset.n_users == 7


class TestDegenerateGeometry:
    def test_all_identical_fingerprints(self):
        fps = [make_fp(f"u{i}", [(0.0, 0.0, 0.0), (5.0, 5.0, 5.0)]) for i in range(6)]
        result = glove(FingerprintDataset(fps), GloveConfig(k=3))
        assert result.dataset.is_k_anonymous(3)
        # Identical inputs merge at zero cost: traces stay intact.
        for fp in result.dataset:
            assert fp.m == 2

    def test_single_sample_users(self):
        fps = [make_fp(f"u{i}", [(i * 100.0, 0.0, float(i))]) for i in range(5)]
        result = glove(FingerprintDataset(fps), GloveConfig(k=2))
        assert result.dataset.is_k_anonymous(2)

    def test_wildly_unequal_lengths(self):
        long = make_fp("long", [(float(i), 0.0, float(i)) for i in range(40)])
        short = make_fp("short", [(0.0, 0.0, 0.0)])
        result = glove(FingerprintDataset([long, short]), GloveConfig(k=2))
        assert result.dataset.is_k_anonymous(2)
        assert result.dataset[0].m == 1  # bounded by the shorter parent

    def test_k_equals_population(self, small_civ):
        subset = FingerprintDataset(list(small_civ)[:5], name="five")
        result = glove(subset, GloveConfig(k=5))
        assert len(result.dataset) == 1
        assert result.dataset[0].count == 5


class TestLeftoverMerge:
    """The fold-in of a final non-anonymous leftover (see DESIGN.md)."""

    @staticmethod
    def _two_clusters_and_a_straggler():
        """Two tight pairs far apart plus a straggler near the second."""
        return FingerprintDataset(
            [
                make_fp("L1", [(0.0, 0.0, 0.0)]),
                make_fp("L2", [(10.0, 0.0, 1.0)]),
                make_fp("R1", [(80_000.0, 0.0, 0.0)]),
                make_fp("R2", [(80_010.0, 0.0, 1.0)]),
                make_fp("straggler", [(80_500.0, 0.0, 2.0)]),
            ]
        )

    def test_leftover_folds_into_nearest_finished_group(self):
        result = glove(self._two_clusters_and_a_straggler(), GloveConfig(k=2))
        assert result.stats.leftover_merged
        index = {m: fp for fp in result.dataset for m in fp.members}
        # The straggler must land in the right-hand group, not cross the
        # 80 km gap to the left-hand one.
        assert index["straggler"] is index["R1"]
        assert index["straggler"] is index["R2"]
        assert index["L1"] is index["L2"]

    def test_leftover_merge_counts_as_a_merge(self):
        result = glove(self._two_clusters_and_a_straggler(), GloveConfig(k=2))
        # Two pair merges plus the leftover fold.
        assert result.stats.n_merges == 3
        assert result.stats.n_output_fingerprints == 2
        assert result.dataset.is_k_anonymous(2)

    def test_leftover_group_exceeds_k(self):
        result = glove(self._two_clusters_and_a_straggler(), GloveConfig(k=2))
        counts = sorted(fp.count for fp in result.dataset)
        assert counts == [2, 3]

    @pytest.mark.parametrize("backend", ["numpy", "auto"])
    def test_leftover_path_identical_to_seed_path(self, backend):
        baseline = seed_glove(self._two_clusters_and_a_straggler(), GloveConfig(k=2))
        result = glove(
            self._two_clusters_and_a_straggler(),
            GloveConfig(k=2),
            ComputeConfig(backend=backend),
        )
        assert result.stats.leftover_merged
        assert len(result.dataset) == len(baseline.dataset)
        assert result.stats.leftover_merged == baseline.stats.leftover_merged
        for a, b in zip(result.dataset, baseline.dataset):
            assert a.members == b.members
            np.testing.assert_array_equal(a.data, b.data)

    def test_no_leftover_on_even_arithmetic(self, small_civ):
        # 40 single users at k=2: every merge of two singles reaches
        # count == 2 and finishes immediately, so the population pairs
        # up evenly and no fold-in is required.
        result = glove(small_civ, GloveConfig(k=2))
        assert result.stats.n_input_fingerprints == 40
        assert all(fp.count == 2 for fp in result.dataset)
        assert not result.stats.leftover_merged

    def test_leftover_with_pregrouped_absorber(self):
        # The only finished group available is a pre-grouped input.
        ds = FingerprintDataset(
            [
                make_fp("g", [(0.0, 0.0, 0.0)], count=3, members=("a", "b", "c")),
                make_fp("solo", [(50.0, 0.0, 1.0)]),
            ]
        )
        result = glove(ds, GloveConfig(k=3))
        assert result.stats.leftover_merged
        assert len(result.dataset) == 1
        assert result.dataset[0].count == 4


class TestCustomMetric:
    def test_custom_stretch_config_flows_through(self, small_civ):
        subset = FingerprintDataset(list(small_civ)[:10], name="ten")
        config = GloveConfig(
            k=2, stretch=StretchConfig(phi_max_sigma_m=5_000.0, phi_max_tau_min=120.0)
        )
        result = glove(subset, config)
        assert result.dataset.is_k_anonymous(2)
        assert result.config.stretch.phi_max_sigma_m == 5_000.0

    def test_results_differ_under_skewed_metric(self, small_civ):
        subset = FingerprintDataset(list(small_civ)[:14], name="fourteen")
        default = glove(subset, GloveConfig(k=2))
        skewed = glove(
            subset,
            GloveConfig(k=2, stretch=StretchConfig(w_sigma=0.95, w_tau=0.05)),
        )
        # A radically different metric generally changes the pairing.
        default_groups = {frozenset(fp.members) for fp in default.dataset}
        skewed_groups = {frozenset(fp.members) for fp in skewed.dataset}
        # Not asserted strictly equal/different — just that both are
        # valid partitions of the same user set.
        assert {m for g in default_groups for m in g} == {
            m for g in skewed_groups for m in g
        }
