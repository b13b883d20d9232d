"""Unit tests for the measured cost model and its data structures.

The two cost sources (measured -> default), the per-class profiles that
:meth:`CostModel.reprofile` rebuilds, and the latency histogram that
feeds the daemon's ``metrics`` op.
"""

from __future__ import annotations

import json

from repro.provers.cache import CachedVerdict
from repro.verifier.costmodel import (
    DEFAULT_COST,
    HINT_DEFAULT,
    HINT_MEASURED,
    ClassCostProfile,
    CostModel,
)
from repro.verifier.stats import LATENCY_BUCKETS, LatencyHistogram

KEY_A = "a" * 64
KEY_B = "b" * 64
KEY_C = "c" * 64


class TestFallbackChain:
    def test_default_for_totally_unknown_class(self):
        model = CostModel()
        assert model.class_cost([]) == (DEFAULT_COST, HINT_DEFAULT)

    def test_measured_sequents_beat_everything(self):
        model = CostModel()
        model.observe(KEY_A, wall=2.0, cpu=1.9)
        cost, source = model.class_cost([KEY_A])
        assert source == HINT_MEASURED
        assert cost == 2.0

    def test_unmeasured_stragglers_estimated_at_measured_mean(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=1.0)
        model.observe(KEY_B, wall=3.0, cpu=3.0)
        # Two measured (sum 4, mean 2) plus two unknown -> 4 + 2*2.
        cost, source = model.class_cost([KEY_A, KEY_B, KEY_C, None])
        assert source == HINT_MEASURED
        assert cost == 8.0

    def test_keys_without_any_coverage_fall_through(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=1.0)
        assert model.class_cost([KEY_B, KEY_C]) == (DEFAULT_COST, HINT_DEFAULT)

    def test_ingested_store_timings_make_a_class_measured(self):
        # A warm store prices a class before anything runs in this process.
        model = CostModel()
        model.ingest_entries(
            {
                KEY_A: CachedVerdict(True, False, "smt", wall=0.5, cpu=0.4),
                KEY_B: CachedVerdict(True, False, "smt", wall=1.5, cpu=1.4),
            }
        )
        assert model.class_cost([KEY_A, KEY_B]) == (2.0, HINT_MEASURED)


class TestObservation:
    def test_observe_accumulates_distinct_sequents(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=0.9)
        model.observe(KEY_B, wall=2.0, cpu=1.8)
        assert model.sequent_wall == {KEY_A: 1.0, KEY_B: 2.0}
        assert model.class_cost([KEY_A, KEY_B]) == (3.0, HINT_MEASURED)
        model.reprofile("X", [KEY_A, KEY_B])
        profile = model.profiles["X"]
        assert (profile.wall, profile.cpu, profile.sequents) == (3.0, 2.7, 2)

    def test_reobserving_a_key_refreshes_timing(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=1.0)
        model.observe(KEY_A, wall=5.0, cpu=5.0)
        assert model.sequent_cost(KEY_A) == 5.0

    def test_disk_keys_never_double_count_into_profiles(self):
        # A re-dispatch of a key the store already timed (e.g. after
        # eviction from the verdict cache) refreshes its timing; the
        # class profile still counts the sequent once.
        model = CostModel()
        model.ingest_entries(
            {KEY_A: CachedVerdict(True, False, "smt", wall=1.5, cpu=1.4)}
        )
        model.observe(KEY_A, wall=1.7, cpu=1.6)
        model.reprofile("X", [KEY_A])
        assert model.sequent_cost(KEY_A) == 1.7
        profile = model.profiles["X"]
        assert (profile.wall, profile.cpu, profile.sequents) == (1.7, 1.6, 1)

    def test_unmeasured_entries_are_skipped_on_ingest(self):
        model = CostModel()
        model.ingest_entries(
            {
                KEY_A: CachedVerdict(True, False, "smt", wall=0.0, cpu=0.0),
                KEY_B: CachedVerdict(True, False, "smt", wall=0.25, cpu=0.2),
            }
        )
        assert model.sequent_cost(KEY_A) is None
        assert model.sequent_cost(KEY_B) == 0.25

    def test_zero_wall_and_keyless_observations_are_ignored(self):
        model = CostModel()
        model.observe(KEY_A, wall=0.0, cpu=0.0)
        model.observe(None, wall=1.0, cpu=1.0)
        assert model.sequent_wall == {}
        assert model.sequent_cost(KEY_A) is None

    def test_reprofile_replaces_stale_accumulation(self):
        # A class whose sequents changed: the profile follows the current
        # fingerprint set, not every key the class ever had.
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=0.9)
        model.observe(KEY_B, wall=2.0, cpu=1.8)
        model.observe(KEY_C, wall=50.0, cpu=45.0)
        model.reprofile("X", [KEY_A, KEY_B, KEY_C])
        model.reprofile("X", [KEY_A, KEY_B])
        profile = model.profiles["X"]
        assert (profile.wall, profile.cpu, profile.sequents) == (3.0, 2.7, 2)

    def test_reprofile_is_idempotent(self):
        # Re-running over the same ground truth leaves profile and timings
        # as they were.
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=0.9)
        model.observe(KEY_B, wall=2.0, cpu=1.8)
        model.reprofile("X", [KEY_A, KEY_B])
        before = (dict(model.profiles), dict(model.sequent_wall))
        model.reprofile("X", [KEY_A, KEY_B])
        assert (model.profiles, model.sequent_wall) == before

    def test_reprofile_without_measured_keys_keeps_existing_profile(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=1.0)
        model.reprofile("X", [KEY_A])
        model.reprofile("X", [KEY_B, None])
        assert model.profiles["X"].wall == 1.0


class TestSnapshots:
    def test_as_dict_is_json_ready(self):
        model = CostModel()
        model.observe(KEY_A, wall=1.0, cpu=0.5)
        model.reprofile("X", [KEY_A])
        payload = json.loads(json.dumps(model.as_dict()))
        assert payload["sequent_timings"] == 1
        assert payload["classes"]["X"]["mean_wall"] == 1.0

    def test_mean_wall(self):
        assert ClassCostProfile().mean_wall == 0.0
        assert ClassCostProfile(wall=4.0, cpu=3.0, sequents=2).mean_wall == 2.0


class TestLatencyHistogram:
    def test_bands_and_summary(self):
        histogram = LatencyHistogram()
        histogram.add(0.005)   # first band
        histogram.add(0.05)    # <= 0.1
        histogram.add(2.0)     # <= 3
        histogram.add(1000.0)  # overflow
        payload = histogram.as_dict()
        assert payload["count"] == 4
        assert payload["max"] == 1000.0
        assert payload["buckets"][-1] == ["inf", 1]
        by_bound = dict(tuple(pair) for pair in payload["buckets"][:-1])
        assert by_bound[0.01] == 1
        assert by_bound[0.1] == 1
        assert by_bound[3.0] == 1
        assert sum(count for _, count in payload["buckets"]) == 4

    def test_mean_tracks_total(self):
        histogram = LatencyHistogram()
        for value in (1.0, 2.0, 3.0):
            histogram.add(value)
        assert histogram.mean == 2.0

    def test_bucket_bounds_are_sorted(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
