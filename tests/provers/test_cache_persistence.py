"""Tests for the persistent (cross-run) proof cache store.

Covers the satellite checklist: round-trip save/load, version and
portfolio mismatches degrading to a cold start (never a crash), corrupted
and truncated cache files, concurrent writer atomicity, and the
engine-level wiring (disk-hit provenance, ``persist=False`` read-only
mode).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random

import pytest

from repro.provers.cache import (
    CACHE_FORMAT_VERSION,
    FINGERPRINT_VERSION,
    CachedVerdict,
    PersistentCacheStore,
    ProofCache,
)
from repro.provers.dispatch import PortfolioSpec, default_portfolio
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine


def key(*parts) -> str:
    """A stand-in fingerprint: any 64-hex-character digest is a valid key."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def sample_entries() -> dict[str, CachedVerdict]:
    return {
        key("a"): CachedVerdict(True, False, "smt", wall=0.125, cpu=0.118),
        key("b"): CachedVerdict(False, True, "model-finder"),
        key("c"): CachedVerdict(False, False, ""),
    }


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4;fol:2")
        entries = sample_entries()
        assert store.save(entries) == len(entries)
        loaded = PersistentCacheStore(tmp_path, "smt:4;fol:2").load()
        assert set(loaded) == set(entries)
        for key, verdict in entries.items():
            assert loaded[key].proved == verdict.proved
            assert loaded[key].refuted == verdict.refuted
            assert loaded[key].winning_prover == verdict.winning_prover
            # Measured timings survive the round trip (0.0 when the
            # sequent was never actually dispatched).
            assert loaded[key].wall == verdict.wall
            assert loaded[key].cpu == verdict.cpu
            # Provenance is rewritten on load.
            assert loaded[key].origin == "disk"

    def test_saved_store_has_no_profiles_section(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        assert payload["format"] == CACHE_FORMAT_VERSION == 5
        assert set(payload) == {
            "format",
            "fingerprint_version",
            "portfolio",
            "dependencies",
            "entries",
        }

    def test_stray_profiles_section_is_dropped_on_save(self, tmp_path):
        # A current-format store that still carries a ``profiles`` key
        # (hand-edited, say) loads warm; the next merge-save drops it.
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload["profiles"] = {"Cell": {"wall": 0.5, "cpu": 0.4, "sequents": 1}}
        store.path.write_text(json.dumps(payload))
        assert set(store.load()) == set(sample_entries())
        assert store.last_load_status == f"warm:{len(sample_entries())}"
        store.save({key("d"): CachedVerdict(True, False, "smt")})
        payload = json.loads(store.path.read_text())
        assert "profiles" not in payload
        assert len(payload["entries"]) == len(sample_entries()) + 1

    def test_damaged_dependency_records_are_skipped(self, tmp_path):
        def record(fingerprint):
            return {
                "artifacts": {"state": "1f62", "invariants": "9c01"},
                "methods": [
                    ["get", {"digest": "77aa", "sequents": [["Post", fingerprint]]}]
                ],
            }

        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(
            sample_entries(),
            dependencies={
                "Good": record(key("a")),
                "Nested": record([["i", 1]]),
                "Short": record(key("a")[:16]),
                "Worse": "not even a mapping",
            },
        )
        assert set(store.load()) == set(sample_entries())
        assert store.last_dependencies == {"Good": record(key("a"))}

    def test_old_format_store_cold_starts_cleanly(self, tmp_path):
        """Older stores must be discarded as a cold start, never misread
        or crashed on: format 1 (no timings, no profiles), format 3
        (structural-tuple fingerprints as nested arrays, with profiles and
        a dependency index) and format 4 (digest keys with a per-class
        ``profiles`` section)."""
        old_fingerprint = [
            [["a", "lt", "bool", [["v", "x", "int"], ["i", 1]]]],
            ["t", True],
        ]
        old_payloads = {
            "v1": {
                "format": 1,
                "fingerprint_version": FINGERPRINT_VERSION,
                "portfolio": "smt:4",
                "entries": [
                    [[["i", 1]], {"proved": True, "refuted": False, "prover": "smt"}]
                ],
            },
            "v3": {
                "format": 3,
                "fingerprint_version": 1,
                "portfolio": "smt:4",
                "profiles": {"Cell": {"wall": 0.5, "cpu": 0.4, "sequents": 1}},
                "dependencies": {
                    "Cell": {
                        "artifacts": {"state": "1f62", "invariants": "9c01"},
                        "methods": [
                            [
                                "get",
                                {
                                    "digest": "77aa",
                                    "sequents": [["Post", old_fingerprint]],
                                },
                            ]
                        ],
                    }
                },
                "entries": [
                    [
                        old_fingerprint,
                        {
                            "proved": True,
                            "refuted": False,
                            "prover": "smt",
                            "wall": 0.5,
                            "cpu": 0.4,
                        },
                    ]
                ],
            },
            "v4": {
                "format": 4,
                "fingerprint_version": FINGERPRINT_VERSION,
                "portfolio": "smt:4",
                "profiles": {"Cell": {"wall": 0.5, "cpu": 0.4, "sequents": 1}},
                "dependencies": {},
                "entries": [[key("a"), True, False, "smt", 0.5, 0.4]],
            },
        }
        for name, old_payload in old_payloads.items():
            store = PersistentCacheStore(tmp_path / name, "smt:4")
            store.path.parent.mkdir(parents=True, exist_ok=True)
            store.path.write_text(json.dumps(old_payload))
            assert store.load() == {}, name
            assert store.last_load_status == "cold:format-mismatch", name
            assert store.last_dependencies == {}
            # A save over the old store recovers to the current format.
            store.save(sample_entries())
            assert len(store.load()) == len(sample_entries())
            assert store.last_load_status.startswith("warm:")

    def test_entries_without_timing_fields_load_as_unmeasured(self, tmp_path):
        """Entry-level tolerance: a store whose entry rows lack wall/cpu
        (e.g. hand-edited) still loads, with timings defaulting to 0."""
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload["entries"] = [row[:4] for row in payload["entries"]]
        store.path.write_text(json.dumps(payload))
        loaded = store.load()
        assert set(loaded) == set(sample_entries())
        assert all(v.wall == 0.0 and v.cpu == 0.0 for v in loaded.values())

    def test_missing_file_is_cold(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        assert store.load() == {}
        assert store.last_load_status == "cold:missing"

    def test_merge_accumulates_across_saves(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        first = {key(1): CachedVerdict(True, False, "smt")}
        second = {key(2): CachedVerdict(False, False, "fol")}
        store.save(first)
        store.save(second)
        assert set(store.load()) == set(first) | set(second)

    def test_save_without_merge_replaces(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k")
        store.save({key(1): CachedVerdict(True, False, "smt")})
        store.save({key(2): CachedVerdict(True, False, "smt")}, merge=False)
        assert set(store.load()) == {key(2)}

    def test_merge_saves_do_not_clobber_load_status(self, tmp_path):
        # Regression: merge-saves re-read the file internally; that must
        # not rewrite the cold/warm diagnostic of the *explicit* load.
        store = PersistentCacheStore(tmp_path, "k")
        assert store.load() == {}
        assert store.last_load_status == "cold:missing"
        store.save({key(1): CachedVerdict(True, False, "smt")})
        store.save({key(2): CachedVerdict(True, False, "smt")})
        assert store.last_load_status == "cold:missing"

    def test_save_caps_store_size_keeping_new_entries(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "k", max_entries=4)
        store.save({key(n): CachedVerdict(True, False, "smt") for n in range(4)})
        store.save({key(99): CachedVerdict(True, False, "fol")})
        loaded = store.load()
        assert len(loaded) == 4
        assert key(99) in loaded

    def test_store_keeps_newest_entries_at_the_cap(self, tmp_path):
        """10^5 saved verdicts: the newest ``MAX_ENTRIES`` survive, load
        back intact, and the file stays compact (no timing assertion)."""
        total = 100_000
        rng = random.Random(0)
        entries = {
            key(n): CachedVerdict(
                n % 3 == 0,
                n % 7 == 0,
                ("smt", "sets", "fol")[n % 3],
                wall=round(rng.random() * 10, 6),
                cpu=round(rng.random() * 10, 6),
            )
            for n in range(total)
        }
        store = PersistentCacheStore(tmp_path, "k")
        assert store.save(entries) == PersistentCacheStore.MAX_ENTRIES
        loaded = PersistentCacheStore(tmp_path, "k").load()
        newest = list(entries)[-PersistentCacheStore.MAX_ENTRIES :]
        assert list(loaded) == newest
        for digest in newest[:: total // 100]:
            expected, got = entries[digest], loaded[digest]
            assert (got.proved, got.refuted, got.winning_prover) == (
                expected.proved,
                expected.refuted,
                expected.winning_prover,
            )
            assert (got.wall, got.cpu) == (expected.wall, expected.cpu)
        assert store.path.stat().st_size <= 160 * len(loaded)

    def test_preload_never_fills_cache_to_eviction_point(self):
        # Regression: an over-large store must not preload the cache so
        # full that the first new verdict's store() wipes every entry.
        cache = ProofCache(max_entries=8)
        cache.preload(
            {key(n): CachedVerdict(True, False, "smt") for n in range(20)}
        )
        assert 0 < len(cache) < 8
        cache.store(key(100), CachedVerdict(True, False, "smt"))
        assert cache.lookup(key(0)) is not None  # preload survived


class TestInvalidation:
    def _write_payload(self, tmp_path, **overrides):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        payload.update(overrides)
        store.path.write_text(json.dumps(payload))
        return store

    def test_fingerprint_version_mismatch_cold_start(self, tmp_path):
        store = self._write_payload(
            tmp_path, fingerprint_version=FINGERPRINT_VERSION + 1
        )
        assert store.load() == {}
        assert store.last_load_status == "cold:fingerprint-mismatch"

    def test_format_version_mismatch_cold_start(self, tmp_path):
        store = self._write_payload(tmp_path, format=CACHE_FORMAT_VERSION + 1)
        assert store.load() == {}
        assert store.last_load_status == "cold:format-mismatch"

    def test_portfolio_mismatch_cold_start(self, tmp_path):
        self._write_payload(tmp_path)
        other = PersistentCacheStore(tmp_path, "smt:8;fol:2")
        assert other.load() == {}
        assert other.last_load_status == "cold:portfolio-mismatch"

    def test_portfolio_key_tracks_timeout_scaling(self):
        base = default_portfolio()
        assert (
            PortfolioSpec.from_portfolio(base).cache_key
            != PortfolioSpec.from_portfolio(base.scaled(0.5)).cache_key
        )


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "content",
        [
            "",  # empty file
            "{",  # truncated JSON
            "[]",  # wrong top-level type
            "null",
            '{"format": 1}',  # missing fields
            "\x00\x01\x02 binary junk",
        ],
        ids=["empty", "truncated", "list", "null", "partial", "binary"],
    )
    def test_corrupt_file_cold_start(self, tmp_path, content):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(content)
        assert store.load() == {}
        assert store.last_load_status.startswith("cold:")

    def test_truncated_after_valid_save(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        raw = store.path.read_text()
        store.path.write_text(raw[: len(raw) // 2])
        assert store.load() == {}
        # A save over the truncated file recovers cleanly.
        store.save(sample_entries())
        assert len(store.load()) == len(sample_entries())

    def test_damaged_individual_entries_are_skipped(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        payload = json.loads(store.path.read_text())
        damaged = [
            ["not-a-fingerprint", True, False, "smt", 0.1, 0.1],
            [key(9).upper(), True, False, "smt", 0.1, 0.1],
            [key(9)[:-1], True, False, "smt", 0.1, 0.1],
            [key(9), "yes", False, "smt", 0.1, 0.1],
            [key(9), True, False, None, 0.1, 0.1],
            [key(9), True, False, "smt", "slow", 0.1],
            [key(9), True, False, "smt", 0.1],
            [key(9), {"proved": True, "refuted": False, "prover": "smt"}],
            [[["i", 9]], {"proved": True, "refuted": False, "prover": "x"}],
            "not even a row",
            7,
        ]
        payload["entries"].extend(damaged)
        store.path.write_text(json.dumps(payload))
        loaded = store.load()
        assert set(loaded) == set(sample_entries())

    def test_no_temp_files_left_behind(self, tmp_path):
        store = PersistentCacheStore(tmp_path, "smt:4")
        store.save(sample_entries())
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


def _concurrent_writer(args) -> int:
    directory, writer_id = args
    store = PersistentCacheStore(directory, "shared-key")
    for round_number in range(5):
        entries = {
            key(writer_id, round_number): CachedVerdict(
                True, False, f"writer-{writer_id}"
            )
        }
        store.save(entries)
    return writer_id


class TestConcurrentWriters:
    def test_file_stays_valid_under_concurrent_saves(self, tmp_path):
        with multiprocessing.Pool(3) as pool:
            pool.map(_concurrent_writer, [(str(tmp_path), i) for i in range(3)])
        store = PersistentCacheStore(tmp_path, "shared-key")
        loaded = store.load()
        # The file is valid JSON with a coherent schema no matter how the
        # writers interleaved...
        assert store.last_load_status.startswith("warm:")
        # ...and the inter-process write lock makes merge-on-save atomic:
        # the union of every writer's batches survives.
        assert set(loaded) == {
            key(writer, round_number)
            for writer in range(3)
            for round_number in range(5)
        }


class TestEngineWiring:
    @pytest.fixture(scope="class")
    def linked_list(self):
        return next(c for c in all_structures() if c.name == "Linked List")

    def _engine(self, tmp_path, **kwargs) -> VerificationEngine:
        return VerificationEngine(
            default_portfolio().scaled(0.4), cache_dir=tmp_path, **kwargs
        )

    def test_second_run_hits_disk_with_identical_verdicts(self, tmp_path, linked_list):
        first = self._engine(tmp_path)
        cold = first.verify_class(linked_list)
        assert first.run_stats_total.hits_disk == 0

        second = self._engine(tmp_path)
        warm = second.verify_class(linked_list)
        stats = second.run_stats_total
        assert stats.hits_disk == stats.sequents_total > 0
        assert stats.dispatched == 0  # no prover ever ran
        assert not any(o.dispatch.attempts for m in warm.methods for o in m.outcomes)
        assert [
            (o.sequent.label, o.proved, o.prover)
            for m in cold.methods for o in m.outcomes
        ] == [
            (o.sequent.label, o.proved, o.prover)
            for m in warm.methods for o in m.outcomes
        ]
        warm_hits = [o.dispatch.cache_origin for m in warm.methods for o in m.outcomes]
        assert set(warm_hits) == {"disk"}

    def test_no_persist_is_read_only(self, tmp_path, linked_list):
        engine = self._engine(tmp_path, persist=False)
        engine.verify_class(linked_list)
        assert engine.persistent_store is not None
        assert not engine.persistent_store.path.exists()

    def test_parallel_and_persistent_compose(self, tmp_path, linked_list):
        first = self._engine(tmp_path, jobs=2)
        first.verify_class(linked_list)
        second = self._engine(tmp_path, jobs=2)
        second.verify_class(linked_list)
        stats = second.last_run_stats
        assert stats.dispatched == 0
        assert stats.hits_disk == stats.sequents_total
