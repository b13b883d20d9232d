"""Adaptive scheduling: warm runs plan from measured costs.

A second suite run over a warm persistent store plans longest-first from
*measured* per-sequent timings (the hint source is visible in the plan's
statistics), a cold run prices every class at ``default``, and none of it
may move a verdict -- the cost model only reorders dispatch, which the
differential harness (:mod:`test_scheduler_differential`) already pins
down for cold stores; here the warm-store variant is asserted too.

All wall-clock use is "did we measure anything", never "how fast" -- the
1-CPU container makes timing magnitudes meaningless (docs/performance.md).
"""

from __future__ import annotations

import dataclasses

from repro.provers.dispatch import default_portfolio
from repro.verifier.costmodel import HINT_DEFAULT, HINT_MEASURED
from repro.verifier.engine import VerificationEngine
from repro.verifier.report import format_suite
from repro.verifier.scheduler import plan_dispatch_order

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    make_engine,
    sequent_trace,
    structures,
)

CLASSES = FAST_CLASSES[:3]


def engine_with_store(tmp_path, jobs: int = 2) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        jobs=jobs,
        cache_dir=tmp_path,
    )


def test_cold_run_plans_at_the_default_cost(tmp_path):
    """Nothing measured yet: every class prices at the default cost, so
    the cold plan keeps input (catalogue) order."""
    engine = engine_with_store(tmp_path)
    classes = structures(CLASSES)
    engine.verify_suite(classes)
    stats = engine.last_run_stats
    assert {cls.hint_source for cls in stats.classes} == {HINT_DEFAULT}
    assert stats.schedule_order == [cls.name for cls in classes]
    engine.close()


def test_warm_second_run_plans_from_measured_profiles(tmp_path):
    classes = structures(CLASSES)
    first = engine_with_store(tmp_path)
    first.verify_suite(classes)
    first.close()

    second = engine_with_store(tmp_path)
    reports = second.verify_suite(classes)
    stats = second.last_run_stats
    # The acceptance assertion: every class's plan entry derives from
    # measured per-sequent profiles, and says so.
    assert {cls.hint_source for cls in stats.classes} == {HINT_MEASURED}
    assert all(cls.cost_hint > 0 for cls in stats.classes)
    # Fully warm: every class has zero *remaining* work, so the dispatch
    # order degenerates to input order (ties) -- and nothing dispatches.
    assert stats.schedule_order == [cls.class_name for cls in stats.classes]
    # The hint source is visible in the rendered plan too.
    rendered = format_suite(stats)
    assert "measured" in rendered and "hint src" in rendered
    # Nothing was dispatched -- the plan was measured, the answers warm.
    assert stats.dispatched == 0
    assert all(report.verified for report in reports)
    second.close()


def test_warm_store_differential_parity(tmp_path):
    """Verdicts/attribution with a warm store + active cost model equal a
    fresh sequential engine's (provenance aside: warm answers are disk
    hits)."""
    classes = structures(CLASSES)
    first = engine_with_store(tmp_path)
    first.verify_suite(classes)
    first.close()

    sequential = make_engine(jobs=1, use_cache=True)
    seq_reports = [sequential.verify_class(cls) for cls in classes]

    warm = engine_with_store(tmp_path, jobs=2)
    warm_reports = warm.verify_suite(classes)
    for seq_report, warm_report in zip(seq_reports, warm_reports):
        seq = sequent_trace(seq_report)
        wrm = sequent_trace(warm_report)
        # label/proved/refuted/prover must be identical; cached/origin
        # legitimately differ (the warm engine answers from disk).
        assert [entry[:6] for entry in seq] == [entry[:6] for entry in wrm]
        assert all(entry[6] for entry in wrm)  # everything cached
        assert {entry[7] for entry in wrm} == {"disk"}
    warm.close()


def test_non_catalogue_class_graduates_from_default_to_measured(tmp_path):
    """The DEFAULT_COST_HINT satellite: an unknown class schedules at the
    blind default only until the store has measured it once."""
    base = structures(("Array List",))[0]
    custom = dataclasses.replace(base, name="Custom Structure")

    first = engine_with_store(tmp_path)
    first.verify_suite([custom])
    cold = first.last_run_stats.classes[0]
    assert cold.hint_source == HINT_DEFAULT
    first.close()

    second = engine_with_store(tmp_path)
    second.verify_suite([custom])
    warm = second.last_run_stats.classes[0]
    assert warm.hint_source == HINT_MEASURED
    assert warm.cost_hint > 0
    second.close()


def test_measured_costs_update_same_engine_second_suite(tmp_path):
    """Within one engine, a repeat suite plans from the live observations
    even before anything is re-read from disk."""
    classes = structures(CLASSES[:2])
    engine = engine_with_store(tmp_path)
    engine.verify_suite(classes)
    assert {c.hint_source for c in engine.last_run_stats.classes} == {HINT_DEFAULT}
    engine.verify_suite(classes)
    assert {c.hint_source for c in engine.last_run_stats.classes} == {HINT_MEASURED}
    engine.close()


def test_dispatch_order_reflects_remaining_work_not_total_cost(tmp_path):
    """A mostly-warm expensive class must not lead a cold cheap class:
    the ordering cost is scaled by the dispatched fraction."""
    warm_cls, cold_cls = structures(CLASSES[:2])
    first = engine_with_store(tmp_path)
    first.verify_suite([warm_cls])  # warm only the first class
    first.close()

    second = engine_with_store(tmp_path)
    second.verify_suite([warm_cls, cold_cls])
    stats = second.last_run_stats
    by_name = {cls.class_name: cls for cls in stats.classes}
    assert by_name[warm_cls.name].dispatched == 0
    assert by_name[cold_cls.name].dispatched > 0
    # The cold class's real work leads, regardless of total-cost hints.
    assert stats.schedule_order[0] == cold_cls.name
    second.close()


def test_reprofile_tracks_edited_classes(tmp_path):
    """Profiles follow the *current* class: re-running after sequents
    change rebuilds the profile instead of accumulating forever."""
    cls = structures(CLASSES[:1])[0]
    engine = engine_with_store(tmp_path)
    engine.verify_suite([cls])
    first = engine.cost_model.profiles[cls.name]
    engine.verify_suite([cls])  # warm repeat: identical ground truth
    second = engine.cost_model.profiles[cls.name]
    assert second.sequents == first.sequents
    assert second.wall == first.wall
    engine.close()


def test_profile_only_changes_do_not_flush(tmp_path):
    """Class profiles live in memory only, so a cost-model change alone
    must not re-save the store: a fully cached run would otherwise
    rewrite it after every request."""
    engine = engine_with_store(tmp_path, jobs=1)
    (cls,) = structures(("Array List",))
    engine.verify_class(cls)
    assert engine.flush_persistent_cache() == 0  # the run already saved
    path = engine.persistent_store.path
    before = path.read_bytes()
    engine.cost_model.observe("f" * 64, wall=1.0, cpu=0.9)
    engine.cost_model.reprofile("Phantom Class", ["f" * 64])
    assert engine.flush_persistent_cache() == 0
    assert path.read_bytes() == before
    engine.close()


def test_plan_dispatch_order_accepts_explicit_costs():
    classes = structures(CLASSES)
    order = plan_dispatch_order(classes, costs=[1.0, 3.0, 2.0])
    assert order == [1, 2, 0]
    # Ties break by input order.
    assert plan_dispatch_order(classes, costs=[1.0, 1.0, 1.0]) == [0, 1, 2]


def test_measured_sequents_dispatch_longest_first_within_class(tmp_path):
    """When dispatched sequents have measured timings (store warm but the
    verdict cache cold: persist=True, cache read skipped via no_cache on
    the second engine is impossible -- instead we drop the verdict cache
    preload by clearing it), the within-class dispatch order is longest
    first."""
    classes = structures(("Array List",))
    first = engine_with_store(tmp_path)
    first.verify_suite(classes)
    first.close()

    second = engine_with_store(tmp_path)
    # Forget the preloaded verdicts but keep the cost model's timings:
    # every sequent misses the cache and is dispatched, now with a
    # measured cost attached.
    second.portfolio.proof_cache.clear()
    second.verify_suite(classes)
    stats = second.last_run_stats
    assert stats.dispatched > 0
    assert stats.classes[0].hint_source == HINT_MEASURED
    second.close()
