"""Incremental verification: the plan/execute split, the dependency
index, and dirty-sequent replanning.

The acceptance-critical differential: after a one-method edit, the
incremental run's verdicts are bit-identical to a cold full re-run of
the edited class, and the dirty/clean accounting matches the fingerprint
diff of the two plans exactly -- nothing more re-proves than the edit
invalidated, and nothing less.
"""

from __future__ import annotations

from repro.provers.dispatch import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier.engine import VerificationEngine
from repro.verifier.scheduler import execute_suite, plan_suite

TIMEOUT_SCALE = 0.4

BASE_ENSURES = "value = 0"
#: Still provable (reset ghost-assigns 0 into history), but a different
#: postcondition: the edit splits ``reset:Post`` and mints exactly one
#: fingerprint the base class never produced.
EDITED_ENSURES = "value = 0 & 0 in history"


def build_counter(reset_ensures: str = BASE_ENSURES, note: bool = False):
    s = StructureBuilder("Counter")
    s.concrete("value", "int")
    s.concrete("limit", "int")
    s.ghost("history", "int set")
    s.invariant("InRange", "0 <= value & value <= limit")
    s.invariant("Recorded", "value in history")
    m = s.method(
        "increment",
        requires="value < limit",
        modifies="value, history",
        ensures="value = old value + 1 & old value in history",
    )
    m.assign("value", "value + 1")
    if note:
        m.note("Bumped", "value = old value + 1")
    m.ghost_assign("history", "history Un {value}")
    m.done()
    m = s.method(
        "reset",
        requires="0 <= limit",
        modifies="value, history",
        ensures=reset_ensures,
    )
    m.assign("value", "0")
    m.ghost_assign("history", "history Un {0}")
    m.done()
    return s.build()


def make_engine(**kwargs) -> VerificationEngine:
    portfolio = default_portfolio().scaled(TIMEOUT_SCALE)
    return VerificationEngine(portfolio, **kwargs)


def verdicts(report):
    """The bit-comparable view: (method, label, proved, refuted, prover)."""
    return [
        (
            method.method_name,
            outcome.sequent.label,
            outcome.proved,
            outcome.dispatch.refuted,
            outcome.prover,
        )
        for method in report.methods
        for outcome in method.outcomes
    ]


# -- plan / execute split ---------------------------------------------------------


def planned_fingerprints(cls) -> set[str]:
    plan = plan_suite(make_engine(), [cls])
    return {slot.fingerprint for _, slots in plan.planned for slot in slots}


def test_plan_entries_and_execute_match_full_verify():
    engine = make_engine()
    plan = plan_suite(engine, [build_counter()])
    ((cls, slots),) = plan.planned
    assert {cls.methods[slot.method_index].name for slot in slots} == {
        "increment",
        "reset",
    }
    # Cold engine: every unique sequent is planned for dispatch.
    assert 0 < len(plan.shard) == sum(1 for s in slots if s.shard_index is not None)
    (report,), run_stats = execute_suite(engine, plan, 1)
    assert run_stats.dispatched == len(plan.shard)
    baseline = make_engine().verify_class(build_counter())
    assert verdicts(report) == verdicts(baseline)
    # Replanning on the warm engine answers everything from the cache.
    warm = plan_suite(engine, [build_counter()])
    assert warm.shard == []
    assert {slot.fingerprint for slot in warm.planned[0][1]} == {
        slot.fingerprint for slot in slots
    }


def test_strip_proofs_plan_does_not_overwrite_dependency_record():
    engine = make_engine()
    engine.verify_class(build_counter())
    record = engine.dependency_index.get("Counter")
    assert record is not None
    engine.verify_class(build_counter(), strip_proofs=True)
    # The ablation run must not poison the real program's record.
    assert engine.dependency_index.get("Counter") == record


def test_strip_proofs_run_keeps_the_cost_profile():
    """The ablation verifies a different program under the same class
    name, so it must not replace the class's measured cost either."""
    cls = build_counter(note=True)
    engine = make_engine()
    report = engine.verify_class(cls)
    assert report.verified
    profile = engine.cost_model.profiles[cls.name]
    engine.verify_class(cls, strip_proofs=True)
    assert engine.last_run_stats.dispatched > 0  # a different program
    assert engine.cost_model.profiles[cls.name] == profile


# -- incremental runs -------------------------------------------------------------


def test_cold_incremental_matches_full_run():
    engine = make_engine()
    report, stats = engine.verify_class_incremental(build_counter())
    assert stats.cold_start
    assert stats.sequents_clean == 0 and stats.methods_skipped == 0
    baseline = make_engine().verify_class(build_counter())
    assert verdicts(report) == verdicts(baseline)


def test_unchanged_class_resolves_fully_clean():
    engine = make_engine()
    full = engine.verify_class(build_counter())
    report, stats = engine.verify_class_incremental(build_counter())
    assert not stats.cold_start
    assert stats.dispatched == 0
    assert stats.sequents_dirty == 0 and not stats.dirty_labels
    assert stats.methods_skipped == stats.methods_total == 2
    assert stats.sequents_clean == stats.sequents_total == full.sequents_total
    assert verdicts(report) == verdicts(full)


def test_incremental_run_reports_through_the_one_stats_record():
    """An incremental run is an ordinary plan/execute run: it becomes the
    engine's last run and folds into the running total."""
    engine = make_engine()
    engine.verify_class(build_counter())
    first = engine.last_run_stats
    _, delta = engine.verify_class_incremental(build_counter(EDITED_ENSURES))
    stats = engine.last_run_stats
    assert stats is not first
    assert stats.sequents_total == delta.sequents_total
    assert stats.dispatched == delta.dispatched == 1
    total = engine.run_stats_total
    assert total.sequents_total == first.sequents_total + stats.sequents_total
    assert total.dispatched == first.dispatched + stats.dispatched


def test_one_method_edit_reproves_exactly_the_fingerprint_diff():
    engine = make_engine()
    engine.verify_class(build_counter())
    edited = build_counter(EDITED_ENSURES)
    report, stats = engine.verify_class_incremental(edited)

    # Differential: bit-identical to a cold full run of the edited class.
    baseline = make_engine().verify_class(edited)
    assert verdicts(report) == verdicts(baseline)
    assert report.verified

    # The dirty set is exactly the plan-level fingerprint diff.
    dirty_fps = planned_fingerprints(edited) - planned_fingerprints(build_counter())
    assert stats.sequents_dirty == len(dirty_fps) == 1
    assert stats.dispatched == len(dirty_fps)
    assert stats.dirty_labels == ["reset:Post.2"]
    assert stats.sequents_clean == stats.sequents_total - stats.sequents_dirty
    # The untouched method never regenerated its sequents.
    assert stats.methods_skipped == 1


def test_dependency_index_persists_across_engines(tmp_path):
    with make_engine(cache_dir=tmp_path) as first:
        first.verify_class(build_counter())
    with make_engine(cache_dir=tmp_path) as second:
        report, stats = second.verify_class_incremental(build_counter())
        assert not stats.cold_start
        assert stats.dispatched == 0
        assert stats.sequents_clean == stats.sequents_total
        assert report.verified
        # Clean resolutions are accounted as (disk-loaded) cache hits.
        counters = second.run_stats_total.counters()
        assert counters["proof_cache_hits"] == stats.sequents_clean
        assert counters["proof_cache_hits_disk"] == stats.sequents_clean
    with make_engine(cache_dir=tmp_path) as third:
        _, stats = third.verify_class_incremental(build_counter(EDITED_ENSURES))
        assert not stats.cold_start
        assert stats.dispatched == 1
        assert stats.dirty_labels == ["reset:Post.2"]


def test_suite_run_seeds_the_incremental_index():
    engine = make_engine()
    engine.verify_suite([build_counter()], jobs=1)
    _, stats = engine.verify_class_incremental(build_counter())
    assert not stats.cold_start
    assert stats.dispatched == 0
    assert stats.sequents_clean == stats.sequents_total
