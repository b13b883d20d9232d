"""Differential harness: suite scheduling must equal per-class sequential runs.

The suite scheduler (:mod:`repro.verifier.scheduler`) plans the whole
catalogue as one job graph and interleaves dispatch longest-class-first.
None of that may be observable in the results: for every ``jobs`` value, a
``verify_suite`` run must produce per-sequent verdicts, prover attribution,
cache provenance and portfolio counters bit-identical to a fresh engine
calling ``verify_class`` on the same classes in the same order.

Fast classes run in tier 1; the full catalogue at ``jobs in {1, 2, 4}`` is
marked ``slow`` (run it with ``pytest -m slow``).
"""

from __future__ import annotations

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine
from repro.verifier.scheduler import plan_dispatch_order

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    aggregate_trace,
    make_engine,
    sequent_trace,
    statistics_trace,
    structures,
)


def assert_suite_differential(classes, jobs: int, use_cache: bool = True) -> None:
    sequential = make_engine(jobs=1, use_cache=use_cache)
    seq_reports = [sequential.verify_class(cls) for cls in classes]
    suite = make_engine(jobs=jobs, use_cache=use_cache)
    suite_reports = suite.verify_suite(classes)
    for seq_report, suite_report in zip(seq_reports, suite_reports):
        assert sequent_trace(seq_report) == sequent_trace(suite_report)
        assert aggregate_trace(seq_report) == aggregate_trace(suite_report)
    assert statistics_trace(sequential) == statistics_trace(suite)
    stats = suite.last_run_stats
    assert stats is not None
    assert stats.jobs == jobs
    # Every sequent is accounted for exactly once.
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    assert sum(cls.sequents for cls in stats.classes) == stats.sequents_total
    assert sum(cls.dispatched for cls in stats.classes) == stats.dispatched


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_fast_classes_suite_differential(jobs):
    assert_suite_differential(structures(FAST_CLASSES), jobs=jobs)


def test_fast_classes_suite_differential_cache_off():
    # Without a cache nothing may be deduplicated either -- the sequential
    # loop re-proves every duplicate, so the suite must ship them all.
    classes = structures(FAST_CLASSES[:2])
    sequential = make_engine(jobs=1, use_cache=False)
    seq_reports = [sequential.verify_class(cls) for cls in classes]
    suite = make_engine(jobs=2, use_cache=False)
    suite_reports = suite.verify_suite(classes)
    for seq_report, suite_report in zip(seq_reports, suite_reports):
        assert sequent_trace(seq_report) == sequent_trace(suite_report)
    stats = suite.last_run_stats
    assert stats.duplicates_folded == 0
    assert stats.dispatched == stats.sequents_total


def test_suite_equals_per_class_parallel():
    """Suite scheduling and per-class sharding agree with each other too."""
    classes = structures(FAST_CLASSES)
    per_class = make_engine(jobs=2, use_cache=True)
    per_class_reports = [per_class.verify_class(cls) for cls in classes]
    suite = make_engine(jobs=2, use_cache=True)
    suite_reports = suite.verify_suite(classes)
    for a, b in zip(per_class_reports, suite_reports):
        assert sequent_trace(a) == sequent_trace(b)
    assert statistics_trace(per_class) == statistics_trace(suite)


def test_dispatch_order_is_longest_class_first():
    classes = all_structures()
    costs = [float(index % 3) for index in range(len(classes))]
    order = plan_dispatch_order(classes, costs)
    assert [costs[index] for index in order] == sorted(costs, reverse=True)
    # Ties keep input order.
    assert order[:3] == [2, 5, 1]


def test_suite_report_order_is_input_order():
    classes = structures(FAST_CLASSES)
    engine = make_engine(jobs=2, use_cache=True)
    engine.verify_suite(classes)
    # Make the last class by far the costliest measured one, then re-run
    # with a cold verdict cache so every class has work to order.
    cache = engine.portfolio.proof_cache
    for _, record in engine.dependency_index.get(classes[-1].name)["methods"]:
        for _, fingerprint in record["sequents"]:
            engine.cost_model.observe(cache.key_for_fingerprint(fingerprint), 99.0, 1)
    cache.clear()
    reports = engine.verify_suite(classes)
    assert [report.class_name for report in reports] == [cls.name for cls in classes]
    # The schedule order differs from the input order (cost-sorted), yet
    # the reports come back in input order.
    assert engine.last_run_stats.schedule_order[0] == classes[-1].name


def test_suite_warm_second_run_dispatches_nothing():
    classes = structures(FAST_CLASSES[:2])
    engine = make_engine(jobs=2, use_cache=True)
    engine.verify_suite(classes)
    first = engine.last_run_stats
    assert first.dispatched > 0
    reports = engine.verify_suite(classes)
    second = engine.last_run_stats
    assert second.dispatched == 0
    assert second.hits_memory == second.sequents_total
    for report in reports:
        for method in report.methods:
            for outcome in method.outcomes:
                assert outcome.dispatch.cached
                assert outcome.dispatch.cache_origin == "memory"


def test_suite_cross_class_dedup_folds_repeats():
    """A sequent repeated across classes is proved exactly once.

    Scheduling the same class twice makes every sequent of the second
    copy a cross-class duplicate: it must fold onto the pending
    representative from the first copy (never dispatch), and the verdicts
    and counters must still match a sequential engine, which proves the
    first copy and answers the second from its warm cache.
    """
    cls = structures(FAST_CLASSES[:1])[0]
    assert_suite_differential([cls, cls], jobs=2)
    engine = make_engine(jobs=2, use_cache=True)
    engine.verify_suite([cls, cls])
    stats = engine.last_run_stats
    first_copy, second_copy = stats.classes
    assert second_copy.dispatched == 0
    assert second_copy.duplicates_folded == second_copy.sequents > 0
    assert stats.duplicates_folded >= second_copy.sequents
    assert stats.dispatched <= first_copy.sequents


def test_suite_second_engine_serves_from_disk(tmp_path):
    """Verifying the same class list twice through a persistent store:
    the second engine answers everything from disk."""
    classes = structures(FAST_CLASSES[:2])
    first = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        jobs=2,
        cache_dir=tmp_path,
    )
    first.verify_suite(classes)
    second = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        jobs=2,
        cache_dir=tmp_path,
    )
    second.verify_suite(classes)
    stats = second.last_run_stats
    assert stats.dispatched == 0
    assert stats.hits_disk == stats.sequents_total


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_full_catalogue_suite_differential(jobs):
    assert_suite_differential(all_structures(), jobs=jobs)
