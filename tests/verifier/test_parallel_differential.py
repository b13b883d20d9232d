"""Differential harness: parallel dispatch must equal the sequential path.

Every assertion here compares a fresh sequential engine against a fresh
parallel engine on the same classes: per-sequent verdicts, refutations,
prover attribution, the provers each sequent was offered to, cache
provenance flags, report aggregates and the run record's counters must
all be identical.  The fast variants (a subset of
quickly-verifying catalog classes) run in tier 1; the full-catalog sweep
over ``jobs in {1, 2, 4}`` is marked ``slow`` and deselected by default
(run it with ``pytest -m slow``).
"""

from __future__ import annotations

import os

import pytest

from repro.provers.dispatch import default_portfolio
from repro.suite import all_structures
from repro.verifier.engine import ClassReport, VerificationEngine

#: Benchmark-style timeout scaling keeps a full differential round tractable.
TIMEOUT_SCALE = 0.4

#: Classes that verify fully in well under a second each -- their verdicts
#: are far from any prover timeout, so the differential comparison is
#: deterministic.
FAST_CLASSES = ("Array List", "Cursor List", "Linked List", "Circular List")


def structures(names=None):
    chosen = all_structures()
    if names is not None:
        chosen = [cls for cls in chosen if cls.name in names]
    return chosen


def make_engine(jobs: int, use_cache: bool) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio(with_cache=use_cache).scaled(TIMEOUT_SCALE),
        use_proof_cache=use_cache,
        jobs=jobs,
    )


def sequent_trace(report: ClassReport) -> list[tuple]:
    """Everything observable about each sequent, in deterministic order."""
    return [
        (
            method.class_name,
            method.method_name,
            outcome.sequent.label,
            outcome.proved,
            outcome.dispatch.refuted,
            outcome.prover,
            outcome.dispatch.cached,
            outcome.dispatch.cache_origin,
            # The attempt list: every per-prover attempt/proved count of
            # the run follows from these.
            tuple(attempt.prover for attempt in outcome.dispatch.attempts),
        )
        for method in report.methods
        for outcome in method.outcomes
    ]


def aggregate_trace(report: ClassReport) -> tuple:
    return (
        report.class_name,
        report.methods_total,
        report.methods_verified,
        report.sequents_total,
        report.sequents_proved,
        report.verified,
        tuple(sorted(report.provers_used.items())),
    )


def statistics_trace(engine: VerificationEngine) -> tuple:
    """The run record's counters over every run of ``engine``, without
    the process-wide term-kernel counters.  How hits split between memory
    hits and folded duplicates depends on how the classes were planned
    together, so only their sum (``proof_cache_hits_memory``) is compared."""
    counters = engine.run_stats_total.counters()
    return tuple(
        sorted(
            (name, value)
            for name, value in counters.items()
            if not name.startswith(("terms_", "intern_"))
        )
    )


def assert_differential(classes, jobs: int, use_cache: bool) -> None:
    sequential = make_engine(jobs=1, use_cache=use_cache)
    parallel = make_engine(jobs=jobs, use_cache=use_cache)
    for cls in classes:
        seq_report = sequential.verify_class(cls)
        par_report = parallel.verify_class(cls)
        assert sequent_trace(seq_report) == sequent_trace(par_report)
        assert aggregate_trace(seq_report) == aggregate_trace(par_report)
    assert statistics_trace(sequential) == statistics_trace(parallel)


@pytest.mark.parametrize("jobs", [2, 4])
def test_fast_classes_differential_cache_on(jobs):
    assert_differential(structures(FAST_CLASSES), jobs=jobs, use_cache=True)


def test_fast_classes_differential_cache_off():
    # Without a cache the parallel scheduler must not deduplicate either:
    # every sequent ships to a worker, exactly as the sequential loop
    # re-proves every duplicate.
    assert_differential(structures(FAST_CLASSES[:2]), jobs=2, use_cache=False)


def test_parallel_run_stats_accounting():
    engine = make_engine(jobs=2, use_cache=True)
    (cls,) = structures(("Linked List",))
    report = engine.verify_class(cls)
    stats = engine.last_run_stats
    assert stats is not None
    assert stats.jobs == 2
    assert stats.sequents_total == report.sequents_total
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    assert sum(load.tasks for load in stats.workers) == stats.dispatched
    # A second run over the same class is answered fully from the warm
    # in-memory cache -- no worker pool is even started.
    engine.verify_class(cls)
    rerun = engine.last_run_stats
    assert rerun.dispatched == 0
    assert rerun.hits_memory == rerun.sequents_total
    assert rerun.workers == []


def test_jobs_one_is_the_sequential_path():
    """``jobs=1`` runs the same plan/execute pipeline, with the provers
    in this process: one worker, the parent itself, carries every
    dispatched sequent."""
    engine = make_engine(jobs=1, use_cache=True)
    (cls,) = structures(("Array List",))
    engine.verify_class(cls)
    stats = engine.last_run_stats
    assert stats.jobs == 1 and stats.dispatched > 0
    [load] = stats.workers
    assert load.pid == os.getpid()
    assert load.tasks == stats.dispatched


@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_full_catalog_differential_cache_on(jobs):
    """Acceptance sweep: identical verdicts for every catalog class."""
    assert_differential(structures(), jobs=jobs, use_cache=True)


@pytest.mark.slow
def test_full_catalog_differential_cache_off():
    assert_differential(structures(), jobs=2, use_cache=False)


@pytest.mark.slow
def test_full_catalog_differential_strip_proofs():
    """The Table 2 ablation (stripped proofs) is differential too."""
    sequential = make_engine(jobs=1, use_cache=True)
    parallel = make_engine(jobs=3, use_cache=True)
    for cls in structures():
        seq_report = sequential.verify_class(cls, strip_proofs=True)
        par_report = parallel.verify_class(cls, strip_proofs=True)
        assert sequent_trace(seq_report) == sequent_trace(par_report)
        assert aggregate_trace(seq_report) == aggregate_trace(par_report)
