"""Suite-level verification scheduler.

PR 2 parallelized dispatch *within* one class: each ``verify_class`` call
plans its own shard and its stragglers still serialize the end of a
whole-catalogue run (the worker pool drains while the next class has not
even been planned yet).  This module plans the **entire suite as one job
graph**:

1. every class is decomposed into sequent shards up front, in the exact
   catalogue/method/sequent order the per-class sequential path uses --
   cache consults and fingerprint dedup are resolved parent-side in that
   deterministic order (:func:`~repro.verifier.parallel.plan_class` with a
   suite-wide shard and pending map), so verdicts, prover attribution and
   cache counters stay bit-identical to per-class sequential runs;
2. the surviving unique misses of *all* classes are interleaved across the
   existing worker pool in **longest-class-first** order.  Class cost
   comes from the engine's :class:`~repro.verifier.costmodel.CostModel`
   -- measured per-sequent profiles where the warm persistent store (or
   this process) has timings, persisted per-class profiles next, then the
   static :data:`repro.suite.catalog.CLASS_COST_HINTS` table, and only
   then :data:`~repro.suite.catalog.DEFAULT_COST_HINT`; each class's
   :class:`ClassScheduleStats` records which source won.  Within a class,
   sequents with measured timings dispatch longest-first ahead of
   unmeasured ones (which keep their sequential order);
3. the merge replays verdicts in deterministic shard order and assembles
   one :class:`~repro.verifier.engine.ClassReport` per class, in the input
   order.

Dispatch *order* is a pure scheduling choice: results are merged by shard
index, and per-sequent timeouts are per-process CPU budgets
(:class:`~repro.provers.result.Budget`), so reordering cannot flip a
verdict.  The differential harness
(``tests/verifier/test_scheduler_differential.py``) pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..suite.catalog import cost_hint
from .costmodel import HINT_STATIC, CostModel
from .parallel import (
    ParallelRunStats,
    _Slot,
    build_class_report,
    plan_class,
    resolve_duplicates,
    resolve_shard,
    run_shard,
)

__all__ = [
    "ClassScheduleStats",
    "SuitePlan",
    "SuiteRunStats",
    "plan_dispatch_order",
    "plan_suite",
    "execute_suite",
    "verify_suite",
]

#: Flush newly arrived verdicts to the persistent store every this many
#: results during a suite run (merge-saves are cheap but not free).
_CHECKPOINT_EVERY = 32


@dataclass
class ClassScheduleStats:
    """One class's share of a suite-scheduled run.

    ``hint_source`` names which rung of the cost model's fallback chain
    produced ``cost_hint`` (``measured`` / ``profile`` / ``static`` /
    ``default`` -- see :mod:`repro.verifier.costmodel`), so a warm run's
    plan visibly derives from measured profiles.
    """

    class_name: str
    cost_hint: float
    sequents: int = 0
    dispatched: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    duplicates_folded: int = 0
    hint_source: str = HINT_STATIC


@dataclass
class SuiteRunStats(ParallelRunStats):
    """Scheduling statistics of one :func:`verify_suite` run.

    Extends the per-run counters of :class:`ParallelRunStats` with the
    per-class breakdown and the longest-class-first dispatch order that
    was actually used.
    """

    classes: list[ClassScheduleStats] = field(default_factory=list)
    schedule_order: list[str] = field(default_factory=list)


def plan_dispatch_order(
    classes: list[ClassModel], costs: list[float] | None = None
) -> list[int]:
    """Class indices in dispatch order: descending cost, ties by input
    (catalogue) order.  Pure and deterministic.

    ``costs`` are the per-class costs to sort by (the suite scheduler
    passes the cost model's measured-first numbers); without them the
    static catalogue hints are used.
    """
    if costs is None:
        costs = [cost_hint(cls.name) for cls in classes]
    return sorted(
        range(len(classes)),
        key=lambda index: (-costs[index], index),
    )


@dataclass
class SuitePlan:
    """The planned (but not yet executed) verification of a whole suite.

    Produced by :func:`plan_suite`: every class's sequents are generated
    and cache-consulted in deterministic catalogue order, with the shard
    and fingerprint-dedup map spanning the whole suite.  Feed it to
    :func:`execute_suite` to dispatch the shard and assemble the reports.
    """

    classes: list[ClassModel] = field(default_factory=list)
    planned: list[tuple[ClassModel, list[_Slot]]] = field(default_factory=list)
    shard: list[_Slot] = field(default_factory=list)
    shard_ranges: list[tuple[int, int]] = field(default_factory=list)
    stats: SuiteRunStats = None


def plan_suite(engine, classes: list[ClassModel], jobs: int = 1) -> SuitePlan:
    """Phase 1: plan every class against the (shared) cache, in catalogue
    order -- this is the deterministic cache-authority order.

    The shard and the pending-duplicate map span the whole suite, so a
    sequent repeated across classes is proved once and its later
    occurrences resolve as the memory cache hits a sequential engine
    would see.
    """
    cost_model: CostModel = getattr(engine, "cost_model", None) or CostModel()
    stats = SuiteRunStats(jobs=jobs)
    shard: list[_Slot] = []
    pending_by_key: dict[str, int] = {}
    planned: list[tuple[ClassModel, list[_Slot]]] = []
    shard_ranges: list[tuple[int, int]] = []
    for cls in classes:
        shard_start = len(shard)
        before = (stats.hits_memory, stats.hits_disk, stats.duplicates_folded)
        slots = plan_class(engine, cls, shard, pending_by_key, stats)
        planned.append((cls, slots))
        shard_ranges.append((shard_start, len(shard)))
        cost, source = cost_model.class_cost(cls.name, [slot.key for slot in slots])
        stats.classes.append(
            ClassScheduleStats(
                class_name=cls.name,
                cost_hint=cost,
                sequents=len(slots),
                dispatched=len(shard) - shard_start,
                hits_memory=stats.hits_memory - before[0],
                hits_disk=stats.hits_disk - before[1],
                duplicates_folded=stats.duplicates_folded - before[2],
                hint_source=source,
            )
        )
    stats.dispatched = len(shard)
    return SuitePlan(
        classes=classes,
        planned=planned,
        shard=shard,
        shard_ranges=shard_ranges,
        stats=stats,
    )


def verify_suite(engine, classes: list[ClassModel], jobs: int):
    """Verify ``classes`` as one scheduled job graph.

    Returns ``(reports, SuiteRunStats)`` with one
    :class:`~repro.verifier.engine.ClassReport` per class, in input order.
    Verdicts, attribution and portfolio counters are bit-identical to
    calling ``verify_class`` sequentially on the same engine for each
    class in the same order (the differential tests assert this for
    ``jobs`` in {1, 2, 4}).  Composes :func:`plan_suite` and
    :func:`execute_suite`.
    """
    return execute_suite(engine, plan_suite(engine, classes, jobs), jobs)


def execute_suite(engine, plan: SuitePlan, jobs: int):
    """Phases 2--3: dispatch a suite plan's shard and assemble reports."""
    portfolio = engine.portfolio
    cost_model: CostModel = getattr(engine, "cost_model", None) or CostModel()
    classes = plan.classes
    planned = plan.planned
    shard = plan.shard
    shard_ranges = plan.shard_ranges
    stats = plan.stats
    stats.jobs = jobs

    # Phase 2: interleave the whole suite's misses across the pool,
    # longest class first by measured-first cost.  What gates the run is
    # each class's *remaining* work, not its historical total -- a warm
    # class with one straggler must not lead a cold class's real load --
    # so the ordering cost is the class cost scaled by its dispatched
    # fraction.  Within a class, sequents with measured timings go
    # longest-first ahead of the unmeasured rest (which keep sequential
    # order); reordering dispatch is invisible in the results -- the
    # merge indexes by shard position.
    class_order = plan_dispatch_order(
        classes,
        costs=[
            entry.cost_hint * entry.dispatched / entry.sequents
            if entry.sequents
            else 0.0
            for entry in stats.classes
        ],
    )
    stats.schedule_order = [classes[index].name for index in class_order]

    def slot_rank(position: int):
        measured = cost_model.sequent_cost(shard[position].key)
        if measured is None:
            return (1, 0.0, position)
        return (0, -measured, position)

    order: list[int] = []
    for index in class_order:
        start, end = shard_ranges[index]
        order.extend(sorted(range(start, end), key=slot_rank))

    # Checkpoint verdicts to the persistent store as they arrive so an
    # interrupted multi-minute run keeps what it already proved (the
    # per-class path gets this for free from its per-class flushes).
    # Storing early cannot change any decision: every cache consult
    # already happened in phase 1, and the merge re-stores idempotently.
    arrivals = 0

    def checkpoint(slot, result):
        nonlocal arrivals
        portfolio.store_verdict(slot.key, result)
        arrivals += 1
        if arrivals % _CHECKPOINT_EVERY == 0:
            engine.flush_persistent_cache()

    results = run_shard(engine, shard, jobs, stats, order=order, on_result=checkpoint)

    # Phase 3: deterministic merge -- replay verdicts in shard order, then
    # resolve each class's folded duplicates and build its report in the
    # original input order.  The checkpoint callback already stored every
    # dispatched verdict, so the replay only does the accounting.
    resolve_shard(portfolio, shard, results, store=False)
    reports = []
    observe = getattr(engine, "observe_timing", None)
    record_dependencies = getattr(engine, "record_dependencies", None)
    for cls, slots in planned:
        resolve_duplicates(portfolio, slots, results)
        if observe is not None:
            for slot in slots:
                if slot.shard_index is not None:
                    observe(cls.name, slot.key, results[slot.shard_index])
            # The slots are the class's complete current fingerprint set:
            # rebuild the profile from ground truth instead of letting
            # increments drift across edits/evictions.
            cost_model.reprofile(cls.name, [slot.key for slot in slots])
        if record_dependencies is not None:
            record_dependencies(cls, slots)
        reports.append(build_class_report(cls, slots))
    return reports, stats
