"""The verification pipeline: plan one or more classes, then execute.

Every class-level entry point -- :meth:`VerificationEngine.verify_class`
at any ``jobs``, :meth:`~VerificationEngine.verify_suite` and
:func:`~repro.verifier.incremental.verify_class_incremental` -- runs
:func:`plan_suite` and then :func:`execute_suite`:

1. **plan**: every class is decomposed into sequent slots up front, in
   input/method/sequent order.  Cache consults and fingerprint dedup are
   resolved parent-side in that deterministic order
   (:func:`~repro.verifier.parallel.plan_class` with a shard and pending
   map spanning all classes), so verdicts, prover attribution and the
   run record do not depend on ``jobs`` or on the number of classes.  An
   incremental plan first resolves a class's unchanged methods from the
   dependency index (:func:`~repro.verifier.incremental.plan_from_index`);
2. **execute**: the surviving unique misses of *all* classes are
   interleaved across the workers (or run in the parent for ``jobs <=
   1``) in **longest-class-first** order.  Class cost comes from the
   engine's :class:`~repro.verifier.costmodel.CostModel`: measured
   per-sequent timings where the warm store or this process has them,
   :data:`~repro.verifier.costmodel.DEFAULT_COST` otherwise.  Within a
   class, sequents with measured timings dispatch longest-first ahead of
   unmeasured ones (which keep their planned order);
3. **merge**: verdicts are replayed in deterministic shard order, timings
   observed, each class's proved sequents counted, its cost profile and
   dependency record rebuilt (unless the plan opted out, as the
   proof-stripping ablation does), and one
   :class:`~repro.verifier.engine.ClassReport` per class assembled in
   input order.

Each planned sequent is counted once, into the plan's
:class:`~repro.verifier.parallel.RunStats`: the run record every report
(``--perf``, the daemon's ``stats`` / ``metrics`` ops, the benchmarks)
reads.

Dispatch *order* is a pure scheduling choice: results are merged by shard
index, and per-sequent timeouts are per-process CPU budgets
(:class:`~repro.provers.result.Budget`), so reordering cannot flip a
verdict.  The differential harness
(``tests/verifier/test_scheduler_differential.py``) pins this down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from .incremental import IncrementalRunStats, plan_from_index
from .parallel import (
    ClassScheduleStats,
    RunStats,
    _Slot,
    build_class_report,
    plan_class,
    resolve_duplicates,
    run_shard,
)

__all__ = [
    "SuitePlan",
    "plan_dispatch_order",
    "plan_suite",
    "execute_suite",
    "verify_suite",
]

#: Flush newly arrived verdicts to the persistent store every this many
#: results during a run (merge-saves are cheap but not free).
_CHECKPOINT_EVERY = 32


def plan_dispatch_order(classes: list[ClassModel], costs: list[float]) -> list[int]:
    """Class indices in dispatch order: descending cost, ties by input
    order.  Pure and deterministic."""
    return sorted(range(len(classes)), key=lambda index: (-costs[index], index))


@dataclass
class SuitePlan:
    """The planned (but not yet executed) verification of some classes.

    Produced by :func:`plan_suite`: every class's slots are planned in
    input order, with the shard and the fingerprint-dedup map spanning all
    classes.  Feed it to :func:`execute_suite`.  ``record`` is False for
    runs that must not update the classes' cost profiles and dependency
    records (the proof-stripping ablation verifies a different program
    under the same class name).  ``deltas`` holds one
    :class:`~repro.verifier.incremental.IncrementalRunStats` per class of
    an incremental plan.  ``started`` is the monotonic time planning
    began, so the run record's ``wall_time`` covers plan through merge.
    """

    classes: list[ClassModel]
    stats: RunStats
    record: bool = True
    started: float = field(default_factory=time.monotonic)
    planned: list[tuple[ClassModel, list[_Slot]]] = field(default_factory=list)
    shard: list[_Slot] = field(default_factory=list)
    shard_ranges: list[tuple[int, int]] = field(default_factory=list)
    deltas: list[IncrementalRunStats] = field(default_factory=list)


def plan_suite(
    engine,
    classes: list[ClassModel],
    jobs: int = 1,
    record: bool = True,
    incremental: bool = False,
) -> SuitePlan:
    """Phase 1: plan every class against the (shared) cache, in input
    order -- this is the deterministic cache-authority order.

    The shard and the pending-duplicate map span all classes, so a
    sequent repeated across classes is proved once and its later
    occurrences resolve as memory cache hits.  With ``incremental`` each
    class is planned against its dependency record first.
    """
    plan = SuitePlan(classes=list(classes), stats=RunStats(jobs=jobs), record=record)
    stats = plan.stats
    shard = plan.shard
    pending_by_key: dict[str, int] = {}
    for cls in plan.classes:
        shard_start = len(shard)
        before = (stats.hits_memory, stats.hits_disk, stats.duplicates_folded)
        if incremental:
            slots, delta = plan_from_index(engine, cls, shard, pending_by_key, stats)
        else:
            slots = plan_class(engine, cls, shard, pending_by_key, stats)
        plan.planned.append((cls, slots))
        plan.shard_ranges.append((shard_start, len(shard)))
        cost, source = engine.cost_model.class_cost([slot.key for slot in slots])
        row = ClassScheduleStats(
            class_name=cls.name,
            cost_hint=cost,
            sequents=len(slots),
            dispatched=len(shard) - shard_start,
            hits_memory=stats.hits_memory - before[0],
            hits_disk=stats.hits_disk - before[1],
            duplicates_folded=stats.duplicates_folded - before[2],
            hint_source=source,
        )
        stats.classes.append(row)
        if incremental:
            delta.run, delta.row = stats, row
            plan.deltas.append(delta)
    stats.dispatched = len(shard)
    return plan


def verify_suite(engine, classes: list[ClassModel], jobs: int):
    """Verify ``classes`` as one scheduled job graph.

    Returns ``(reports, RunStats)`` with one
    :class:`~repro.verifier.engine.ClassReport` per class, in input order.
    Verdicts, attribution and the run record's counters are identical to
    verifying the classes one by one on the same engine in the same order
    (the differential tests assert this for ``jobs`` in {1, 2, 4}).
    """
    return execute_suite(engine, plan_suite(engine, classes, jobs), jobs)


def execute_suite(engine, plan: SuitePlan, jobs: int):
    """Phases 2--3: dispatch a plan's shard, merge, and assemble reports.

    Returns ``(reports, RunStats)``; the persistent store is flushed, and
    the stats become the engine's ``last_run_stats`` and fold into its
    ``run_stats_total``.
    """
    portfolio = engine.portfolio
    cost_model = engine.cost_model
    shard = plan.shard
    stats = plan.stats
    stats.jobs = jobs

    # Phase 2: interleave all classes' misses across the workers, longest
    # class first by measured-first cost.  What gates the run is each
    # class's *remaining* work, not its historical total -- a warm class
    # with one straggler must not lead a cold class's real load -- so the
    # ordering cost is the class cost scaled by its dispatched fraction.
    # Within a class, sequents with measured timings go longest-first
    # ahead of the unmeasured rest (which keep planned order); reordering
    # dispatch is invisible in the results -- the merge indexes by shard
    # position.
    class_order = plan_dispatch_order(
        plan.classes,
        costs=[
            entry.cost_hint * entry.dispatched / entry.sequents
            if entry.sequents
            else 0.0
            for entry in stats.classes
        ],
    )
    stats.schedule_order = [plan.classes[index].name for index in class_order]

    def slot_rank(position: int):
        measured = cost_model.sequent_cost(shard[position].key)
        if measured is None:
            return (1, 0.0, position)
        return (0, -measured, position)

    order: list[int] = []
    for index in class_order:
        start, end = plan.shard_ranges[index]
        order.extend(sorted(range(start, end), key=slot_rank))

    # Store verdicts as they arrive, and checkpoint them to the persistent
    # store every few results, so an interrupted multi-minute run keeps
    # what it already proved.  Storing early cannot change any decision:
    # every cache consult already happened in phase 1.
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
    # original input order.
    for slot in shard:
        slot.result = results[slot.shard_index]
        cost_model.observe(slot.key, slot.result.wall, slot.result.elapsed)
    reports = []
    for cls, slots in plan.planned:
        resolve_duplicates(stats, slots, results)
        if plan.record:
            # The slots are the class's complete current fingerprint set:
            # rebuild its profile and dependency record from ground truth.
            cost_model.reprofile(cls.name, [slot.key for slot in slots])
            engine.record_dependencies(cls, slots)
        reports.append(build_class_report(cls, slots))
    engine.flush_persistent_cache()
    stats.wall_time = time.monotonic() - plan.started
    engine.last_run_stats = stats
    engine.run_stats_total.merge(stats)
    return reports, stats
