"""Sharded prover dispatch: the phases of the verification pipeline.

The sequents of a class are independent proof obligations, so the paper's
Tables 1--2 workload is embarrassingly parallel once each sequent is cheap
to fingerprint.  This module holds the phases every entry point runs (the
suite scheduler, :mod:`repro.verifier.scheduler`, composes them into the
one plan -> execute pipeline): the *cache-missing* sequents are sharded
across worker processes (or run in the parent for ``jobs <= 1``) and the
verdicts are merged back, deterministically, into
:class:`~repro.verifier.engine.MethodReport` /
:class:`~repro.verifier.engine.ClassReport` shapes.

Design: parent-side cache authority
-----------------------------------

All caching decisions happen in the parent process, in deterministic
class/method/sequent order:

1. sequent generation runs in the parent (it is cheap and memoized);
2. for every task, the parent runs the dispatcher's cache phase
   (:meth:`~repro.provers.dispatch.ProverPortfolio.consult_cache`) --
   in-memory hits and persistent-store hits are answered immediately;
3. misses are *deduplicated by fingerprint*: the first occurrence becomes
   the shard representative, later occurrences are resolved as memory
   cache hits once the representative's verdict arrives -- exactly what
   a warm cache would have answered in a one-sequent-at-a-time loop;
4. only unique misses are shipped to workers.  Each worker rebuilds the
   prover portfolio from a picklable :class:`~repro.provers.dispatch.PortfolioSpec`
   (prover objects never cross process boundaries) and runs the pure
   prover phase with no cache of its own;
5. the parent stores each verdict in its cache
   (:meth:`~repro.provers.dispatch.ProverPortfolio.store_verdict`) and
   merges it by shard index, so verdicts, prover attribution, cache
   contents and the run record (:class:`RunStats`) do not depend on
   ``jobs``.

Because the parent owns the cache, there is exactly one writer for the
persistent store and workers stay read-free; a fully warm run dispatches
nothing and never even spawns the pool.

The phases are free functions (:func:`plan_class`, :func:`plan_method`,
:func:`run_shard`, :func:`resolve_duplicates`, :func:`build_class_report`)
so one plan can span several classes before anything is dispatched.
:class:`ProverPool` wraps the executor so the daemon
(:mod:`repro.verifier.daemon`) can keep workers warm across requests.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field

from ..frontend.ast import ClassModel
from ..logic.terms import term_stats
from ..provers.cache import task_fingerprint
from ..provers.dispatch import DispatchResult, PortfolioSpec, ProverPortfolio
from ..provers.result import ProofTask
from ..vcgen.sequent import Sequent
from .costmodel import HINT_DEFAULT

__all__ = [
    "ClassScheduleStats",
    "RunStats",
    "WorkerLoad",
    "WorkerBackend",
    "ProverPool",
    "plan_class",
    "plan_method",
    "run_shard",
    "resolve_duplicates",
    "build_class_report",
]


@dataclass
class WorkerLoad:
    """Per-worker accounting of one parallel run.

    ``pid`` is the worker's identity: the OS pid for in-process pool
    workers, a ``host/pid`` label for remote workers
    (:mod:`repro.verifier.remote`) -- the per-worker provenance in
    ``--perf`` output either way.
    """

    pid: int | str
    tasks: int = 0
    prover_time: float = 0.0


@dataclass
class ClassScheduleStats:
    """One class's share of a run.

    ``cost_hint`` is the cost the scheduler ordered the class by and
    ``hint_source`` where it came from (``measured`` or ``default``, see
    :mod:`repro.verifier.costmodel`).
    """

    class_name: str
    cost_hint: float
    sequents: int = 0
    dispatched: int = 0
    hits_memory: int = 0
    hits_disk: int = 0
    duplicates_folded: int = 0
    hint_source: str = HINT_DEFAULT


@dataclass
class RunStats:
    """The run record: accounting of one plan -> execute run (one class
    or many), and the only counters a verification run keeps.

    ``backend`` names the worker backend that ran the shard:
    ``"process"`` for the in-process pool (and the ``jobs <= 1``
    in-parent run), ``"remote"`` for distributed workers.  ``classes``
    is the per-class breakdown and ``schedule_order`` the
    longest-class-first dispatch order used.  ``wall_time`` is the run's
    wall-clock seconds, plan through merge.
    Every planned sequent is counted exactly once: ``dispatched +
    hits_memory + hits_disk + duplicates_folded == sequents_total``.
    """

    jobs: int
    backend: str = "process"
    sequents_total: int = 0
    sequents_proved: int = 0
    dispatched: int = 0
    hits_disk: int = 0
    hits_memory: int = 0
    duplicates_folded: int = 0
    wall_time: float = 0.0
    workers: list[WorkerLoad] = field(default_factory=list)
    classes: list[ClassScheduleStats] = field(default_factory=list)
    schedule_order: list[str] = field(default_factory=list)

    @property
    def prover_time(self) -> float:
        return sum(load.prover_time for load in self.workers)

    def counters(self) -> dict:
        """The flat, JSON-ready counters of this record, plus the
        process-wide term-kernel counters
        (:func:`~repro.logic.terms.term_stats`).

        The daemon's ``stats`` and ``metrics`` ops and ``bench_table1.py
        --json`` ship exactly this.  A cache hit is a sequent answered
        without running a prover: from memory, from disk, or folded onto
        a duplicate dispatched in the same run; a miss is a dispatched
        sequent, so with the cache off every sequent is a miss.
        """
        terms = term_stats()
        hits = self.hits_memory + self.hits_disk + self.duplicates_folded
        return {
            "terms_allocated": terms.allocated,
            "terms_interned": terms.interned_hits,
            "intern_hit_rate": terms.hit_rate,
            "proof_cache_hits": hits,
            "proof_cache_hits_memory": self.hits_memory + self.duplicates_folded,
            "proof_cache_hits_disk": self.hits_disk,
            "proof_cache_misses": self.dispatched,
            "proof_cache_hit_rate": (
                hits / self.sequents_total if self.sequents_total else 0.0
            ),
            "sequents_attempted": self.sequents_total,
            "sequents_proved": self.sequents_proved,
        }

    def fold_worker(self, pid: int | str, tasks: int, prover_time: float) -> None:
        """Accumulate one worker's load (matching by pid)."""
        for load in self.workers:
            if load.pid == pid:
                load.tasks += tasks
                load.prover_time += prover_time
                return
        self.workers.append(WorkerLoad(pid, tasks, prover_time))

    def merge(self, other: "RunStats") -> None:
        """Fold another run's numbers in (the engine's running total).

        Class rows fold by class name, like worker loads by pid, so a
        total stays one row per class however many runs it covers; its
        ``schedule_order`` lists the classes in first-seen order.
        """
        if other.backend != "process":
            self.backend = other.backend
        self.sequents_total += other.sequents_total
        self.sequents_proved += other.sequents_proved
        self.dispatched += other.dispatched
        self.hits_disk += other.hits_disk
        self.hits_memory += other.hits_memory
        self.duplicates_folded += other.duplicates_folded
        self.wall_time += other.wall_time
        for load in other.workers:
            self.fold_worker(load.pid, load.tasks, load.prover_time)
        rows = {row.class_name: row for row in self.classes}
        for entry in other.classes:
            row = rows.get(entry.class_name)
            if row is None:
                row = rows[entry.class_name] = ClassScheduleStats(entry.class_name, 0.0)
                self.classes.append(row)
                self.schedule_order.append(entry.class_name)
            row.cost_hint = entry.cost_hint
            row.hint_source = entry.hint_source
            row.sequents += entry.sequents
            row.dispatched += entry.dispatched
            row.hits_memory += entry.hits_memory
            row.hits_disk += entry.hits_disk
            row.duplicates_folded += entry.duplicates_folded


@dataclass
class _Slot:
    """One sequent's position in the deterministic merge order."""

    method_index: int
    sequent: Sequent
    task: ProofTask | None
    key: str | None = None
    #: The raw (tenant-free) task fingerprint, ``None`` without a cache.
    fingerprint: str | None = None
    result: DispatchResult | None = None
    shard_index: int | None = None
    duplicate_of: int | None = None  # index into the shard list


# Worker-side state: one portfolio per worker process, built from the spec
# at pool start-up.  Workers run the pure prover phase only -- no cache --
# because the parent has already deduplicated and answered every cacheable
# sequent.
_WORKER_PORTFOLIO: ProverPortfolio | None = None


def _init_worker(spec: PortfolioSpec) -> None:
    global _WORKER_PORTFOLIO
    _WORKER_PORTFOLIO = spec.build(proof_cache=None)


def _dispatch_in_worker(item: tuple[int, ProofTask]):
    index, task = item
    start = time.monotonic()
    result = _WORKER_PORTFOLIO.run_provers(task)
    return index, os.getpid(), time.monotonic() - start, result


class WorkerBackend:
    """The surface a shard-dispatch backend exposes to the engine.

    Two implementations exist: :class:`ProverPool` (an in-process
    ``ProcessPoolExecutor``) and
    :class:`~repro.verifier.remote.RemoteWorkerPool` (distributed workers
    over TCP).  :func:`run_shard`, the engine's pool management
    (``acquire_pool`` / ``release_pool`` / ``warm_pool``) and the daemon
    drive both through exactly this interface, so backends differ only in
    where the pure prover phase executes -- never in verdicts, which the
    differential harnesses assert for both.
    """

    #: Human-readable backend name, recorded in ``RunStats.backend``.
    backend_name = "process"

    def matches(self, spec: PortfolioSpec, jobs: int) -> bool:
        """Whether this (possibly warm) backend can serve a run with
        ``spec`` and ``jobs``."""
        raise NotImplementedError

    @property
    def started(self) -> bool:
        """Whether worker processes/connections exist yet."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Start every worker now instead of on first dispatch."""
        raise NotImplementedError

    def run(self, items: list[tuple[int, ProofTask]]):
        """Dispatch ``(shard_index, task)`` pairs; yield ``(shard_index,
        worker_identity, prover_wall_seconds, DispatchResult)`` tuples in
        completion order."""
        raise NotImplementedError

    def close(self, cancel_futures: bool = False) -> None:
        """Release every worker; ``cancel_futures`` drops queued work."""
        raise NotImplementedError


class ProverPool(WorkerBackend):
    """A worker pool bound to one portfolio spec, reusable across runs.

    The underlying ``ProcessPoolExecutor`` is created lazily on the first
    :meth:`run` call, so a fully warm verification (everything answered
    from the cache) never forks at all.  The engine hands these out via
    :meth:`~repro.verifier.engine.VerificationEngine.acquire_pool`: per-call
    pools are closed after each run, while the daemon's warm engine keeps
    one pool alive across requests so repeat verifications skip pool
    start-up entirely.
    """

    def __init__(self, spec: PortfolioSpec, jobs: int) -> None:
        self.spec = spec
        self.jobs = max(1, int(jobs))
        self._executor: ProcessPoolExecutor | None = None

    def matches(self, spec: PortfolioSpec, jobs: int) -> bool:
        """Whether this pool can serve a run with ``spec`` and ``jobs``."""
        return self.spec == spec and self.jobs == max(1, int(jobs))

    @property
    def started(self) -> bool:
        return self._executor is not None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(self.spec,),
            )
        return self._executor

    def warm_up(self) -> None:
        """Fork every worker process now instead of on first dispatch.

        The daemon calls this before accepting connections: a worker
        forked while a request is being served inherits the accepted
        connection fd (keeping the client's socket open after the parent
        closes it), and the first request would pay pool start-up.  The
        executor forks on demand, one worker per outstanding task, so each
        sleep parks one worker long enough that all of them spawn.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(time.sleep, 0.2) for _ in range(self.jobs)]
        for future in futures:
            future.result()

    def run(self, items: list[tuple[int, ProofTask]]):
        """Dispatch ``(index, task)`` pairs; yields ``(index, pid, wall, result)``.

        Items are *dispatched* in the order given, which is what lets the
        suite scheduler steer longest-class-first, but yielded in
        completion order: a straggler at the front must not hold back
        verdicts that already finished (the scheduler checkpoints them to
        the persistent store as they arrive).  Callers index by the
        yielded shard position, so consumption order carries no meaning.
        """
        executor = self._ensure_executor()
        futures = [executor.submit(_dispatch_in_worker, item) for item in items]
        for future in as_completed(futures):
            yield future.result()

    def close(self, cancel_futures: bool = False) -> None:
        """Shut the executor down; ``cancel_futures`` drops queued tasks
        (the error path -- a failing run must not wait out the queue)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=cancel_futures)
            self._executor = None


# ---------------------------------------------------------------------------
# The dispatch phases (composed by repro.verifier.scheduler)
# ---------------------------------------------------------------------------


def plan_class(
    engine,
    target: ClassModel,
    shard: list[_Slot],
    pending_by_key: dict[str, int],
    stats: RunStats,
) -> list[_Slot]:
    """Phase 1 (parent): plan one class's sequents against the cache.

    Generates ``target``'s sequents in method/sequent order, answers
    in-memory / persistent-store hits immediately, folds fingerprint
    duplicates onto their pending representative, and appends the unique
    misses to ``shard``.  ``shard`` and ``pending_by_key`` may be shared
    across several classes (the suite scheduler plans several classes
    into one shard, so a sequent repeated across classes is still proved
    only once, exactly as a warm cache would answer it).

    Returns the class's slots in method/sequent order; ``stats`` accumulates
    hit/duplicate counts (``stats.dispatched`` is left to the caller, which
    knows when the shard is complete).
    """
    slots: list[_Slot] = []
    for method_index, method in enumerate(target.methods):
        slots.extend(
            plan_method(
                engine, target, method, method_index, shard, pending_by_key, stats
            )
        )
    stats.sequents_total += len(slots)
    return slots


def plan_method(
    engine,
    target: ClassModel,
    method,
    method_index: int,
    shard: list[_Slot],
    pending_by_key: dict[str, int],
    stats: RunStats,
) -> list[_Slot]:
    """The per-method slice of :func:`plan_class`.

    Exposed separately so incremental verification
    (:mod:`repro.verifier.incremental`) can re-plan only a class's dirty
    methods while its clean methods resolve from the dependency index
    without sequent regeneration.  ``stats.sequents_total`` is left to the
    caller, which knows the full planned extent of the run.
    """
    portfolio = engine.portfolio
    fingerprinted = portfolio.proof_cache is not None
    slots: list[_Slot] = []
    for sequent in engine.method_sequents(target, method):
        task = engine.task_for(sequent)
        slot = _Slot(method_index, sequent, task)
        if fingerprinted:
            slot.fingerprint = task_fingerprint(task)
        slots.append(slot)
        key, hit = portfolio.consult_cache(task, slot.fingerprint)
        slot.key = key
        if hit is not None:
            slot.result = hit
            if hit.cache_origin == "disk":
                stats.hits_disk += 1
            else:
                stats.hits_memory += 1
            continue
        if key is not None and key in pending_by_key:
            # A duplicate of a sequent already queued this run: a
            # one-at-a-time dispatch loop would find it in the warm cache.
            slot.duplicate_of = pending_by_key[key]
            stats.duplicates_folded += 1
            continue
        slot.shard_index = len(shard)
        shard.append(slot)
        if key is not None:
            pending_by_key[key] = slot.shard_index
    return slots


def run_shard(
    engine,
    shard: list[_Slot],
    jobs: int,
    stats: RunStats,
    order: list[int] | None = None,
    on_result=None,
) -> list[DispatchResult]:
    """Phase 2: run the provers on the unique misses.

    ``order`` optionally reorders *dispatch* (a permutation of shard
    indices -- the suite scheduler passes longest-class-first); the
    returned list is always indexed by shard position, so the merge stays
    deterministic regardless of dispatch order.  With ``jobs <= 1`` (and
    no remote workers configured on the engine) the provers run
    in-process on the parent's portfolio, with no pool.  An engine with
    remote workers always dispatches through its :class:`WorkerBackend`.

    ``on_result(slot, result)`` is called in the parent as each verdict
    arrives (completion order, not merge order); the suite scheduler uses
    it to checkpoint verdicts to the persistent cache so an interrupted
    long run keeps what it already proved.
    """
    results: list[DispatchResult] = [None] * len(shard)  # type: ignore[list-item]
    if shard:
        indexed = [(slot.shard_index, slot.task) for slot in shard]
        if order is not None:
            indexed = [indexed[position] for position in order]
        if jobs <= 1 and not getattr(engine, "uses_remote_workers", False):
            pid = os.getpid()
            for index, task in indexed:
                task_start = time.monotonic()
                result = engine.portfolio.run_provers(task)
                result.wall = time.monotonic() - task_start
                results[index] = result
                stats.fold_worker(pid, 1, result.wall)
                if on_result is not None:
                    on_result(shard[index], result)
        else:
            spec = PortfolioSpec.from_portfolio(engine.portfolio)
            pool = engine.acquire_pool(spec, jobs, shard_size=len(shard))
            stats.backend = pool.backend_name
            try:
                for index, pid, wall, result in pool.run(indexed):
                    result.wall = wall
                    results[index] = result
                    stats.fold_worker(pid, 1, wall)
                    if on_result is not None:
                        on_result(shard[index], result)
            except BaseException:
                # A dead executor (e.g. an OOM-killed worker raising
                # BrokenProcessPool) must not survive as a warm pool.
                engine.release_pool(pool, broken=True)
                raise
            engine.release_pool(pool)
        stats.workers.sort(key=lambda load: str(load.pid))
    return results


def resolve_duplicates(
    stats: RunStats,
    slots: list[_Slot],
    results: list[DispatchResult],
) -> None:
    """Phase 3: answer one class's folded duplicates as warm memory cache
    hits, and count its proved sequents into ``stats``.

    Every slot of the class has its verdict afterwards, so this is where
    each slot is counted once as proved or not.
    """
    for slot in slots:
        if slot.duplicate_of is not None:
            rep = results[slot.duplicate_of]
            slot.result = DispatchResult(
                task=slot.task,
                proved=rep.proved,
                refuted=rep.refuted,
                winning_prover=rep.winning_prover,
                cached=True,
                cache_origin="memory",
            )
        if slot.result.proved:
            stats.sequents_proved += 1


def build_class_report(target: ClassModel, slots: list[_Slot]):
    """Assemble the :class:`~repro.verifier.engine.ClassReport` for ``target``.

    Outcomes appear in method/sequent order.  A method's ``elapsed`` is
    the prover time spent on its own sequents (at any ``jobs``: with a
    pool the methods overlap in wall time, so this is the one number that
    means the same thing everywhere).
    """
    # Imported here: engine.py imports this module lazily and vice versa.
    from .engine import ClassReport, MethodReport, SequentOutcome

    report = ClassReport(target.name)
    for method_index, method in enumerate(target.methods):
        method_report = MethodReport(target.name, method.name)
        for slot in slots:
            if slot.method_index == method_index:
                method_report.outcomes.append(SequentOutcome(slot.sequent, slot.result))
        method_report.elapsed = sum(
            outcome.dispatch.elapsed for outcome in method_report.outcomes
        )
        report.methods.append(method_report)
    return report
