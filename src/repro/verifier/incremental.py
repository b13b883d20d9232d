"""Incremental verification: the sequent-level dependency index.

The paper's workflow is developer-interactive -- edit an invariant or a
method body, re-verify, repeat -- yet a plain re-run re-plans the whole
class even though the alpha-normalized fingerprints in the proof cache
(:func:`repro.provers.cache.task_fingerprint`) already identify exactly
which sequents an edit invalidates.  This module closes that loop:

* every verification run records, per class, a **dependency record**
  mapping the source artifacts that produce sequents -- method bodies,
  the invariant set, the state declarations and the engine's translation
  policy -- to the fingerprints they produced (:func:`record_from_slots`);
* the records persist alongside the proof cache (see
  ``docs/cache-format.md``) in :class:`DependencyIndex`;
* :func:`verify_class_incremental` diffs an edited class against its
  record (:func:`plan_from_index`).  A method whose digest is unchanged
  (under unchanged class artifacts) resolves **without regenerating its
  sequents**: the recorded fingerprints are looked up straight in the
  proof cache and answered as ``cache_origin="index"`` verdicts.  Only
  changed methods are re-lowered, and of their sequents only the
  fingerprints absent from the record are *dirty* -- everything else is
  answered by the warm cache.  The dirty set equals the fingerprint diff
  (new set minus indexed set) exactly, which the differential tests
  assert.  Execution is the same :func:`~repro.verifier.scheduler.execute_suite`
  every other entry point runs.

Digests are structural, not textual: terms digest through their
alpha-normalized fingerprints, so renaming a bound variable or reordering
assumptions does not dirty a method, while any semantic edit does.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field

from ..frontend.ast import ClassModel, Method
from ..logic.terms import Term
from ..provers.cache import term_fingerprint
from ..provers.dispatch import DispatchResult
from .parallel import ClassScheduleStats, RunStats, _Slot, plan_method

__all__ = [
    "DependencyIndex",
    "IncrementalRunStats",
    "ResolvedSequent",
    "artifact_digest",
    "class_artifacts",
    "method_digest",
    "plan_from_index",
    "record_from_report",
    "record_from_slots",
    "verify_class_incremental",
]


# ---------------------------------------------------------------------------
# Structural digests of source artifacts
# ---------------------------------------------------------------------------


def _structure(value):
    """A stable, hashable image of a frontend artifact.

    Terms map to their alpha-normalized fingerprints (so bound-variable
    names never matter); dataclasses (AST nodes, sorts, proof constructs)
    map to (type-name, field-structure) pairs; containers recurse.  The
    image contains only primitives and tuples, so ``repr`` of it is stable
    across processes and hash seeds.
    """
    if isinstance(value, Term):
        return ("term", term_fingerprint(value))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _structure(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_structure(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((str(key), _structure(val)) for key, val in value.items()))
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return repr(value)


def artifact_digest(value) -> str:
    """A short stable digest of one source artifact's structure."""
    image = repr(_structure(value)).encode("utf-8")
    return hashlib.sha256(image).hexdigest()[:16]


def class_artifacts(engine, cls: ClassModel) -> dict[str, str]:
    """The class-level artifacts every method's sequents depend on.

    State declarations and invariants flow into every method's lowering;
    ``policy`` covers the engine knobs that change which tasks a sequent
    produces (from-clause application, relevance filter, runtime checks).
    A change to any of these dirties the whole class.
    """
    return {
        "state": artifact_digest(cls.state),
        "invariants": artifact_digest(cls.invariants),
        "policy": artifact_digest(
            (
                bool(engine.apply_from_clauses),
                bool(engine.use_relevance_filter),
                bool(engine.runtime_checks),
            )
        ),
    }


@functools.lru_cache(maxsize=4096)
def method_digest(method: Method) -> str:
    """Digest of one method's contract, body and signature.

    Memoized (the frozen AST hashes structurally): an incremental run
    digests each method twice, to diff it and to record it, and a warm
    re-run digests every method of every class.
    """
    return artifact_digest(method)


# ---------------------------------------------------------------------------
# The persisted index
# ---------------------------------------------------------------------------


class DependencyIndex:
    """Per-class dependency records, JSON-ready for the persistent store.

    One record per class name::

        {"artifacts": {"state": d, "invariants": d, "policy": d},
         "methods": [[name, {"digest": d,
                             "sequents": [[label, fingerprint], ...]}],
                     ...]}

    Fingerprints are stored raw (tenant-free); resolution goes through
    :meth:`~repro.provers.cache.ProofCache.key_for_fingerprint` so one
    index serves every tenant of a shared daemon.  ``mutations`` lets the
    engine's flush skip writes when nothing changed.
    """

    def __init__(self, records: dict[str, dict] | None = None) -> None:
        self._records: dict[str, dict] = dict(records or {})
        self.mutations = 0

    def __len__(self) -> int:
        return len(self._records)

    def get(self, class_name: str) -> dict | None:
        return self._records.get(class_name)

    def record(self, class_name: str, record: dict) -> None:
        if self._records.get(class_name) != record:
            self._records[class_name] = record
            self.mutations += 1

    def snapshot(self) -> dict[str, dict]:
        """A shallow copy for persistence (records are never mutated in
        place, so sharing the trees is safe)."""
        return dict(self._records)


def record_from_slots(engine, target: ClassModel, slots) -> dict:
    """Build ``target``'s dependency record from its planned slots.

    ``slots`` is the complete, ordered slot list of a run (each slot
    carries the fingerprint it was planned with); the record maps each
    method to the fingerprints its sequents produced.
    """
    by_method: dict[int, list] = {}
    for slot in slots:
        by_method.setdefault(slot.method_index, []).append(
            [slot.sequent.label, slot.fingerprint]
        )
    methods = []
    for method_index, method in enumerate(target.methods):
        methods.append(
            [
                method.name,
                {
                    "digest": method_digest(method),
                    "sequents": by_method.get(method_index, []),
                },
            ]
        )
    return {"artifacts": class_artifacts(engine, target), "methods": methods}


# Nothing calls this name: the benchmark's tracer (perfbench/tracer.py)
# wraps it, and its table may only change together with the benchmark.
record_from_report = record_from_slots


# ---------------------------------------------------------------------------
# Incremental verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedSequent:
    """Stand-in for a sequent answered from the dependency index.

    Clean methods resolve without re-lowering, so there is no
    :class:`~repro.vcgen.sequent.Sequent` object to attach -- only the
    recorded label survives, which is all reports need.
    """

    label: str


@dataclass
class IncrementalRunStats:
    """What an incremental plan of one class adds to the run record.

    ``sequents_dirty`` counts exactly the fingerprint diff (fingerprints
    produced by the edited class that the index had not recorded);
    ``dispatched`` is the subset of those the warm cache could not answer.
    ``methods_skipped`` methods were resolved purely from the index,
    without sequent regeneration.  ``cold_start`` marks a run that had no
    usable prior record (first sight of the class, or artifacts changed).

    The counts the run record already holds are read from it: ``run`` is
    the run's :class:`~repro.verifier.parallel.RunStats` and ``row`` the
    class's row in it (both attached by the planner).
    """

    class_name: str
    cold_start: bool = False
    methods_total: int = 0
    methods_skipped: int = 0
    sequents_clean: int = 0
    sequents_dirty: int = 0
    dirty_labels: list[str] = field(default_factory=list)
    run: RunStats | None = None
    row: ClassScheduleStats | None = None

    @property
    def sequents_total(self) -> int:
        return self.row.sequents

    @property
    def dispatched(self) -> int:
        return self.row.dispatched

    @property
    def jobs(self) -> int:
        return self.run.jobs

    @property
    def wall(self) -> float:
        return self.run.wall_time

    def as_dict(self) -> dict:
        return {
            "class": self.class_name,
            "jobs": self.jobs,
            "cold_start": self.cold_start,
            "methods_total": self.methods_total,
            "methods_skipped": self.methods_skipped,
            "sequents_total": self.sequents_total,
            "sequents_clean": self.sequents_clean,
            "sequents_dirty": self.sequents_dirty,
            "dispatched": self.dispatched,
            "dirty_labels": list(self.dirty_labels),
            "wall": self.wall,
        }


def _resolve_clean_method(engine, method_index: int, record: dict, stats: RunStats):
    """Slots for one unchanged method, resolved purely from cache + index.

    Returns ``None`` if any recorded verdict has been evicted (the caller
    then re-plans the method like a dirty one).  Each slot counts as a
    memory or disk cache hit in ``stats``, as a full run would count it.
    """
    cache = engine.portfolio.proof_cache
    found = []
    for label, fingerprint in record["sequents"]:
        key = cache.key_for_fingerprint(fingerprint)
        verdict = cache.lookup(key)
        if verdict is None:
            return None
        found.append((label, fingerprint, key, verdict))
    slots = []
    for label, fingerprint, key, verdict in found:
        if verdict.origin == "disk":
            stats.hits_disk += 1
        else:
            stats.hits_memory += 1
        result = DispatchResult(
            task=None,
            proved=verdict.proved,
            refuted=verdict.refuted,
            winning_prover=verdict.winning_prover,
            cached=True,
            cache_origin="index",
        )
        slots.append(
            _Slot(
                method_index,
                ResolvedSequent(label),
                None,
                key=key,
                fingerprint=fingerprint,
                result=result,
            )
        )
    return slots


def plan_from_index(
    engine,
    cls: ClassModel,
    shard: list[_Slot],
    pending_by_key: dict[str, int],
    stats: RunStats,
):
    """Plan ``cls`` against its dependency record.

    Returns ``(slots, IncrementalRunStats)``.  Unchanged methods
    contribute slots already resolved from the index; changed ones go
    through :func:`~repro.verifier.parallel.plan_method`, whose misses join
    ``shard``.  Everything is dirty (a cold plan) when the engine has no
    proof cache or no usable record.
    """
    cache = engine.portfolio.proof_cache
    delta = IncrementalRunStats(cls.name, methods_total=len(cls.methods))
    old = engine.dependency_index.get(cls.name) if cache is not None else None
    shared_clean = old is not None and old["artifacts"] == class_artifacts(engine, cls)
    delta.cold_start = not shared_clean
    old_methods: dict[str, dict] = dict(old["methods"]) if shared_clean else {}
    indexed_fps = {
        fingerprint
        for rec in old_methods.values()
        for _, fingerprint in rec["sequents"]
    }
    slots: list[_Slot] = []
    for method_index, method in enumerate(cls.methods):
        record = old_methods.get(method.name)
        if record is not None and record["digest"] == method_digest(method):
            clean = _resolve_clean_method(engine, method_index, record, stats)
            if clean is not None:
                slots.extend(clean)
                delta.methods_skipped += 1
                delta.sequents_clean += len(clean)
                continue
        planned = plan_method(
            engine, cls, method, method_index, shard, pending_by_key, stats
        )
        for slot in planned:
            if slot.fingerprint in indexed_fps:
                delta.sequents_clean += 1
            else:
                delta.sequents_dirty += 1
                delta.dirty_labels.append(f"{method.name}:{slot.sequent.label}")
        slots.extend(planned)
    stats.sequents_total += len(slots)
    return slots, delta


def verify_class_incremental(engine, cls: ClassModel):
    """Re-verify ``cls`` against its dependency record.

    Returns ``(ClassReport, IncrementalRunStats)``.  Verdicts are
    identical to a full (cold) verification of the same class: clean
    sequents resolve from the proof cache under their recorded
    fingerprints, dirty ones run through the normal execute phase.
    """
    from .scheduler import execute_suite, plan_suite

    plan = plan_suite(engine, [cls], engine.jobs, incremental=True)
    (report,), _ = execute_suite(engine, plan, engine.jobs)
    (delta,) = plan.deltas
    return report, delta
