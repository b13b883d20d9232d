"""Measured costs for suite scheduling.

The suite scheduler (:mod:`repro.verifier.scheduler`) interleaves dispatch
longest-class-first so that the expensive classes cannot serialize the
tail of a whole-catalogue run.  "Longest" comes from what the proof cache
already records on every run: the measured prover cost of each sequent
(:class:`~repro.provers.cache.CachedVerdict.wall` / ``cpu``, persisted
with every store entry) and of every live dispatch in this process.

:class:`CostModel` answers one scheduling question -- "how expensive is
this class?" -- from its planned sequent fingerprints:

1. ``measured``: some of the fingerprints have known timings; the cost is
   their sum, with unmeasured stragglers estimated at the measured mean;
2. ``default``:  :data:`DEFAULT_COST`, for classes none of whose sequents
   was ever measured (a cold store, or a class never seen before).

The per-class totals the daemon's ``metrics`` op shows are rebuilt by
:meth:`CostModel.reprofile` after every run from the class's complete
fingerprint set; they live in memory only.

Costs only reorder dispatch -- results are merged by shard index and
prover timeouts are per-process CPU budgets -- so nothing in this module
can influence a verdict; the differential harnesses pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "HINT_MEASURED",
    "HINT_DEFAULT",
    "DEFAULT_COST",
    "ClassCostProfile",
    "CostModel",
]

#: Cost-source labels (see the module docstring).
HINT_MEASURED = "measured"
HINT_DEFAULT = "default"

#: Scheduling cost assumed for a class with no measured sequent.  All
#: unmeasured classes tie at it, so a cold suite dispatches in input
#: (catalogue) order.
DEFAULT_COST = 5.0


@dataclass
class ClassCostProfile:
    """Measured prover cost of one class's distinct sequents."""

    wall: float = 0.0
    cpu: float = 0.0
    sequents: int = 0

    @property
    def mean_wall(self) -> float:
        return self.wall / self.sequents if self.sequents else 0.0

    def as_dict(self) -> dict:
        return {"wall": self.wall, "cpu": self.cpu, "sequents": self.sequents}


@dataclass
class CostModel:
    """Per-sequent and per-class cost knowledge of one engine.

    Per-sequent timings arrive from :meth:`ingest_entries` (what a warm
    :class:`~repro.provers.cache.PersistentCacheStore` already measured)
    and :meth:`observe` (every live dispatch).  Sequent fingerprints are
    class-agnostic, so per-class totals exist only where a caller knows a
    class's fingerprint set: :meth:`reprofile` rebuilds them from it.
    """

    #: Fingerprint -> measured seconds of the sequent's one prover run.
    sequent_wall: dict[str, float] = field(default_factory=dict)
    sequent_cpu: dict[str, float] = field(default_factory=dict)
    #: Class name -> measured cost of its current sequents.
    profiles: dict[str, ClassCostProfile] = field(default_factory=dict)

    # -- data in ----------------------------------------------------------------

    def ingest_entries(self, entries: dict) -> None:
        """Adopt the per-sequent timings of loaded store entries.

        Entries without a measured cost (``wall == 0``: verdicts that were
        themselves cache hits) carry no signal and are skipped.
        """
        for key, verdict in entries.items():
            if verdict.wall > 0.0:
                self.sequent_wall[key] = verdict.wall
                self.sequent_cpu[key] = verdict.cpu

    def observe(self, key: str | None, wall: float, cpu: float) -> None:
        """Record one live prover run of sequent ``key`` (``None`` for
        engines without a proof cache, which have no sequent identity)."""
        if key is not None and wall > 0.0:
            self.sequent_wall[key] = wall
            self.sequent_cpu[key] = cpu

    def reprofile(self, class_name: str, keys: list) -> None:
        """Rebuild ``class_name``'s profile from its current ``keys``.

        ``keys`` must be the class's complete planned fingerprint set for
        this run; the profile becomes the sum over those with measured
        timings (no-op when none are measured).  Replacing instead of
        accumulating keeps the profile equal to the class's *current* cost
        after sequents change or store entries are evicted.
        """
        wall = cpu = 0.0
        measured = 0
        for key in keys:
            if key is None or key not in self.sequent_wall:
                continue
            wall += self.sequent_wall[key]
            cpu += self.sequent_cpu.get(key, 0.0)
            measured += 1
        if measured:
            self.profiles[class_name] = ClassCostProfile(wall, cpu, measured)

    # -- data out ---------------------------------------------------------------

    def sequent_cost(self, key: str | None) -> float | None:
        """The measured wall cost of one sequent, or ``None``."""
        if key is None:
            return None
        return self.sequent_wall.get(key)

    def class_cost(self, keys: list) -> tuple[float, str]:
        """``(cost, source)`` of a class with planned fingerprints ``keys``."""
        known = [
            self.sequent_wall[key]
            for key in keys
            if key is not None and key in self.sequent_wall
        ]
        if not known:
            return DEFAULT_COST, HINT_DEFAULT
        mean = sum(known) / len(known)
        return sum(known) + mean * (len(keys) - len(known)), HINT_MEASURED

    def as_dict(self) -> dict:
        """JSON-ready summary for the daemon's ``metrics`` op.

        Iterates over a list() snapshot (an atomic read under the GIL):
        the lock-free ``metrics`` op calls this while an engine thread may
        be inserting new classes.
        """
        return {
            "sequent_timings": len(self.sequent_wall),
            "classes": {
                name: {**profile.as_dict(), "mean_wall": round(profile.mean_wall, 6)}
                for name, profile in list(self.profiles.items())
            },
        }
