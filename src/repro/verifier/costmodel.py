"""Measured cost profiles for adaptive suite scheduling.

The suite scheduler (:mod:`repro.verifier.scheduler`) interleaves dispatch
longest-class-first so that the expensive classes cannot serialize the
tail of a whole-catalogue run.  Until PR 5 "longest" came from the
hard-coded :data:`repro.suite.catalog.CLASS_COST_HINTS` table -- numbers
measured once by hand, with a blind
:data:`~repro.suite.catalog.DEFAULT_COST_HINT` for any class outside the
catalogue -- even though the persistent proof cache already sees every
sequent, with its measured cost, on every run.

:class:`CostModel` closes that loop.  It aggregates two data sources:

* **per-sequent timings** from the warm persistent store
  (:class:`~repro.provers.cache.CachedVerdict.wall` / ``cpu``, store
  format v2) and from live dispatches during this process;
* **per-class profiles** -- the accumulated prover cost of each class's
  distinct sequents, persisted in the store's ``profiles`` section
  (sequent fingerprints are class-agnostic, so class attribution only
  exists at observation time and must be carried separately).

and answers one scheduling question -- "how expensive is this class?" --
through a fixed fallback chain, most-measured first:

1. ``measured``: the class's planned sequent fingerprints have known
   timings; the cost is their sum, with unmeasured stragglers estimated
   at the measured mean;
2. ``profile``:  no per-sequent coverage, but a persisted per-class
   profile exists from an earlier run;
3. ``static``:   the hand-measured :data:`CLASS_COST_HINTS` table;
4. ``default``:  :data:`DEFAULT_COST_HINT`, for classes never seen in
   any form (e.g. ad-hoc structures verified via ``examples/``).

Cost hints only reorder dispatch -- results are merged by shard index and
prover timeouts are per-process CPU budgets -- so nothing in this module
can influence a verdict; the differential harnesses pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..suite.catalog import CLASS_COST_HINTS, DEFAULT_COST_HINT

__all__ = [
    "HINT_MEASURED",
    "HINT_PROFILE",
    "HINT_STATIC",
    "HINT_DEFAULT",
    "ClassCostProfile",
    "CostModel",
]

#: Hint-source labels, in fallback-chain order (see the module docstring).
HINT_MEASURED = "measured"
HINT_PROFILE = "profile"
HINT_STATIC = "static"
HINT_DEFAULT = "default"


@dataclass
class ClassCostProfile:
    """Accumulated measured prover cost of one class's distinct sequents."""

    wall: float = 0.0
    cpu: float = 0.0
    sequents: int = 0

    @property
    def mean_wall(self) -> float:
        return self.wall / self.sequents if self.sequents else 0.0

    def add(self, wall: float, cpu: float) -> None:
        self.wall += wall
        self.cpu += cpu
        self.sequents += 1

    def as_dict(self) -> dict:
        """JSON-ready form (the persistent store's ``profiles`` values).

        Deliberately *unrounded*: floats round-trip JSON exactly, which is
        what lets :meth:`CostModel.reprofile`'s change detection converge
        -- a rounded copy would differ from the recomputed sum by ULPs on
        every warm run and re-dirty the store forever.
        """
        return {"wall": self.wall, "cpu": self.cpu, "sequents": self.sequents}


@dataclass
class CostModel:
    """Per-sequent and per-class cost knowledge of one engine.

    Timings arrive from two directions: :meth:`ingest_entries` /
    :meth:`ingest_profiles` replay what a warm
    :class:`~repro.provers.cache.PersistentCacheStore` already measured,
    and :meth:`observe` folds in every live dispatch.  Class profiles
    deduplicate by sequent fingerprint so repeated runs never double-count
    a sequent: keys that arrived from disk are assumed to be part of the
    persisted profile already and only refresh the per-sequent map.
    Whenever a caller knows a class's *complete* current fingerprint set
    (the engine does, after every run), :meth:`reprofile` rebuilds the
    profile from the per-sequent map outright -- that keeps profiles from
    drifting when sequents are edited away or their store entries are
    evicted, and makes concurrent engines' profile writes converge (each
    write is a self-contained recomputation, not an increment).
    """

    static_hints: dict[str, float] = field(
        default_factory=lambda: dict(CLASS_COST_HINTS)
    )
    default_hint: float = DEFAULT_COST_HINT
    #: Fingerprint -> measured seconds of the sequent's one prover run.
    sequent_wall: dict[str, float] = field(default_factory=dict)
    sequent_cpu: dict[str, float] = field(default_factory=dict)
    #: Class name -> accumulated profile over its distinct sequents.
    profiles: dict[str, ClassCostProfile] = field(default_factory=dict)
    #: Keys already counted into some class profile (here or on disk).
    _profiled_keys: set = field(default_factory=set)
    #: Bumped on every accepted :meth:`observe`; persistence layers use it
    #: to notice profile changes the proof cache's own mutation counter
    #: cannot see (observations land *after* the run's last checkpoint).
    mutations: int = 0

    # -- data in ----------------------------------------------------------------

    def ingest_entries(self, entries: dict) -> None:
        """Adopt the per-sequent timings of loaded store entries.

        Entries without a measured cost (``wall == 0``: pre-v2 stores,
        or verdicts that were themselves cache hits) carry no signal and
        are skipped.  Disk keys are marked as already profiled -- their
        cost is part of the persisted class profiles.
        """
        for key, verdict in entries.items():
            if verdict.wall > 0.0:
                self.sequent_wall[key] = verdict.wall
                self.sequent_cpu[key] = verdict.cpu
                self._profiled_keys.add(key)

    def ingest_profiles(self, profiles: dict[str, dict]) -> None:
        """Adopt the per-class profiles a persistent store carried."""
        for name, data in profiles.items():
            self.profiles[name] = ClassCostProfile(
                wall=float(data.get("wall", 0.0)),
                cpu=float(data.get("cpu", 0.0)),
                sequents=int(data.get("sequents", 0)),
            )

    def observe(
        self, class_name: str, key: str | None, wall: float, cpu: float
    ) -> None:
        """Record one live prover run of ``class_name``'s sequent ``key``.

        ``key`` is ``None`` for engines without a proof cache; the class
        profile still accumulates (that is all the signal there is), the
        per-sequent map obviously cannot.
        """
        if wall <= 0.0:
            return
        self.mutations += 1
        if key is not None:
            self.sequent_wall[key] = wall
            self.sequent_cpu[key] = cpu
            if key in self._profiled_keys:
                return
            self._profiled_keys.add(key)
        self.profiles.setdefault(class_name, ClassCostProfile()).add(wall, cpu)

    def reprofile(self, class_name: str, keys: list) -> None:
        """Rebuild ``class_name``'s profile from its current ``keys``.

        ``keys`` must be the class's complete planned fingerprint set for
        this run; the profile becomes the sum over those with measured
        timings (no-op when none are measured, e.g. cache-less engines --
        those keep the accumulated profile from :meth:`observe`).
        Replacing instead of accumulating is what keeps the profile equal
        to the class's *current* cost after sequents change or store
        entries are evicted.
        """
        wall = cpu = 0.0
        measured = 0
        for key in keys:
            if key is None or key not in self.sequent_wall:
                continue
            wall += self.sequent_wall[key]
            cpu += self.sequent_cpu.get(key, 0.0)
            measured += 1
            self._profiled_keys.add(key)
        if not measured:
            return
        rebuilt = ClassCostProfile(wall=wall, cpu=cpu, sequents=measured)
        current = self.profiles.get(class_name)
        # Persisted per-sequent timings are rounded (6 decimals), so a
        # load-then-reprofile rebuilds sums that differ from the stored
        # profile by up to the rounding quantum per sequent.  Treating
        # that as a change would mark every fully-warm run dirty and
        # re-save the whole store for nothing.
        tolerance = 1e-6 * measured
        if current is None or current.sequents != rebuilt.sequents or (
            abs(current.wall - rebuilt.wall) > tolerance
            or abs(current.cpu - rebuilt.cpu) > tolerance
        ):
            self.profiles[class_name] = rebuilt
            self.mutations += 1

    # -- data out ---------------------------------------------------------------

    def sequent_cost(self, key: str | None) -> float | None:
        """The measured wall cost of one sequent, or ``None``."""
        if key is None:
            return None
        return self.sequent_wall.get(key)

    def class_cost(self, name: str, keys: list | None = None) -> tuple[float, str]:
        """``(cost, source)`` for class ``name`` via the fallback chain.

        ``keys`` are the class's planned sequent fingerprints (when the
        caller has them); any measured coverage among them wins over
        every other source.
        """
        if keys:
            known = [
                self.sequent_wall[key]
                for key in keys
                if key is not None and key in self.sequent_wall
            ]
            if known:
                mean = sum(known) / len(known)
                total = sum(known) + mean * (len(keys) - len(known))
                return total, HINT_MEASURED
        profile = self.profiles.get(name)
        if profile is not None and profile.wall > 0.0:
            return profile.wall, HINT_PROFILE
        if name in self.static_hints:
            return self.static_hints[name], HINT_STATIC
        return self.default_hint, HINT_DEFAULT

    def profiles_snapshot(self) -> dict[str, dict]:
        """JSON-ready per-class profiles (for the persistent store).

        Iterates over a list() snapshot (an atomic read under the GIL):
        the daemon's lock-free ``metrics`` op calls this while an engine
        thread may be inserting new classes, and a comprehension over the
        live dict would intermittently raise ``RuntimeError``.
        """
        return {
            name: profile.as_dict()
            for name, profile in list(self.profiles.items())
        }

    def as_dict(self) -> dict:
        """JSON-ready summary for the daemon's ``metrics`` op."""
        return {
            "sequent_timings": len(self.sequent_wall),
            "classes": {
                name: {**profile.as_dict(), "mean_wall": round(profile.mean_wall, 6)}
                for name, profile in list(self.profiles.items())
            },
        }
