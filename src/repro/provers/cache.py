"""Sequent-level result caching for the prover portfolio.

Verification-condition generation produces many structurally identical
sequents: goal splitting duplicates hypothesis prefixes, loop encodings
re-assert the same invariant conjuncts at every cut point, and the Table 2
ablation verifies every method twice.  :class:`ProofCache` lets the
dispatcher (:meth:`repro.provers.dispatch.ProverPortfolio.dispatch`) prove
each distinct sequent once.

Cache keys are *canonical fingerprints*: every formula is alpha-normalized
(bound variables replaced by binding-depth indices), the assumption base is
deduplicated and order-normalized, and trivially-true assumptions carry no
weight.  Two sequents that differ only in assumption naming, assumption
order or the spelling of bound variables therefore share one cache entry.
A fingerprint is a SHA-256 Merkle digest over that normal form, written as
64 hex characters; the same string is the in-memory key, the store's
entry key and the dependency index's sequent identity.

A cache is attached to one portfolio (fixed prover set and per-prover
timeouts), so a cached verdict -- including "no prover could do it" -- is
exactly what re-running the portfolio would produce, modulo timing jitter
on near-timeout sequents.

:class:`PersistentCacheStore` carries verdicts across runs; its on-disk
JSON layout, versioning/invalidation rules and ``flock`` merge-save
protocol are documented normatively in ``docs/cache-format.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX-only; saves degrade to lock-free atomic replace elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..logic.terms import App, Binder, BoolLit, Const, IntLit, Term, Var
from .result import ProofTask

__all__ = [
    "CachedVerdict",
    "ProofCache",
    "PersistentCacheStore",
    "task_fingerprint",
    "term_fingerprint",
    "FINGERPRINT_VERSION",
    "CACHE_FORMAT_VERSION",
]

#: Bump whenever :func:`term_fingerprint` / :func:`task_fingerprint` change
#: shape: persisted caches keyed under an older scheme are discarded (cold
#: start) instead of being misinterpreted.
FINGERPRINT_VERSION = 2

#: Bump whenever the on-disk JSON layout of :class:`PersistentCacheStore`
#: changes incompatibly.  Version 2 added measured per-sequent prover
#: timings (``wall`` / ``cpu``) to every entry and the per-class
#: ``profiles`` section; version 3 added the per-class ``dependencies``
#: section (the incremental-verification dependency index mapping source
#: artifacts to the fingerprints they produce); version 4 keys everything
#: by hex digest and stores each entry as one flat row; version 5 drops
#: the ``profiles`` section (class costs are derived from the entries'
#: timings); older stores cold-start cleanly.
CACHE_FORMAT_VERSION = 5


# Each node hashes a one-byte tag, its length-prefixed operator / name /
# sort fields and the raw 32-byte digests of its children, so no two
# distinct nodes share an image (docs/cache-format.md, "Fingerprint
# scheme").
#
# Bound variables are numbered by *relative* de Bruijn index (distance from
# the binding site), so a subterm that references no enclosing bound
# variable has a digest independent of its context.  That makes the memo
# sound: digests of such context-free subterms are computed once per
# interned node.
_FP_MEMO_LIMIT = 1 << 17
_FP_MEMO: dict[Term, bytes] = {}

#: Whole-task digests start with this tag, which no term node uses.
_TASK_TAG = b"T"
#: Tenant keys likewise get their own tag.
_TENANT_TAG = b"N"


def _field(text: str) -> bytes:
    raw = text.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def term_fingerprint(term: Term) -> str:
    """The alpha-invariant fingerprint of ``term``: a 64-character hex digest.

    ``alpha_equal(s, t)`` implies ``term_fingerprint(s) ==
    term_fingerprint(t)``; for well-sorted terms that are not
    alpha-equivalent the digests differ unless SHA-256 collides.  Free
    variables, constants, operators and sorts are preserved exactly.
    """
    return _digest(term, {}, 0).hex()


def _digest(term: Term, env: dict[str, int], depth: int) -> bytes:
    if env and term._free_names.isdisjoint(env):
        # No enclosing binder is referenced: the relative numbering makes
        # the digest context-independent, so restart from depth 0 and use
        # the memo.
        env = {}
        depth = 0
    if not env:
        cached = _FP_MEMO.get(term)
        if cached is not None:
            return cached
        result = _digest_uncached(term, env, 0)
        if len(_FP_MEMO) > _FP_MEMO_LIMIT:
            _FP_MEMO.clear()
        _FP_MEMO[term] = result
        return result
    return _digest_uncached(term, env, depth)


def _digest_uncached(term: Term, env: dict[str, int], depth: int) -> bytes:
    if isinstance(term, Var):
        level = env.get(term.name)
        if level is None:
            image = b"v" + _field(term.name) + _field(term.sort.name)
        else:
            image = b"b" + _field(str(depth - level)) + _field(term.sort.name)
    elif isinstance(term, Const):
        image = b"c" + _field(term.name) + _field(term.sort.name)
    elif isinstance(term, IntLit):
        image = b"i" + _field(str(term.value))
    elif isinstance(term, BoolLit):
        image = b"t" if term.value else b"f"
    elif isinstance(term, App):
        # Children are fixed-size, so their count is implied by the length.
        image = b"".join(
            [b"a", _field(term.op), _field(term.sort.name)]
            + [_digest(arg, env, depth) for arg in term.args]
        )
    elif isinstance(term, Binder):
        inner = dict(env)
        for offset, (name, _) in enumerate(term.params):
            inner[name] = depth + offset
        image = b"".join(
            [b"B", _field(term.kind), len(term.params).to_bytes(4, "big")]
            + [_field(sort.name) for _, sort in term.params]
            + [_digest(term.body, inner, depth + len(term.params))]
        )
    else:
        raise TypeError(f"unknown term type {type(term)!r}")
    return hashlib.sha256(image).digest()


def task_fingerprint(task: ProofTask) -> str:
    """The cache key of a proof task: a 64-character hex digest.

    Assumption *names* are irrelevant to provability, so only the
    alpha-normalized formulas matter; their digests are deduplicated and
    sorted so that assumption order does not split cache entries, and the
    goal's digest follows them.
    """
    hypotheses = sorted({_digest(formula, {}, 0) for _, formula in task.assumptions})
    hypotheses.append(_digest(task.goal, {}, 0))
    return hashlib.sha256(_TASK_TAG + b"".join(hypotheses)).hexdigest()


@dataclass(frozen=True)
class CachedVerdict:
    """The dispatcher verdict remembered for one canonical sequent.

    ``origin`` records where the verdict came from: ``"memory"`` for
    verdicts produced (and cached) during the current process, ``"disk"``
    for verdicts loaded from a :class:`PersistentCacheStore`.  Reports use
    it to split cache-hit provenance.

    ``wall`` / ``cpu`` are the measured prover cost of the sequent the
    one time it was actually dispatched: wall-clock seconds of the
    portfolio's prover phase and the per-process CPU seconds the provers
    reported.  They are 0.0 for verdicts whose cost was never measured
    (pre-v2 stores) and feed the scheduler's cost model
    (:mod:`repro.verifier.costmodel`) -- they never influence the verdict
    itself.
    """

    proved: bool
    refuted: bool
    winning_prover: str
    origin: str = "memory"
    wall: float = 0.0
    cpu: float = 0.0


class ProofCache:
    """Maps canonical sequent fingerprints to dispatcher verdicts.

    Hit/miss accounting lives in the pipeline's run record
    (:class:`~repro.verifier.parallel.RunStats`), not here, so there is
    exactly one set of counters.

    ``namespace`` isolates tenants of a shared cache: while it is set to a
    non-empty string, every key produced by :meth:`key` is the digest of
    the tenant tag, the namespace and the task fingerprint, so one
    tenant's verdicts can neither serve nor poison another's.  The daemon
    sets it to the authenticated client id for the duration of each
    engine op (:mod:`repro.verifier.daemon`); the default ``""`` keys by
    the bare task fingerprint, so single-tenant callers (CLI, tests,
    existing persistent stores) are unaffected.  Tenant keys are ordinary
    digests to everything downstream -- persistence, cost model, parallel
    dedup all work per tenant for free.

    When full, :meth:`store` evicts the older half of the entries in
    insertion order, so a long-lived daemon keeps its newest verdicts and
    each store stays amortised O(1).
    """

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self.max_entries = max_entries
        self._entries: dict[str, CachedVerdict] = {}
        #: Bumped on every :meth:`store`; lets persistence layers skip
        #: writing when nothing new was learned since the last flush.
        self.mutations = 0
        #: The active tenant namespace ("" = the shared default tenant).
        self.namespace = ""

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, task: ProofTask) -> str:
        return self.key_for_fingerprint(task_fingerprint(task))

    def key_for_fingerprint(self, fingerprint: str) -> str:
        """The cache key for a raw (tenant-free) task fingerprint.

        The dependency index (:mod:`repro.verifier.incremental`) stores raw
        fingerprints so one index serves every tenant; resolving a verdict
        for the active tenant goes through this, exactly like :meth:`key`.
        """
        if self.namespace:
            image = _TENANT_TAG + _field(self.namespace) + _field(fingerprint)
            return hashlib.sha256(image).hexdigest()
        return fingerprint

    def lookup(self, key: str) -> CachedVerdict | None:
        return self._entries.get(key)

    def store(self, key: str, verdict: CachedVerdict) -> None:
        entries = self._entries
        if len(entries) >= self.max_entries and key not in entries:
            # Dict order is insertion order: keep the newer half.
            keep_from = len(entries) - self.max_entries // 2
            self._entries = entries = dict(
                itertools.islice(entries.items(), keep_from, None)
            )
        entries[key] = verdict
        self.mutations += 1

    def preload(self, entries: dict[str, CachedVerdict]) -> None:
        """Seed the cache (e.g. from a persistent store) without eviction.

        Existing entries win: verdicts produced during this process are
        never overwritten by stale disk entries.  Seeding stops at half
        ``max_entries``, so an over-large persistent store leaves room for
        the verdicts a running process learns before the first eviction
        drops preloaded ones (the unseeded remainder is merely re-proved).
        """
        limit = self.max_entries // 2
        for key, verdict in entries.items():
            if len(self._entries) >= limit:
                break
            self._entries.setdefault(key, verdict)

    def snapshot(self) -> dict[str, CachedVerdict]:
        """A shallow copy of the cache contents (for persistence)."""
        return dict(self._entries)

    def clear(self) -> None:
        self._entries.clear()


# ---------------------------------------------------------------------------
# Cross-run persistence
# ---------------------------------------------------------------------------


#: Fingerprints and tenant keys as they appear in a store.
_is_digest = re.compile(r"[0-9a-f]{64}\Z").match


class PersistentCacheStore:
    """Cross-run persistence for :class:`ProofCache` verdicts.

    The on-disk format (field-by-field), the versioning/invalidation
    matrix and the merge-save locking protocol are specified in
    ``docs/cache-format.md``; keep that document in sync with any change
    here (and bump :data:`CACHE_FORMAT_VERSION` /
    :data:`FINGERPRINT_VERSION` as it prescribes).

    The store is a single versioned JSON file under ``directory``.  A store
    is only valid for one portfolio configuration (prover line-up and
    per-prover timeouts, summarized by ``portfolio_key``) and one
    fingerprint scheme (:data:`FINGERPRINT_VERSION`): any mismatch -- as
    well as a missing, truncated or otherwise corrupted file -- degrades to
    a cold start, never to a crash or a misused verdict.

    Writes are atomic (temp file + ``os.replace`` in the same directory)
    and *merging*: :meth:`save` re-reads the current file under an
    inter-process file lock and unions it with the new entries, so
    concurrent writers can never corrupt the file and never lose each
    other's verdicts (on platforms without ``fcntl`` the lock degrades to
    plain atomic replace, where a racing writer's batch may be dropped but
    the file always stays readable).
    """

    FILENAME = "proof_cache.json"

    #: Entry cap for the on-disk file: merge-saves union forever, so an
    #: unbounded store would eventually grow past any usefulness (and past
    #: :class:`ProofCache`'s own limits).  When the cap is hit the oldest
    #: entries are dropped (newly learned verdicts are kept).
    MAX_ENTRIES = 1 << 16

    def __init__(
        self,
        directory: str | Path,
        portfolio_key: str,
        filename: str | None = None,
        max_entries: int = MAX_ENTRIES,
    ) -> None:
        self.directory = Path(directory)
        self.portfolio_key = portfolio_key
        self.path = self.directory / (filename or self.FILENAME)
        self.max_entries = max_entries
        #: Human-readable outcome of the last :meth:`load` call (the
        #: internal re-reads of merge-saves do not touch it).
        self.last_load_status = "not-loaded"
        #: The per-class dependency index of the last :meth:`load`
        #: (JSON-ready, see ``docs/cache-format.md``; empty on a cold
        #: start).  Consumed by
        #: :class:`repro.verifier.incremental.DependencyIndex`.
        self.last_dependencies: dict[str, dict] = {}

    # -- reading -----------------------------------------------------------------

    def load(self) -> dict[str, CachedVerdict]:
        """Load the persisted verdicts, or ``{}`` on any mismatch/corruption.

        The dependency index that rode along is exposed as
        :attr:`last_dependencies` afterwards.
        """
        entries, dependencies, status = self._read()
        self.last_load_status = status
        self.last_dependencies = dependencies
        return entries

    def _read(self) -> tuple[dict[str, CachedVerdict], dict[str, dict], str]:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            return {}, {}, "cold:missing"
        except OSError:
            return {}, {}, "cold:unreadable"
        return self._parse(raw)

    def _parse(self, raw: str) -> tuple[dict[str, CachedVerdict], dict[str, dict], str]:
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, ValueError):
            return {}, {}, "cold:corrupt"
        if not isinstance(payload, dict):
            return {}, {}, "cold:corrupt"
        if payload.get("format") != CACHE_FORMAT_VERSION:
            return {}, {}, "cold:format-mismatch"
        if payload.get("fingerprint_version") != FINGERPRINT_VERSION:
            return {}, {}, "cold:fingerprint-mismatch"
        if payload.get("portfolio") != self.portfolio_key:
            return {}, {}, "cold:portfolio-mismatch"
        raw_entries = payload.get("entries")
        if not isinstance(raw_entries, list):
            return {}, {}, "cold:corrupt"
        entries: dict[str, CachedVerdict] = {}
        for row in raw_entries:
            try:
                key, proved, refuted, prover, *timing = row
                if not (
                    _is_digest(key)
                    and type(proved) is bool
                    and type(refuted) is bool
                    and type(prover) is str
                ):
                    raise ValueError("damaged entry")
                wall, cpu = timing or (0.0, 0.0)
                entries[key] = CachedVerdict(
                    proved, refuted, prover, "disk", float(wall), float(cpu)
                )
            except (ValueError, TypeError):
                # Skip individually damaged entries; keep the rest.
                continue
        dependencies = self._parse_dependencies(payload.get("dependencies"))
        return entries, dependencies, f"warm:{len(entries)}"

    @staticmethod
    def _parse_dependencies(raw_dependencies) -> dict[str, dict]:
        """Validate the per-class dependency-index section.

        The store only checks the JSON *shape*: string artifact digests
        and a list of per-method records, each carrying ``[label,
        fingerprint]`` sequent pairs whose fingerprints are digests.
        Semantic interpretation lives in
        :class:`repro.verifier.incremental.DependencyIndex`.  Damaged
        classes are skipped, like damaged entries.
        """
        if not isinstance(raw_dependencies, dict):
            return {}
        dependencies: dict[str, dict] = {}
        for name, record in raw_dependencies.items():
            try:
                artifacts = {
                    str(key): str(value)
                    for key, value in record["artifacts"].items()
                }
                methods = []
                for method_name, method_record in record["methods"]:
                    sequents = []
                    for label, fingerprint in method_record["sequents"]:
                        if not _is_digest(fingerprint):
                            raise ValueError("damaged fingerprint")
                        sequents.append([str(label), fingerprint])
                    methods.append(
                        [
                            str(method_name),
                            {
                                "digest": str(method_record["digest"]),
                                "sequents": sequents,
                            },
                        ]
                    )
                dependencies[str(name)] = {
                    "artifacts": artifacts,
                    "methods": methods,
                }
            except (ValueError, KeyError, TypeError, AttributeError):
                continue
        return dependencies

    # -- writing -----------------------------------------------------------------

    def save(
        self,
        entries: dict[str, CachedVerdict],
        merge: bool = True,
        dependencies: dict[str, dict] | None = None,
    ) -> int:
        """Atomically write ``entries``; returns the number persisted.

        With ``merge`` (the default) the current on-disk entries are
        re-read and unioned in first, so concurrent writers and repeated
        partial runs accumulate instead of clobbering each other.
        ``dependencies`` optionally carries the JSON-ready per-class
        dependency index to persist alongside (merged per class name, new
        data winning).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._write_lock():
            return self._save_locked(entries, merge, dependencies)

    @contextlib.contextmanager
    def _write_lock(self):
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_suffix(self.path.suffix + ".lock")
        with open(lock_path, "a+") as lock_file:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    def _save_locked(
        self,
        entries: dict[str, CachedVerdict],
        merge: bool,
        dependencies: dict[str, dict] | None = None,
    ) -> int:
        combined: dict[str, CachedVerdict] = {}
        combined_dependencies: dict[str, dict] = {}
        if merge:
            disk_entries, disk_dependencies, _ = self._read()
            combined.update(disk_entries)
            combined_dependencies.update(disk_dependencies)
        combined.update(entries)
        if dependencies:
            combined_dependencies.update(dependencies)
        if len(combined) > self.max_entries:
            # Dict order is insertion order: disk entries came first, so
            # dropping from the front keeps the newest verdicts.
            excess = len(combined) - self.max_entries
            for key in list(combined)[:excess]:
                del combined[key]
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "portfolio": self.portfolio_key,
            "dependencies": combined_dependencies,
            "entries": [
                # 6 decimals ~ microseconds: plenty for scheduling, and it
                # keeps a 2^16-entry store compact.
                [
                    key,
                    verdict.proved,
                    verdict.refuted,
                    verdict.winning_prover,
                    round(verdict.wall, 6),
                    round(verdict.cpu, 6),
                ]
                for key, verdict in combined.items()
            ],
        }
        # One json.dumps call runs the C encoder; json.dump would stream
        # through the pure-Python one.
        text = json.dumps(payload, separators=(",", ":"))
        fd, temp_path = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp_path, self.path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return len(combined)
