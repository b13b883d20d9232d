"""Every class-level entry point runs one plan -> execute pipeline.

The differential harnesses compare verdicts; this module pins down the
rest of what the pipeline leaves behind.  ``verify_class`` at jobs 1 and
2, ``verify_suite`` and ``verify_class_incremental`` must record the same
dependency record, the same per-sequent verdicts and attempt lists and
the same run-record counters, on a cold run and on the warm repeat --
and a fully cached run must not rewrite the persistent store.
"""

from __future__ import annotations

from repro.provers.cache import PersistentCacheStore
from repro.provers.dispatch import default_portfolio
from repro.verifier.engine import VerificationEngine

from test_parallel_differential import (
    TIMEOUT_SCALE,
    make_engine,
    statistics_trace,
    structures,
)

PATHS = ("class@1", "class@2", "suite", "incremental")


def run_path(path: str, cls) -> list[tuple]:
    """Run ``cls`` through one entry point twice (cold, then warm) and
    return what each run left behind."""
    engine = make_engine(jobs=2 if path == "class@2" else 1, use_cache=True)
    seen = []
    for _ in range(2):
        if path == "suite":
            (report,) = engine.verify_suite([cls])
        elif path == "incremental":
            report, _ = engine.verify_class_incremental(cls)
        else:
            report = engine.verify_class(cls)
        verdicts = [
            (
                o.sequent.label,
                o.proved,
                o.dispatch.refuted,
                o.prover,
                tuple(attempt.prover for attempt in o.dispatch.attempts),
            )
            for method in report.methods
            for o in method.outcomes
        ]
        seen.append(
            (
                engine.dependency_index.get(cls.name),
                verdicts,
                statistics_trace(engine),
            )
        )
    engine.close()
    return seen


def test_entry_points_agree_beyond_verdicts():
    (cls,) = structures(("Cursor List",))
    reference = run_path(PATHS[0], cls)
    assert reference[0][0] is not None  # a dependency record was written
    for path in PATHS[1:]:
        assert run_path(path, cls) == reference, path


def test_fully_cached_verify_class_leaves_the_store_untouched(tmp_path):
    (cls,) = structures(("Cursor List",))

    def engine() -> VerificationEngine:
        portfolio = default_portfolio().scaled(TIMEOUT_SCALE)
        return VerificationEngine(portfolio, cache_dir=tmp_path)

    with engine() as first:
        first.verify_class(cls)
    path = tmp_path / PersistentCacheStore.FILENAME
    before = (path.stat().st_mtime_ns, path.read_bytes())
    with engine() as warm:
        warm.verify_class(cls)
        assert warm.last_run_stats.dispatched == 0
        _, delta = warm.verify_class_incremental(cls)
        assert delta.dispatched == 0 and not delta.cold_start
    assert (path.stat().st_mtime_ns, path.read_bytes()) == before
