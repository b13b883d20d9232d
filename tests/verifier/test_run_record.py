"""One run record counts every planned sequent exactly once.

``RunStats`` is the only counter record of a verification run: every
entry point plans into it, the engine folds each run into
``run_stats_total``, and the daemon's ``stats`` op ships its
:meth:`~repro.verifier.parallel.RunStats.counters`.  For every entry
point, with the proof cache on and off, each class row and each total
must close (dispatched + memory hits + disk hits + folded duplicates =
sequents), the proved count must match the reports, and the ``stats``
op must report exactly what the record holds.
"""

from __future__ import annotations

import pytest

from repro.verifier.daemon import VerifierDaemon

from test_incremental import build_counter, make_engine

ENTRY_POINTS = (
    "class@1",
    "class@2",
    "strip",
    "suite",
    "incremental-cold",
    "incremental-warm",
)


def run_entry_point(engine, entry: str) -> list:
    """Run one entry point; returns ``[(RunStats, reports), ...]`` per run."""
    counter = build_counter()
    runs = []

    def record(reports):
        runs.append((engine.last_run_stats, reports))

    if entry in ("class@1", "class@2"):
        record([engine.verify_class(counter)])
    elif entry == "strip":
        record([engine.verify_class(build_counter(note=True), strip_proofs=True)])
    elif entry == "suite":
        # The annotated variant shares most sequents with the plain class,
        # so one plan folds cross-class duplicates when the cache is on.
        record(engine.verify_suite([counter, build_counter(note=True)]))
    else:
        record([engine.verify_class_incremental(counter)[0]])
        if entry == "incremental-warm":
            record([engine.verify_class_incremental(counter)[0]])
    return runs


def closes(row_or_run, sequents: int) -> bool:
    return (
        row_or_run.dispatched
        + row_or_run.hits_memory
        + row_or_run.hits_disk
        + row_or_run.duplicates_folded
        == sequents
    )


def derived_counters(total) -> dict:
    hits = total.hits_memory + total.hits_disk + total.duplicates_folded
    return {
        "proof_cache_hits": hits,
        "proof_cache_hits_memory": total.hits_memory + total.duplicates_folded,
        "proof_cache_hits_disk": total.hits_disk,
        "proof_cache_misses": total.dispatched,
        "proof_cache_hit_rate": hits / total.sequents_total,
        "sequents_attempted": total.sequents_total,
        "sequents_proved": total.sequents_proved,
    }


@pytest.mark.parametrize("use_cache", [True, False], ids=["cache-on", "cache-off"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_one_record_counts_each_sequent_once(entry, use_cache, tmp_path):
    engine = make_engine(jobs=2 if entry == "class@2" else 1, use_proof_cache=use_cache)
    runs = run_entry_point(engine, entry)
    for stats, reports in runs:
        assert stats.sequents_total == sum(r.sequents_total for r in reports) > 0
        assert stats.sequents_proved == sum(r.sequents_proved for r in reports)
        assert closes(stats, stats.sequents_total)
        assert [row.class_name for row in stats.classes] == [
            r.class_name for r in reports
        ]
        for row, report in zip(stats.classes, reports):
            assert row.sequents == report.sequents_total
            assert closes(row, row.sequents)
        assert sum(load.tasks for load in stats.workers) == stats.dispatched

    total = engine.run_stats_total
    assert total.sequents_total == sum(stats.sequents_total for stats, _ in runs)
    assert total.sequents_proved == sum(stats.sequents_proved for stats, _ in runs)
    assert closes(total, total.sequents_total)
    for row in total.classes:
        assert closes(row, row.sequents)

    daemon = VerifierDaemon(tmp_path / "jahob.sock", engine=engine)
    response = daemon.handle({"op": "stats"})
    assert response["ok"]
    counters = response["counters"]
    for name, value in derived_counters(total).items():
        assert counters[name] == pytest.approx(value), name
    assert {"terms_allocated", "terms_interned", "intern_hit_rate"} <= set(counters)

    if not use_cache:
        # Without a cache nothing is answered or folded: every sequent is
        # dispatched, and each dispatched sequent counts as a miss.
        assert counters["proof_cache_hits"] == 0
        assert (
            counters["proof_cache_misses"] == total.dispatched == total.sequents_total
        )
    elif entry == "suite":
        assert total.duplicates_folded > 0
    elif entry == "incremental-warm":
        warm, _ = runs[1]
        assert warm.dispatched == 0 and warm.hits_memory == warm.sequents_total
    engine.close()
