"""Edge-case coverage for the report renderers.

``format_suite`` / ``format_verify`` were only
exercised on happy-path runs; these tests pin down the degenerate shapes a
serving system actually produces: empty classes, all-cache-hit runs that
never start a worker, and worker-crash runs whose surviving workers carry
requeued load (remote backend, string worker identities).
"""

from __future__ import annotations

import pytest

from repro.suite import structure_by_name
from repro.verifier.daemon import VerifierDaemon
from repro.verifier.engine import ClassReport, MethodReport, VerificationEngine
from repro.verifier.parallel import ClassScheduleStats, RunStats, WorkerLoad
from repro.verifier.report import format_suite, format_verify


class TestRunStats:
    def test_empty_run_renders(self):
        text = format_suite(RunStats(jobs=2))
        assert "Suite schedule (2 jobs" in text
        assert "sequents total      0" in text
        assert "shipped to workers  0" in text

    def test_all_cache_hit_run_has_no_workers(self):
        stats = RunStats(jobs=4)
        stats.sequents_total = 40
        stats.hits_memory = 30
        stats.hits_disk = 10
        text = format_suite(stats)
        assert "answered from cache 40 (memory 30, disk 10)" in text
        assert "worker " not in text  # nothing was dispatched

    def test_remote_worker_labels_render(self):
        stats = RunStats(jobs=2, backend="remote")
        stats.sequents_total = 12
        stats.dispatched = 12
        stats.fold_worker("host-a/101", 8, 1.5)
        stats.fold_worker("host-b/202", 4, 0.5)
        text = format_suite(stats)
        assert "remote" in text
        assert "worker host-a/101" in text
        assert "worker host-b/202" in text

    def test_worker_crash_partial_results(self):
        # A remote run where one worker died mid-run: its partial load is
        # still attributed, the survivor carries the requeued rest.
        stats = RunStats(jobs=2, backend="remote")
        stats.sequents_total = 10
        stats.dispatched = 10
        stats.fold_worker("dead-host/1", 2, 0.3)
        stats.fold_worker("live-host/2", 8, 2.1)
        text = format_suite(stats)
        assert "worker dead-host/1" in text and "2 sequents" in text
        assert "worker live-host/2" in text and "8 sequents" in text
        # Accounting still closes even though a worker vanished.
        assert sum(load.tasks for load in stats.workers) == stats.dispatched

    def test_fold_worker_accumulates_by_identity(self):
        stats = RunStats(jobs=2)
        stats.fold_worker(1234, 1, 0.1)
        stats.fold_worker(1234, 2, 0.2)
        stats.fold_worker("host/1234", 1, 0.1)  # a label is a new identity
        assert [load.pid for load in stats.workers] == [1234, "host/1234"]
        assert stats.workers[0].tasks == 3
        assert stats.workers[0].prover_time == pytest.approx(0.3)
        assert isinstance(stats.workers[0], WorkerLoad)

    def test_merge_keeps_remote_backend(self):
        total = RunStats(jobs=2)
        run = RunStats(jobs=2, backend="remote")
        run.sequents_total = 3
        total.merge(run)
        assert total.backend == "remote"
        assert total.sequents_total == 3


class TestFormatSuite:
    def test_empty_suite_renders(self):
        stats = RunStats(jobs=2)
        text = format_suite(stats)
        assert "Suite schedule (2 jobs" in text
        assert "dispatch order" in text

    def test_empty_class_row_renders(self):
        stats = RunStats(jobs=1)
        stats.schedule_order = ["Empty Thing"]
        stats.classes.append(
            ClassScheduleStats(class_name="Empty Thing", cost_hint=0.5)
        )
        text = format_suite(stats)
        assert "Empty Thing" in text
        # All-zero row: sequents, dispatched, cache, dup.
        row = next(
            line
            for line in text.splitlines()
            if line.strip().startswith("Empty Thing")
        )
        assert row.split()[-4:] == ["0", "0", "0", "0"]

    def test_all_cache_hit_class(self):
        stats = RunStats(jobs=2)
        stats.sequents_total = 20
        stats.hits_memory = 20
        stats.schedule_order = ["Warm Class"]
        stats.classes.append(
            ClassScheduleStats(
                class_name="Warm Class",
                cost_hint=3.0,
                sequents=20,
                hits_memory=20,
            )
        )
        text = format_suite(stats)
        assert "answered from cache 20 (memory 20, disk 0)" in text
        row = next(
            line
            for line in text.splitlines()
            if line.strip().startswith("Warm Class")
        )
        assert row.split()[-3:] == ["0", "20", "0"]  # dispatched, cache, dup


class TestFormatVerify:
    def test_empty_class_report(self):
        text = format_verify(ClassReport("Empty"))
        assert text == "total: 0/0 sequents, 0/0 methods, 0.0s"

    def test_method_with_no_sequents(self):
        report = ClassReport("Thin")
        report.methods.append(MethodReport("Thin", "noop"))
        text = format_verify(report)
        assert "Thin.noop: 0/0 sequents" in text
        assert text.endswith("total: 0/0 sequents, 1/1 methods, 0.0s")


class TestDaemonEmptySuite:
    def test_suite_op_with_empty_names(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "x.sock", engine=VerificationEngine(persist=False)
        )
        try:
            response = daemon.handle({"op": "suite", "names": []})
            assert response["ok"]
            assert response["reports"] == []
            assert "Suite schedule" in response["output"]
        finally:
            daemon.close()

    def test_verify_op_unknown_name_is_clean(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "y.sock", engine=VerificationEngine(persist=False)
        )
        try:
            response = daemon.handle({"op": "verify", "name": "Nope"})
            assert not response["ok"] and "Nope" in response["error"]
        finally:
            daemon.close()

    def test_report_payload_shape(self, tmp_path):
        daemon = VerifierDaemon(
            tmp_path / "z.sock", engine=VerificationEngine(persist=False)
        )
        try:
            cls = structure_by_name("Linked List")
            response = daemon.handle({"op": "verify", "name": cls.name})
            assert response["ok"]
            payload = response["report"]
            assert payload["class"] == cls.name
            assert payload["sequents_total"] == sum(
                len(method["outcomes"]) for method in payload["methods"]
            )
        finally:
            daemon.close()
