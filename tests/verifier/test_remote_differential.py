"""Differential harness for the distributed worker backend.

Real ``jahob-py worker`` subprocesses stand in for remote machines (the
protocol is the same TCP + handshake either way); the coordinator is a
:class:`~repro.verifier.engine.VerificationEngine` with ``workers=``.  The
contract mirrors the in-process pool's: per-sequent verdicts, prover
attribution, cache provenance and portfolio counters must be bit-identical
to a fresh sequential engine on the same classes -- **including** when a
worker is SIGKILLed mid-run and its in-flight tasks are requeued onto the
survivor.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.provers.dispatch import PortfolioSpec, default_portfolio
from repro.verifier.engine import VerificationEngine
from repro.verifier.remote import RemoteWorkerError, RemoteWorkerPool

from test_parallel_differential import (
    FAST_CLASSES,
    TIMEOUT_SCALE,
    aggregate_trace,
    make_engine,
    sequent_trace,
    statistics_trace,
    structures,
)

SECRET = b"differential-test-secret"

_LISTENING = re.compile(r"listening on (\S+)")


class WorkerProcess:
    """One ``jahob-py worker --listen`` subprocess plus its address."""

    def __init__(self, secret_file: Path) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.verifier.cli",
                "worker",
                "--listen",
                "127.0.0.1:0",
                "--secret-file",
                str(secret_file),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        match = _LISTENING.search(line)
        assert match, f"worker did not announce its address: {line!r}"
        self.address = match.group(1)
        self.pid = self.proc.pid

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.stdout.close()


@pytest.fixture()
def secret_file(tmp_path):
    path = tmp_path / "secret"
    path.write_bytes(SECRET + b"\n")
    return path


@pytest.fixture()
def worker_pair(secret_file):
    workers = [WorkerProcess(secret_file), WorkerProcess(secret_file)]
    yield workers
    for worker in workers:
        worker.stop()


def remote_engine(addresses, use_cache: bool = True) -> VerificationEngine:
    return VerificationEngine(
        default_portfolio(with_cache=use_cache).scaled(TIMEOUT_SCALE),
        use_proof_cache=use_cache,
        workers=list(addresses),
        worker_secret=SECRET,
    )


def test_one_worker_class_differential(secret_file):
    worker = WorkerProcess(secret_file)
    try:
        classes = structures(FAST_CLASSES[:2])
        sequential = make_engine(jobs=1, use_cache=True)
        seq_reports = [sequential.verify_class(cls) for cls in classes]
        remote = remote_engine([worker.address])
        remote_reports = [remote.verify_class(cls) for cls in classes]
        for seq_report, rem_report in zip(seq_reports, remote_reports):
            assert sequent_trace(seq_report) == sequent_trace(rem_report)
            assert aggregate_trace(seq_report) == aggregate_trace(rem_report)
        assert statistics_trace(sequential) == statistics_trace(remote)
        stats = remote.last_run_stats
        assert stats.backend == "remote"
        # Per-worker provenance: the one worker's label carries host/pid.
        [load] = remote.run_stats_total.workers
        assert str(load.pid).endswith(f"/{worker.pid}")
        remote.close()
    finally:
        worker.stop()


def test_two_workers_suite_differential(worker_pair):
    classes = structures(FAST_CLASSES)
    sequential = make_engine(jobs=1, use_cache=True)
    seq_reports = [sequential.verify_class(cls) for cls in classes]
    remote = remote_engine([worker.address for worker in worker_pair])
    suite_reports = remote.verify_suite(classes)
    for seq_report, suite_report in zip(seq_reports, suite_reports):
        assert sequent_trace(seq_report) == sequent_trace(suite_report)
        assert aggregate_trace(seq_report) == aggregate_trace(suite_report)
    assert statistics_trace(sequential) == statistics_trace(remote)
    stats = remote.last_run_stats
    assert stats.backend == "remote"
    assert (
        stats.dispatched
        + stats.hits_memory
        + stats.hits_disk
        + stats.duplicates_folded
        == stats.sequents_total
    )
    # Both workers actually participated and the load closes.
    assert sum(load.tasks for load in stats.workers) == stats.dispatched
    worker_pids = {worker.pid for worker in worker_pair}
    seen_pids = {int(str(load.pid).rsplit("/", 1)[1]) for load in stats.workers}
    assert seen_pids == worker_pids
    remote.close()


def test_worker_kill_mid_run_requeues_and_stays_identical(worker_pair):
    """The acceptance case: SIGKILL one of two workers mid-suite; the
    surviving worker absorbs the requeued tasks and the results are still
    bit-identical to the sequential path."""
    classes = structures(FAST_CLASSES)
    sequential = make_engine(jobs=1, use_cache=True)
    seq_reports = [sequential.verify_class(cls) for cls in classes]

    remote = remote_engine([worker.address for worker in worker_pair])
    by_pid = {worker.pid: worker for worker in worker_pair}
    state = {"killed": None}
    original_run = RemoteWorkerPool.run

    def killing_run(self, items):
        count = 0
        for index, label, wall, result in original_run(self, items):
            count += 1
            if count == 2 and state["killed"] is None:
                # Kill the *other* worker -- the one that did not just
                # answer -- which still holds in-flight tasks (every
                # worker is filled to its batch window before the first
                # result can possibly arrive).
                answered_pid = int(str(label).rsplit("/", 1)[1])
                for pid, worker in by_pid.items():
                    if pid != answered_pid:
                        worker.kill()
                        state["killed"] = pid
                        break
            yield index, label, wall, result

    RemoteWorkerPool.run = killing_run
    try:
        suite_reports = remote.verify_suite(classes)
    finally:
        RemoteWorkerPool.run = original_run

    assert state["killed"] is not None, "the kill never fired"
    for seq_report, suite_report in zip(seq_reports, suite_reports):
        assert sequent_trace(seq_report) == sequent_trace(suite_report)
        assert aggregate_trace(seq_report) == aggregate_trace(suite_report)
    assert statistics_trace(sequential) == statistics_trace(remote)
    stats = remote.last_run_stats
    # Every dispatched task is attributed to some worker even though one
    # died; the survivor carried the requeued share.
    assert sum(load.tasks for load in stats.workers) == stats.dispatched
    survivor_pid = next(pid for pid in by_pid if pid != state["killed"])
    survivor_loads = [
        load
        for load in stats.workers
        if str(load.pid).endswith(f"/{survivor_pid}")
    ]
    assert survivor_loads and survivor_loads[0].tasks > 0
    remote.close()


def test_pool_level_requeue_is_complete(worker_pair, secret_file):
    """Pool-level view of the kill: every task yields exactly one result."""
    engine = make_engine(jobs=1, use_cache=True)
    cls = structures(("Array List",))[0]
    tasks = []
    for method in cls.methods:
        for sequent in engine.method_sequents(cls, method):
            tasks.append(engine.task_for(sequent))
    items = list(enumerate(tasks))
    assert len(items) >= 10
    spec = PortfolioSpec.from_portfolio(engine.portfolio)
    pool = RemoteWorkerPool(
        spec,
        tuple(worker.address for worker in worker_pair),
        secret=SECRET,
        batch_size=3,
    )
    seen: dict[int, object] = {}
    killed = False
    try:
        for index, label, wall, result in pool.run(items):
            assert index not in seen
            seen[index] = result
            if not killed:
                killed = True
                answered_pid = int(str(label).rsplit("/", 1)[1])
                for worker in worker_pair:
                    if worker.pid != answered_pid:
                        worker.kill()
    finally:
        pool.close()
    assert set(seen) == set(range(len(items)))
    # Verdict parity against the in-parent prover phase.
    for index, task in items:
        local = engine.portfolio.run_provers(task)
        assert seen[index].proved == local.proved
        assert seen[index].winning_prover == local.winning_prover


def test_all_workers_dead_is_a_clean_error(secret_file):
    worker = WorkerProcess(secret_file)
    engine = make_engine(jobs=1, use_cache=True)
    cls = structures(("Array List",))[0]
    tasks = []
    for method in cls.methods:
        for sequent in engine.method_sequents(cls, method):
            tasks.append(engine.task_for(sequent))
    spec = PortfolioSpec.from_portfolio(engine.portfolio)
    pool = RemoteWorkerPool(spec, (worker.address,), secret=SECRET)
    with pytest.raises(RemoteWorkerError, match="unfinished"):
        try:
            for count, _ in enumerate(pool.run(list(enumerate(tasks)))):
                if count == 0:
                    worker.kill()
        finally:
            pool.close()
    worker.stop()


def test_wrong_secret_is_rejected(secret_file):
    worker = WorkerProcess(secret_file)
    try:
        spec = PortfolioSpec.from_portfolio(default_portfolio())
        pool = RemoteWorkerPool(spec, (worker.address,), secret=b"not-it")
        with pytest.raises(RemoteWorkerError, match="handshake"):
            pool.warm_up()
        pool.close()
        # The worker survives a rejected peer and still serves a good one.
        good = RemoteWorkerPool(spec, (worker.address,), secret=SECRET)
        good.warm_up()
        assert good.started
        good.close()
    finally:
        worker.stop()


def test_registry_registration_differential(secret_file, tmp_path):
    """The inbound direction: a worker registers with a coordinator-side
    registry (``worker --connect``) and the run is still bit-identical.

    Regression: the registry used to crash building its WorkerConnection,
    and ``warm_up`` used to block waiting for a registration -- both only
    visible on this path, not the dial path.
    """
    from repro.verifier.remote import WorkerRegistry

    registry = WorkerRegistry("127.0.0.1:0", SECRET)
    engine = VerificationEngine(
        default_portfolio().scaled(TIMEOUT_SCALE),
        worker_registry=registry,
        worker_secret=SECRET,
    )
    # warm_up must not block while no worker has registered yet.
    engine.keep_pool_warm = True
    engine.warm_pool()

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.verifier.cli",
            "worker",
            "--connect",
            registry.address,
            "--secret-file",
            str(secret_file),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        cls = structures(("Array List",))[0]
        sequential = make_engine(jobs=1, use_cache=True)
        seq_report = sequential.verify_class(cls)
        # Idle period before the first request: a registered worker must
        # wait indefinitely for work (regression: the dial-phase socket
        # timeout of 5s used to survive the handshake, so a worker whose
        # coordinator was idle died -- and exited 0 -- before this point).
        time.sleep(6.0)
        assert proc.poll() is None, "idle registered worker died"
        report = engine.verify_class(cls)
        assert sequent_trace(seq_report) == sequent_trace(report)
        assert aggregate_trace(seq_report) == aggregate_trace(report)
        stats = engine.last_run_stats
        assert stats.backend == "remote"
        assert sum(load.tasks for load in stats.workers) == stats.dispatched > 0
        assert str(stats.workers[0].pid).endswith(f"/{proc.pid}")
    finally:
        engine.close()
        registry.close()
        if proc.poll() is None:
            proc.terminate()
            proc.wait(timeout=10)
        proc.stdout.close()


def test_remote_warm_cache_dispatches_nothing(worker_pair):
    """A warm second run answers everything from the parent cache and
    never talks to the workers at all (parent-side cache authority)."""
    remote = remote_engine([worker.address for worker in worker_pair])
    cls = structures(("Cursor List",))[0]
    remote.verify_class(cls)
    first = remote.last_run_stats
    assert first.dispatched > 0
    remote.verify_class(cls)
    second = remote.last_run_stats
    assert second.dispatched == 0
    assert second.hits_memory == second.sequents_total
    assert second.workers == []
    remote.close()
