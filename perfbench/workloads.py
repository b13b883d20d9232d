"""The benchmark's workloads, each driving only public entry points.

Every workload has ``prepare()`` (untimed per-invocation fixtures, such as
building a persistent store with the code under test) and ``measure(tracer)``
(one measured phase).  ``measure`` returns a :class:`Measurement`: set-up
samples, one wall time per batch, one latency per operation, and the
verdict-check failures.  With a tracer, every operation runs inside
``tracer.operation`` so its spans share one id.
"""

from __future__ import annotations

import contextlib
import dataclasses
import http.client
import json
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    all_proved,
    evaluator_agrees,
    no_refuted,
    none_dispatched,
    payload_verdicts,
    report_verdicts,
    same_verdicts,
)
from repro.logic import And
from repro.provers.dispatch import default_portfolio
from repro.suite.array_list import build_array_list
from repro.suite.binary_tree import build_binary_tree
from repro.suite.catalog import all_structures, structure_by_name
from repro.suite.generate import generate_corpus
from repro.suite.hash_table import build_hash_table
from repro.suite.linked_structures import (
    build_association_list,
    build_circular_list,
    build_cursor_list,
    build_linked_list,
)
from repro.suite.priority_queue import build_priority_queue
from repro.verifier.engine import VerificationEngine
from repro.verifier.http import sign_request
from repro.verifier.loadgen import DEFAULT_STRUCTURES, OP_MIX


@dataclass
class Measurement:
    """What one measured phase of a workload observed."""

    setup_s: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def corpus_seed(seed: int) -> int:
    """First class seed of the stored corpus: far from tier-1's seed-0
    corpus, and distinct per benchmark seed."""
    return 100_000 + 10_000 * seed


def engine(scale: float, **kwargs) -> VerificationEngine:
    return VerificationEngine(default_portfolio().scaled(scale), **kwargs)


class Workload:
    """Base class; ``counts_children`` says whether child processes that
    run during the measured phase belong to ``peak_rss_mb``, and
    ``trace`` whether this invocation is a traced run (both phases)."""

    name = ""
    timeout_scale = 0.4
    counts_children = True

    def __init__(self, seed: int, seconds: float, workdir: Path, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.trace = trace

    def prepare(self) -> None:
        pass

    def measure(self, tracer) -> Measurement:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def units(self, nominal_s: float) -> int:
        """How many units of work fill ``seconds`` at ``nominal_s`` per
        unit (measured on a 2-CPU machine).  The work is fixed before
        timing starts, so a faster program does the same work in less
        time and the percentiles keep their sample counts."""
        return max(1, round(self.seconds / nominal_s))

    @staticmethod
    def op(tracer, op_id: int, name: str):
        return tracer.operation(op_id, name) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# table1-cold
# ---------------------------------------------------------------------------


class Table1Cold(Workload):
    """The eight Table 1 classes through ``verify_suite`` at jobs=2 on a
    fresh engine without a store.  One batch and one operation are both
    one suite, timed here around the ``verify_suite`` call.  The per-class
    times the engine reports are record details only: they are the
    engine's own accounting (a folded duplicate sequent counts for one
    class), and timing each class alone on a fresh engine would double
    the run.

    One set-up builds the eight class models and constructs an engine.
    Set-up samples are taken before and after each suite, so their median
    does not come from one short window."""

    name = "table1-cold"
    jobs = 2
    batch_s = 26.0
    setup_samples = 10
    setup_batch = 4

    @staticmethod
    def build_classes():
        """The Table 1 class models, built afresh (the catalogue caches
        its copies)."""
        return [
            build_hash_table(),
            build_priority_queue(),
            build_binary_tree(),
            build_array_list(),
            build_circular_list(),
            build_cursor_list(),
            build_association_list(),
            build_linked_list(),
        ]

    def _setup(self, m: Measurement):
        """One set-up sample: the mean of ``setup_batch`` set-ups, since one
        takes only tens of milliseconds.  Returns the last one's classes
        and engine."""
        built = []
        start = time.perf_counter()
        for _ in range(self.setup_batch):
            classes = self.build_classes()
            built.append((classes, engine(self.timeout_scale, jobs=self.jobs)))
        m.setup_s.append((time.perf_counter() - start) / self.setup_batch)
        for _, spare in built[:-1]:
            spare.close()
        return built[-1]

    def measure(self, tracer) -> Measurement:
        m = Measurement()
        proved = total = 0
        unproved_by_class: dict[str, int] = {}
        row_elapsed_s: dict[str, list[float]] = {}
        batches = self.units(self.batch_s)
        for batch in range(1, batches + 1):
            for _ in range(self.setup_samples // 2 - 1):
                self._setup(m)[1].close()
            classes, suite_engine = self._setup(m)
            if [cls.name for cls in classes] != [cls.name for cls in all_structures()]:
                raise RuntimeError("build_classes no longer matches the catalogue")
            with suite_engine, self.op(tracer, batch, "bench.table1"):
                start = time.perf_counter()
                reports = suite_engine.verify_suite(classes, jobs=self.jobs)
                m.walls.append(time.perf_counter() - start)
            m.op_s.append(m.walls[-1])
            while len(m.setup_s) < batch * self.setup_samples:
                self._setup(m)[1].close()
            for report in reports:
                verdicts = report_verdicts(report)
                m.attempted += len(verdicts)
                m.failures += no_refuted(verdicts)
                proved += report.sequents_proved
                total += report.sequents_total
                missing = report.sequents_total - report.sequents_proved
                if missing:
                    unproved_by_class[report.class_name] = missing
                row = row_elapsed_s.setdefault(report.class_name, [])
                row.append(report.elapsed)
        m.details = {
            "sequents_total": total // batches,
            "sequents_proved": proved // batches,
            "failed_share": (total - proved) / total,
            "unproved_by_class": unproved_by_class,
            # As the engine reports it (prover time of the class's own
            # sequents); a record detail, not a measurement.
            "row_elapsed_s": {
                name: statistics.median(row) for name, row in row_elapsed_s.items()
            },
        }
        return m


# ---------------------------------------------------------------------------
# edit-warm
# ---------------------------------------------------------------------------


def build_store(directory: str, scale: float, corpus_first: int, corpus_count: int):
    """Fill a persistent store with Table 1 and a generated corpus.

    Runs in a forked child process, so the parent's memory peak and
    term pools stay those of the measured engine alone.  Not a spawned
    one: spawning starts multiprocessing's resource tracker, a process
    that outlives the benchmark by a moment.
    """
    with engine(scale, jobs=2, cache_dir=directory) as filler:
        filler.verify_suite(all_structures(), jobs=2)
        filler.verify_suite(generate_corpus(corpus_count, seed=corpus_first), jobs=1)


def edit_class(cls, rng: random.Random, kind: str):
    """One single-method edit of a generated class.

    ``requires``: conjoin a class invariant to a method's precondition --
    every sequent of the method gains an assumption, so several are dirty.
    ``ensures``: conjoin a class invariant to the postcondition -- the new
    conjunct's sequent dedups to the invariant-preservation sequent the
    store already holds, so nothing reaches a prover.
    """
    index = rng.randrange(len(cls.methods))
    method = cls.methods[index]
    invariant = rng.choice(cls.invariants).formula
    contract = method.contract
    if kind == "requires":
        contract = dataclasses.replace(
            contract, requires=And(contract.requires, invariant)
        )
    else:
        contract = dataclasses.replace(
            contract, ensures=And(contract.ensures, invariant)
        )
    methods = list(cls.methods)
    methods[index] = dataclasses.replace(method, contract=contract)
    return dataclasses.replace(cls, methods=tuple(methods)), method.name


class EditWarm(Workload):
    """An engine on a persistent store holding Table 1 and a generated
    corpus: re-verify every stored class (all cache hits), then apply
    seeded single-method edits through ``verify_class_incremental``.
    One operation is one edit."""

    name = "edit-warm"
    # Only the store build runs provers; a small budget keeps it short.
    timeout_scale = 0.1
    counts_children = False
    corpus_count = 24
    rounds = 8
    edit_s = 1.25
    kinds = ("requires", "ensures")

    def prepare(self) -> None:
        self.master = self.workdir / "store-master"
        self.corpus_first = corpus_seed(self.seed)
        child = multiprocessing.get_context("fork").Process(
            target=build_store,
            args=(
                str(self.master),
                self.timeout_scale,
                self.corpus_first,
                self.corpus_count,
            ),
        )
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"store build failed with exit code {child.exitcode}")
        self.corpus = generate_corpus(self.corpus_count, seed=self.corpus_first)
        self.table1 = all_structures()
        self.store_bytes = sum(p.stat().st_size for p in self.master.glob("*.json"))

    def _warm_rerun(self, warm, m: Measurement) -> None:
        start = time.perf_counter()
        reports = [warm.verify_class(cls) for cls in self.table1 + self.corpus]
        m.walls.append(time.perf_counter() - start)
        generated = {cls.name for cls in self.corpus}
        verdicts = [v for report in reports for v in report_verdicts(report)]
        m.attempted += len(verdicts)
        m.failures += [f"warm re-run: {p}" for p in none_dispatched(verdicts)]
        m.failures += no_refuted([v for v in verdicts if v.class_name not in generated])
        m.failures += all_proved([v for v in verdicts if v.class_name in generated])

    def measure(self, tracer) -> Measurement:
        # Set-ups, warm re-runs and edits alternate in rounds, so each
        # metric samples the whole measured window.  Every round starts
        # from a fresh copy of the store and the unedited corpus.
        m = Measurement()
        rng = random.Random(self.seed)
        edits = []
        total = max(self.rounds, self.units(self.edit_s))
        per_round = [
            total // self.rounds + (index < total % self.rounds)
            for index in range(self.rounds)
        ]
        for round_index, round_edits in enumerate(per_round):
            store = self.workdir / f"store-{round_index}"
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self.master, store)
            with self.op(tracer, round_index + 1, "bench.setup"):
                start = time.perf_counter()
                warm = engine(self.timeout_scale, jobs=1, cache_dir=store)
                m.setup_s.append(time.perf_counter() - start)
            current = {cls.name: cls for cls in self.corpus}
            try:
                with self.op(tracer, round_index + 1, "bench.warm_rerun"):
                    self._warm_rerun(warm, m)
                for _ in range(round_edits):
                    kind = self.kinds[len(edits) % len(self.kinds)]
                    name = rng.choice(sorted(current))
                    edited, method = edit_class(current[name], rng, kind)
                    current[name] = edited
                    with self.op(tracer, 100 + len(edits), "bench.edit"):
                        start = time.perf_counter()
                        report, stats = warm.verify_class_incremental(edited)
                        m.op_s.append(time.perf_counter() - start)
                    edits.append((kind, method, edited, report, stats))
            finally:
                warm.close()
        dirty = {kind: [] for kind in self.kinds}
        latency = {kind: [] for kind in self.kinds}
        references = []
        for (kind, method, edited, report, stats), seconds in zip(edits, m.op_s):
            dirty[kind].append(stats.sequents_dirty)
            latency[kind].append(seconds)
            with tracer.suspended() if tracer else contextlib.nullcontext():
                with engine(self.timeout_scale, jobs=1) as cold:
                    reference = report_verdicts(cold.verify_class(edited))
            references += reference
            got = report_verdicts(report)
            problems = same_verdicts(got, reference) + all_proved(got)
            m.attempted += 1
            if problems:
                m.failures.append(f"edit {kind} {edited.name}.{method}: {problems[0]}")
        # The cold references carry their sequents, so the evaluator can
        # check the proved ones independently of every prover.
        failures, evaluated = evaluator_agrees(references)
        m.failures += [f"evaluator: {failure}" for failure in failures]
        m.details = {
            "edits": len(edits),
            "evaluator_checked": evaluated,
            "store_bytes": self.store_bytes,
            "stored_classes": len(self.table1) + len(self.corpus),
            "dirty_per_edit": {
                kind: sum(values) / len(values) if values else 0.0
                for kind, values in dirty.items()
            },
            "edit_p50_s_by_kind": {
                kind: statistics.median(values) if values else 0.0
                for kind, values in latency.items()
            },
        }
        return m


# ---------------------------------------------------------------------------
# serve-http
# ---------------------------------------------------------------------------


class ServeHttp(Workload):
    """``jahob-py serve --http`` as a subprocess on a warm store; two
    closed-loop clients, one keep-alive connection each, send the load
    harness's tenant traffic (``loadgen.OP_MIX`` over
    ``loadgen.DEFAULT_STRUCTURES``, rotated the way its clients rotate
    them): ``POST /v1/verify`` of cached catalogue classes mixed with
    ``GET /v1/metrics`` and ``GET /v1/stats``.  One operation is one
    request; a batch is one round in which each client sends
    ``round_size`` requests.

    A traced run hosts the daemon in this process instead, in both of its
    phases, so the wrappers see admission and request handling and the
    untraced phase is a like-for-like reference for the overhead."""

    name = "serve-http"
    classes = DEFAULT_STRUCTURES
    routes = {
        "verify": ("POST", "/v1/verify"),
        "metrics": ("GET", "/v1/metrics"),
        "stats": ("GET", "/v1/stats"),
    }
    clients = 2
    round_size = 24
    round_s = 1.3
    setup_repeats = 8
    retries = 3
    daemon = None

    def prepare(self) -> None:
        self.store = self.workdir / "store"
        self.secret = b"perfbench-" + str(self.seed).encode()
        self.secret_file = self.workdir / "secret"
        self.secret_file.write_bytes(self.secret)
        with engine(self.timeout_scale, jobs=1, cache_dir=self.store) as baseline:
            self.baseline = {
                name: [
                    v.key
                    for v in report_verdicts(
                        baseline.verify_class(structure_by_name(name))
                    )
                ]
                for name in self.classes
            }

    # -- daemon lifecycle ---------------------------------------------------

    def _spawn(self, in_process: bool):
        """Start a daemon; returns its HTTP ``(host, port)``."""
        if in_process:
            from repro.verifier.daemon import VerifierDaemon

            daemon = VerifierDaemon(
                "127.0.0.1:0",
                jobs=1,
                cache_dir=self.store,
                timeout_scale=self.timeout_scale,
                secret=self.secret,
                http="127.0.0.1:0",
            )
            daemon.bind()
            thread = threading.Thread(target=daemon.serve_forever, daemon=True)
            thread.start()
            self.daemon = ("thread", daemon, thread)
            address = daemon.http_door.address
        else:
            env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.verifier.cli"]
                + ["--timeout-scale", str(self.timeout_scale)]
                + ["--cache-dir", str(self.store)]
                + ["--secret-file", str(self.secret_file)]
                + ["serve", "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=env,
                text=True,
            )
            self.daemon = ("process", process, None)
            address = None
            for line in process.stdout:
                if "serving HTTP on" in line:
                    address = line.rsplit(" ", 1)[1].strip()
                    break
            if address is None:
                raise RuntimeError("daemon exited before serving HTTP")
        host, port = address.rsplit(":", 1)
        return host, int(port)

    def _stop(self) -> None:
        if self.daemon is None:
            return
        kind, daemon, thread = self.daemon
        self.daemon = None
        if kind == "thread":
            daemon.stop()
            thread.join(timeout=10)
            daemon.close()
            return
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=20)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
        daemon.stdout.close()

    def close(self) -> None:
        self._stop()

    # -- requests -------------------------------------------------------------

    def _request(self, connection, method: str, path: str, body: dict | None):
        payload = json.dumps(body).encode() if body is not None else b""
        headers = {
            "X-Jahob-Client": "",
            "X-Jahob-Signature": sign_request(self.secret, "", method, path, payload),
            "Content-Type": "application/json",
        }
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())

    def _ping(self, address, deadline: float = 30.0) -> None:
        end = time.perf_counter() + deadline
        while True:
            connection = http.client.HTTPConnection(*address, timeout=10)
            try:
                status, _ = self._request(connection, "GET", "/v1/ping", None)
                if status == 200:
                    return
            except OSError:
                if time.perf_counter() > end:
                    raise
                time.sleep(0.02)
            finally:
                connection.close()

    def _send(self, address, connection, request):
        """One request with the retry budget: a 429 or a dropped connection
        is retried on a fresh connection.  Returns ``(status, response,
        connection)``; status 0 means the budget ran out without an answer."""
        status, response = 0, {}
        for _attempt in range(self.retries):
            try:
                status, response = self._request(connection, *request)
            except (OSError, http.client.HTTPException, ValueError):
                connection.close()
                connection = http.client.HTTPConnection(*address, timeout=60)
                status = 0
                continue
            if status != 429:
                break
            time.sleep(0.05)
        return status, response, connection

    def _client(self, index, address, barrier, stop, tracer, m, lock):
        # loadgen's rotation: client ``index`` starts ``index`` places in.
        position = index
        connection = http.client.HTTPConnection(*address, timeout=60)
        latencies, failures, sent = [], [], 0
        try:
            while True:
                barrier.wait()
                if stop.is_set():
                    break
                for _ in range(self.round_size):
                    op = OP_MIX[position % len(OP_MIX)]
                    name = self.classes[position % len(self.classes)]
                    sent += 1
                    position += 1
                    body = {"name": name} if op == "verify" else None
                    request = (*self.routes[op], body)
                    with self.op(tracer, 100_000 * (index + 1) + sent, "bench.request"):
                        start = time.perf_counter()
                        status, response, connection = self._send(
                            address, connection, request
                        )
                        latencies.append((op, time.perf_counter() - start))
                    if status != 200 or not response.get("ok", False):
                        failures.append(f"{request[0]} {request[1]}: status {status}")
                    elif op == "verify":
                        got = [v.key for v in payload_verdicts(response["report"])]
                        if got != self.baseline[name]:
                            failures.append(f"verify {name}: verdicts differ")
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            failures.append(f"client {index}: {type(exc).__name__}: {exc}")
            barrier.abort()
        finally:
            connection.close()
            with lock:
                m.op_s += [seconds for _, seconds in latencies]
                for op, seconds in latencies:
                    m.details["req_s_by_op"][op].append(seconds)
                m.failures += failures
                m.attempted += sent

    def _setup(self, m: Measurement, tracer):
        """Start a fresh daemon and wait for its first ping; returns its
        HTTP address."""
        self._stop()
        with self.op(tracer, len(m.setup_s) + 1, "bench.setup"):
            start = time.perf_counter()
            address = self._spawn(self.trace)
            self._ping(address)
            m.setup_s.append(time.perf_counter() - start)
        return address

    def measure(self, tracer) -> Measurement:
        m = Measurement()
        m.details["req_s_by_op"] = {op: [] for op in self.routes}
        # Half the set-ups run before the closed loop and half after it,
        # so their median does not come from one short window.
        for _ in range(self.setup_repeats // 2):
            address = self._setup(m, tracer)
        barrier = threading.Barrier(self.clients + 1, timeout=120)
        stop = threading.Event()
        lock = threading.Lock()
        threads = [
            threading.Thread(
                target=self._client, args=(i, address, barrier, stop, tracer, m, lock)
            )
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(self.units(self.round_s)):
                barrier.wait()  # release one round
                start = time.perf_counter()
                barrier.wait()  # every client finished it
                m.walls.append(time.perf_counter() - start)
        except threading.BrokenBarrierError:
            m.failures.append("a client aborted the closed loop")
        finally:
            stop.set()
            with contextlib.suppress(threading.BrokenBarrierError):
                barrier.wait()
            for thread in threads:
                thread.join()
            self._stop()
        while len(m.setup_s) < self.setup_repeats:
            self._setup(m, tracer)
        self._stop()
        elapsed = sum(m.walls) or 1.0
        by_op = m.details.pop("req_s_by_op")
        m.details = {
            "requests": len(m.op_s),
            "rounds": len(m.walls),
            "req_per_s": len(m.op_s) / elapsed,
            "req_p50_ms_by_op": {
                op: 1000.0 * statistics.median(values)
                for op, values in by_op.items()
                if values
            },
            "daemon": "in-process" if self.trace else "subprocess",
        }
        return m


WORKLOADS = {cls.name: cls for cls in (Table1Cold, EditWarm, ServeHttp)}
