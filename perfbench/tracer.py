"""Span tracing for the per-layer run, installed from outside the program.

The verifier has no tracing of its own, so this module wraps the layer
boundaries of ``repro`` in place: each entry of :data:`LAYERS` names a
function or method, and :meth:`Tracer.install` replaces it with a wrapper
that records a span (name, start, end, parent span, workload operation id)
plus whatever counts the entry's hook reads off the call's result.  A
module-level function is patched under every name a ``repro`` module binds
it to, because callers such as ``engine.py`` import functions by name.

Spans stay in memory.  Worker processes forked by the prover pool inherit
the wrappers; each one writes its spans to a file when it exits, and
:meth:`Tracer.collect_workers` merges them.  :func:`chrome_trace` renders
the spans as Chrome Trace Event JSON and :func:`layer_metrics` derives the
per-layer table from the same spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path


def _sequent_count(args, result):
    return {"sequents": len(result)}


def _lookup_hit(args, result):
    return {"hit": int(result is not None)}


def _store_bytes(args, result):
    store = args[0]
    return {"bytes": store.path.stat().st_size if store.path.exists() else 0}


def _prover_outcome(args, result):
    return {"outcome": result.outcome.value}


def _folded(args, result):
    slots = args[1]
    return {"folded": sum(1 for slot in slots if slot.duplicate_of is not None)}


def _shard_busy(args, result):
    return {
        "jobs": max(1, int(args[2])),
        "busy": sum(r.wall for r in result if r is not None),
    }


def _incremental(args, result):
    stats = result[1]
    return {"dirty": stats.sequents_dirty, "dispatched": stats.dispatched}


def _admission(args, result):
    return {"admitted": int(bool(result.admitted))}


def _prover_name(args):
    return f"prover.{args[0].name}"


#: Layer boundaries: (module, attribute path, span name, result hook).  A
#: span name may be a callable of the call's arguments.  Hooks return the
#: counts recorded in the span's ``args``.
LAYERS = (
    ("repro.frontend.lower", "lower_method", "frontend.lower", None),
    ("repro.gcl.desugar", "Desugarer.desugar", "gcl.desugar", None),
    ("repro.vcgen.vcgen", "VcGenerator.generate", "vcgen.generate", _sequent_count),
    ("repro.verifier.engine", "VerificationEngine.task_for", "engine.task_for", None),
    (
        "repro.verifier.engine",
        "VerificationEngine.verify_class",
        "engine.verify_class",
        None,
    ),
    (
        "repro.verifier.engine",
        "VerificationEngine.verify_suite",
        "engine.verify_suite",
        None,
    ),
    ("repro.provers.cache", "task_fingerprint", "cache.fingerprint", None),
    ("repro.provers.cache", "ProofCache.lookup", "cache.lookup", _lookup_hit),
    ("repro.provers.cache", "PersistentCacheStore.load", "cache.store_load", None),
    (
        "repro.provers.cache",
        "PersistentCacheStore.save",
        "cache.store_save",
        _store_bytes,
    ),
    (
        "repro.provers.dispatch",
        "ProverPortfolio.run_provers",
        "dispatch.run_provers",
        None,
    ),
    ("repro.provers.interface", "Prover.prove", _prover_name, _prover_outcome),
    ("repro.provers.theory", "TheoryChecker.check", "theory.check", None),
    ("repro.provers.sat", "SatSolver.solve", "sat.solve", None),
    ("repro.provers.euf", "CongruenceClosure.check", "euf.check", None),
    ("repro.provers.lia", "LinearSolver.is_infeasible", "lia.is_infeasible", None),
    ("repro.provers.quant", "InstantiationEngine.saturate", "quant.saturate", None),
    ("repro.verifier.scheduler", "plan_suite", "scheduler.plan", None),
    ("repro.verifier.scheduler", "execute_suite", "scheduler.execute", None),
    ("repro.verifier.parallel", "run_shard", "parallel.run_shard", _shard_busy),
    (
        "repro.verifier.parallel",
        "resolve_duplicates",
        "parallel.resolve_duplicates",
        _folded,
    ),
    ("repro.verifier.incremental", "record_from_slots", "incremental.record", None),
    ("repro.verifier.incremental", "record_from_report", "incremental.record", None),
    (
        "repro.verifier.incremental",
        "verify_class_incremental",
        "incremental.verify",
        _incremental,
    ),
    ("repro.verifier.costmodel", "CostModel.reprofile", "costmodel.reprofile", None),
    (
        "repro.verifier.admission",
        "AdmissionController.admit",
        "admission.admit",
        _admission,
    ),
    ("repro.verifier.daemon", "VerifierDaemon.handle", "daemon.handle", None),
)


class Tracer:
    """In-memory span recorder whose wrappers patch ``repro`` in place.

    A span is the tuple ``(id, parent, name, start_ns, end_ns, pid, tid,
    op, args)``.  The parent is the innermost open span of the same
    thread, so self time is exact per thread.  ``op`` is the workload
    operation id set with :meth:`operation`; pool workers inherit the id
    of the operation that forked them, and daemon handler threads, which
    no operation runs on, record 0.
    """

    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        self.spans: list[tuple] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset_process()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset_process(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    @staticmethod
    def _after_fork(tracer: "Tracer") -> None:
        # Runs in each forked pool worker: start an empty span list under
        # the forking thread's operation id, and dump it when the worker
        # exits normally.
        op = getattr(tracer._local, "op", 0)
        tracer.spans = []
        tracer._reset_process()
        tracer._local.op = op
        multiprocessing.util.Finalize(tracer, tracer._dump_worker, exitpriority=10)

    def _dump_worker(self) -> None:
        if self._patches and self.spans:
            path = self.worker_dir / f"spans-{self.pid}.json"
            path.write_text(json.dumps(self.spans), encoding="utf-8")

    def collect_workers(self) -> int:
        """Merge the span files of exited pool workers; returns the count."""
        merged = 0
        for path in sorted(self.worker_dir.glob("spans-*.json")):
            self.spans.extend(tuple(span) for span in json.loads(path.read_text()))
            path.unlink()
            merged += 1
        return merged

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; the yielded dict becomes the
        span's ``args``."""
        stack = self._stack()
        span_id = self.pid * 10_000_000 + next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        args: dict = {}
        try:
            yield args
        except BaseException as exc:
            args["error"] = type(exc).__name__
            raise
        finally:
            stack.pop()
            self.spans.append(
                (
                    span_id,
                    parent,
                    name,
                    start,
                    time.perf_counter_ns(),
                    self.pid,
                    threading.get_ident(),
                    getattr(self._local, "op", 0),
                    args or None,
                )
            )

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Tag every span of this thread with ``op_id`` inside the block."""
        previous = getattr(self._local, "op", 0)
        self._local.op = op_id
        try:
            with self.span(name):
                yield
        finally:
            self._local.op = previous

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(args) if callable(name) else name) as span_args:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span_args.update(hook(args, result))
                return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        for module_name, path, name, hook in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(original, name, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    loaded.__dict__.get(attr) is original
                ):
                    self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own checks without recording their spans."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()


# ---------------------------------------------------------------------------
# Derived outputs
# ---------------------------------------------------------------------------


def chrome_trace(spans, metadata: dict) -> dict:
    """The spans as Chrome Trace Event JSON (complete ``X`` events)."""
    events = []
    for span_id, parent, name, start, end, pid, tid, op, args in spans:
        event_args = {"id": span_id, "parent": parent, "op": op}
        if args:
            event_args.update(args)
        events.append(
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": start / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": event_args,
            }
        )
    events.sort(key=lambda event: (event["pid"], event["ts"]))
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def spans_from_chrome(trace: dict) -> list[tuple]:
    """Inverse of :func:`chrome_trace` (the table is derived from the file)."""
    spans = []
    for event in trace["traceEvents"]:
        args = dict(event["args"])
        span_id, parent, op = args.pop("id"), args.pop("parent"), args.pop("op")
        start = round(event["ts"] * 1000)
        spans.append(
            (
                span_id,
                parent,
                event["name"],
                start,
                start + round(event["dur"] * 1000),
                event["pid"],
                event["tid"],
                op,
                args or None,
            )
        )
    return spans


def layer_table(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, summed args.

    Self time is a span's duration minus the durations of its direct
    children (children always run on the parent's thread).
    """
    child_ns: dict[int, int] = {}
    for _, parent, _, start, end, *_ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table: dict[str, dict] = {}
    for span_id, _, name, start, end, _, _, _, args in spans:
        row = table.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "args": {}}
        )
        duration = end - start
        row["calls"] += 1
        row["total_s"] += duration / 1e9
        row["self_s"] += (duration - child_ns.get(span_id, 0)) / 1e9
        for key, value in (args or {}).items():
            if isinstance(value, (int, float)):
                row["args"][key] = row["args"].get(key, 0) + value
        if args and "outcome" in args:
            outcome = row.setdefault("outcomes", {})
            slot = outcome.setdefault(args["outcome"], {"calls": 0, "s": 0.0})
            slot["calls"] += 1
            slot["s"] += duration / 1e9
    return table


PROVERS = ("smt", "sets", "fol")


def layer_metrics(spans) -> dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` (0 where a layer
    did not run)."""
    table = layer_table(spans)

    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "args": {}})

    lookups = row("cache.lookup")
    saves = row("cache.store_save")
    metrics = {
        "frontend.lower_s": row("frontend.lower")["self_s"],
        "gcl.desugar_s": row("gcl.desugar")["self_s"],
        "vcgen.generate_s": row("vcgen.generate")["self_s"],
        "vcgen.sequents": row("vcgen.generate")["args"].get("sequents", 0),
        "engine.task_for_s": row("engine.task_for")["self_s"],
        "cache.fingerprint_s": row("cache.fingerprint")["self_s"],
        "cache.lookups": lookups["calls"],
        "cache.hits": lookups["args"].get("hit", 0),
        "cache.hit_ratio": (
            lookups["args"].get("hit", 0) / lookups["calls"]
            if lookups["calls"]
            else 0.0
        ),
        "cache.store_load_s": row("cache.store_load")["self_s"],
        "cache.store_save_s": saves["self_s"],
        "cache.store_saves": saves["calls"],
        "cache.store_bytes": (
            saves["args"].get("bytes", 0) / saves["calls"] if saves["calls"] else 0
        ),
        "dispatch.dispatched": row("dispatch.run_provers")["calls"],
        "dispatch.folded": row("parallel.resolve_duplicates")["args"].get("folded", 0),
    }
    for prover in PROVERS:
        prover_row = row(f"prover.{prover}")
        outcomes = prover_row.get("outcomes", {})
        proved = outcomes.get("proved", {"calls": 0, "s": 0.0})
        attempts = prover_row["calls"]
        prefix = f"prover.{prover}."
        metrics[prefix + "attempts"] = attempts
        metrics[prefix + "proved"] = proved["calls"]
        metrics[prefix + "timeout"] = outcomes.get("timeout", {"calls": 0})["calls"]
        metrics[prefix + "unknown"] = outcomes.get("unknown", {"calls": 0})["calls"]
        metrics[prefix + "busy_s"] = prover_row["total_s"]
        metrics[prefix + "failed_s"] = prover_row["total_s"] - proved["s"]
        metrics[prefix + "win_ratio"] = proved["calls"] / attempts if attempts else 0.0
    shard = row("parallel.run_shard")
    busy = shard["args"].get("busy", 0.0)
    capacity = sum(
        (end - start) / 1e9 * (args or {}).get("jobs", 1)
        for _, _, name, start, end, _, _, _, args in spans
        if name == "parallel.run_shard"
    )
    admissions = row("admission.admit")
    incremental = row("incremental.verify")["args"]
    metrics.update(
        {
            "theory.check_calls": row("theory.check")["calls"],
            "theory.check_s": row("theory.check")["self_s"],
            "sat.solve_calls": row("sat.solve")["calls"],
            "sat.solve_s": row("sat.solve")["self_s"],
            "euf.check_s": row("euf.check")["self_s"],
            "lia.is_infeasible_s": row("lia.is_infeasible")["self_s"],
            "quant.saturate_s": row("quant.saturate")["self_s"],
            "scheduler.plan_s": row("scheduler.plan")["self_s"],
            "scheduler.execute_s": row("scheduler.execute")["self_s"],
            "parallel.worker_busy_s": busy,
            "parallel.worker_idle_s": max(0.0, capacity - busy),
            "incremental.record_s": row("incremental.record")["self_s"],
            "incremental.sequents_dirty": incremental.get("dirty", 0),
            "incremental.dispatched": incremental.get("dispatched", 0),
            "costmodel.reprofile_s": row("costmodel.reprofile")["self_s"],
            "admission.wait_s": admissions["total_s"],
            "admission.rejections": admissions["calls"]
            - admissions["args"].get("admitted", 0),
            "daemon.handle_s": row("daemon.handle")["total_s"],
            "http.overhead_s": max(
                0.0, row("bench.request")["total_s"] - row("daemon.handle")["total_s"]
            )
            if row("daemon.handle")["calls"]
            else 0.0,
        }
    )
    return metrics
