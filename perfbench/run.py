"""The repository benchmark: one workload per invocation, run from the
root of a checkout.

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 20 --trace 0

``--seconds`` sizes the workload's fixed amount of work (see
``Workload.units``).  ``--trace 0`` measures the workload untraced and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
measures it twice in one process, first untraced and then with the span
wrappers of ``tracer.py`` installed, writes the spans as Chrome Trace
Event JSON and reports the per-layer metrics derived from that file,
together with both wall times (the tracing overhead).

The last line of standard output is the JSON result object (``correct``,
``attempted``, ``failed``, ``metrics``).  The full record (run context,
per-workload metrics under their workload names, check results) is
written to ``.perfbench/<workload>-seed<N>-trace<T>.json``.  The exit code is 0
when every verdict check passed, 1 when one failed, and 2 when the
checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer, chrome_trace, layer_metrics, spans_from_chrome

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"


def percentile(values: list[float], pct: int) -> float:
    """Linearly interpolated percentile; ``percentile(v, 50)`` is the median."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it,
    never below the median."""
    return min(99, max(50, math.floor(100.0 * (1.0 - 10.0 / count))))


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process plus, when the workload's measured phase
    runs child processes, the largest child (pool worker or daemon)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in (ROOT / "src").rglob("*.py")
    )


def end_to_end(workload, m) -> tuple[dict, dict]:
    """The ``end_to_end`` metrics, and the same numbers under the names
    the workload's own record uses."""
    tail = tail_percentile(len(m.op_s))
    metrics = {
        "setup_s": statistics.median(m.setup_s),
        # The mean, not the median: a run holds only a few batches, and the
        # mean covers the whole measured window.
        "wall_s": statistics.fmean(m.walls),
        "op_p50_ms": 1000.0 * percentile(m.op_s, 50),
        "op_tail_ms": 1000.0 * percentile(m.op_s, tail),
        "peak_rss_mb": peak_rss_mb(workload.counts_children),
    }
    named = {
        "setup_s": metrics["setup_s"],
        "setup_samples": len(m.setup_s),
        "batches": len(m.walls),
        "op_samples": len(m.op_s),
        "tail_percentile": tail,
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    if workload.name == "edit-warm":
        named.update(
            warm_rerun_s=metrics["wall_s"],
            edit_p50_s=metrics["op_p50_ms"] / 1000.0,
            edit_tail_s=metrics["op_tail_ms"] / 1000.0,
        )
    elif workload.name == "serve-http":
        named.update(
            round_wall_s=metrics["wall_s"],
            req_p50_ms=metrics["op_p50_ms"],
            req_tail_ms=metrics["op_tail_ms"],
        )
    else:
        named.update(
            wall_s=metrics["wall_s"],
            op_p50_ms=metrics["op_p50_ms"],
            op_tail_ms=metrics["op_tail_ms"],
        )
    named.update(m.details)
    return metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            "perfbench: run from the root of a checkout with src/repro",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        record, result = run(args, WORKLOADS[args.workload], workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, value in sorted(record["metrics"].items()):
        if isinstance(value, float):
            print(f"{args.workload} {name} = {value:.6g}")
    for failure in record["checks"]["failures"][:10]:
        print(f"CHECK FAILED: {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args, workload_class, workdir: Path, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; returns the full record and the result object."""
    workload = workload_class(args.seed, args.seconds, workdir, bool(args.trace))
    context = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "timeout_scale": workload.timeout_scale,
        "src_lines": src_lines(),
    }
    started = time.perf_counter()
    try:
        workload.prepare()
        context["prepare_s"] = time.perf_counter() - started
        untraced = workload.measure(None)
        # Read the memory peak before a traced phase can raise it.
        metrics, named = end_to_end(workload, untraced)
        phases = [untraced]
        if args.trace:
            tracer = Tracer(workdir)
            tracer.install()
            try:
                traced = workload.measure(tracer)
            finally:
                tracer.uninstall()
            tracer.collect_workers()
            phases.append(traced)
    finally:
        workload.close()
    record = {"context": context, "metrics": named}
    if args.trace:
        trace_path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        trace_path.write_text(json.dumps(chrome_trace(tracer.spans, context)))
        spans = spans_from_chrome(json.loads(trace_path.read_text()))
        metrics = layer_metrics(spans)
        metrics["trace.wall_s"] = statistics.fmean(traced.walls)
        metrics["trace.untraced_wall_s"] = statistics.fmean(untraced.walls)
        metrics["trace.overhead_ratio"] = (
            metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0
        )
        record["per_layer"] = dict(metrics, spans=len(spans))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["traced_metrics"] = end_to_end(workload, traced)[1]
    failures = [failure for phase in phases for failure in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    record["checks"] = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
    }
    record["run_s"] = time.perf_counter() - started
    # BENCHMARK.json is the list of reported metrics and their units.
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in listed
        },
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
