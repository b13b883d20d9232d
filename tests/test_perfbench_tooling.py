"""The repository benchmark's contract with the program.

``perfbench/tracer.py`` wraps the functions and methods named in its
``LAYERS`` table, and ``perfbench/selftest.py`` checks the benchmark's
verdict checks.  A refactor that renames or moves a wrapped function must
fail here, in the tier-1 suite, instead of quietly breaking the
benchmark's traced run.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from repro.logic import builder as b
from repro.provers.cache import CachedVerdict, PersistentCacheStore, ProofCache
from repro.provers.dispatch import default_portfolio
from repro.provers.result import ProofTask
from repro.suite.generate import generate_class
from repro.verifier.engine import VerificationEngine

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    """``{(module, path): (owner, attribute, current value)}`` per layer."""
    bindings = {}
    for module_name, path, _, _ in layers:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        bindings[(module_name, path)] = (owner, attr, owner.__dict__[attr])
    return bindings


def test_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracer_wraps_and_restores_every_layer(tmp_path):
    tracer_module = _load_tracer()
    before = _bindings(tracer_module.LAYERS)
    tracer = tracer_module.Tracer(tmp_path)
    tracer.install()
    try:
        for key, (owner, attr, original) in before.items():
            assert owner.__dict__[attr] is not original, f"{key} was not wrapped"
        # The cache boundaries' hooks read their arguments and results.
        cache = ProofCache()
        task = ProofTask((), b.Lt(b.IntVar("x"), b.IntVar("y")))
        key = cache.key(task)
        cache.store(key, CachedVerdict(True, False, "smt"))
        assert cache.lookup(key) is not None
        store = PersistentCacheStore(tmp_path / "store", "k")
        store.save(cache.snapshot())
        assert set(store.load()) == {key}
    finally:
        tracer.uninstall()
    after = _bindings(tracer_module.LAYERS)
    for key, (owner, attr, original) in before.items():
        assert after[key][2] is original, f"{key} was not restored"

    spans = {span[2]: span for span in tracer.spans}
    assert {"cache.fingerprint", "cache.lookup", "cache.store_load"} <= set(spans)
    assert spans["cache.lookup"][8] == {"hit": 1}
    assert spans["cache.store_save"][8] == {"bytes": store.path.stat().st_size}


def _edit(cls, kind: str):
    """Conjoin the first invariant to the first method's ``kind`` clause
    (the benchmark's edit-warm edits)."""
    method = cls.methods[0]
    contract = method.contract
    clause = b.And(getattr(contract, kind), cls.invariants[0].formula)
    method = dataclasses.replace(
        method, contract=dataclasses.replace(contract, **{kind: clause})
    )
    return dataclasses.replace(cls, methods=(method, *cls.methods[1:]))


def test_pipeline_hooks_record_their_spans(tmp_path):
    """Every pipeline boundary the tracer wraps is live on the path it
    wraps, and its hook can read the call's arguments and result."""
    tracer = _load_tracer().Tracer(tmp_path)
    cls = generate_class("arith", 7)
    engine = VerificationEngine(default_portfolio().scaled(0.4))
    tracer.install()
    try:
        engine.verify_class(cls)
        for kind in ("ensures", "requires"):
            _, delta = engine.verify_class_incremental(_edit(cls, kind))
    finally:
        tracer.uninstall()
    spans: dict[str, list[dict]] = {}
    for span in tracer.spans:
        spans.setdefault(span[2], []).append(span[8] or {})
    assert {
        "engine.verify_class",
        "scheduler.plan",
        "scheduler.execute",
        "parallel.run_shard",
        "parallel.resolve_duplicates",
        "incremental.record",
        "incremental.verify",
        "costmodel.reprofile",
    } <= set(spans)
    assert len(spans["scheduler.plan"]) == len(spans["scheduler.execute"]) == 3
    for args in spans["parallel.run_shard"]:
        assert args["jobs"] == 1 and args["busy"] >= 0.0
    assert all("folded" in args for args in spans["parallel.resolve_duplicates"])
    ensures, requires = spans["incremental.verify"]
    assert set(ensures) == set(requires) == {"dirty", "dispatched"}
    assert requires == {"dirty": delta.sequents_dirty, "dispatched": delta.dispatched}
    assert requires["dirty"] > 0
