"""The repository benchmark's contract with the program.

``perfbench/tracer.py`` wraps the functions and methods named in its
``LAYERS`` table, and ``perfbench/selftest.py`` checks the benchmark's
verdict checks.  A refactor that renames or moves a wrapped function must
fail here, in the tier-1 suite, instead of quietly breaking the
benchmark's traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from repro.logic import builder as b
from repro.provers.cache import CachedVerdict, PersistentCacheStore, ProofCache
from repro.provers.result import ProofTask

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
