"""Tests for the sequent-level proof cache and its dispatcher integration."""

from __future__ import annotations

import re

from repro.logic import builder as b
from repro.logic.sorts import BOOL, INT, OBJ, Sort
from repro.logic.terms import App, BoolLit, Const, IntLit, Var
from repro.provers.cache import (
    CachedVerdict,
    ProofCache,
    task_fingerprint,
    term_fingerprint,
)
from repro.provers.dispatch import (
    PortfolioEntry,
    ProverPortfolio,
    default_portfolio,
)
from repro.provers.interface import Prover
from repro.provers.result import Budget, Outcome, ProofTask, ProverResult
from repro.suite import all_structures
from repro.verifier.engine import VerificationEngine


def _lt(left: str, right: str):
    return b.Lt(b.IntVar(left), b.IntVar(right))


class TestFingerprints:
    def test_alpha_invariance(self):
        one = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("n")))
        two = b.ForAll([b.IntVar("j")], b.Lt(b.IntVar("j"), b.IntVar("n")))
        assert term_fingerprint(one) == term_fingerprint(two)

    def test_free_variables_distinguish(self):
        one = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("n")))
        other = b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("m")))
        assert term_fingerprint(one) != term_fingerprint(other)

    def test_shadowing_respected(self):
        inner_shadow = b.ForAll(
            [b.IntVar("i")],
            b.Or(
                b.Lt(b.IntVar("i"), b.Int(0)),
                b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.Int(1))),
            ),
        )
        inner_fresh = b.ForAll(
            [b.IntVar("i")],
            b.Or(
                b.Lt(b.IntVar("i"), b.Int(0)),
                b.ForAll([b.IntVar("k")], b.Lt(b.IntVar("k"), b.Int(1))),
            ),
        )
        assert term_fingerprint(inner_shadow) == term_fingerprint(inner_fresh)

    def test_distinct_binder_references_distinguished(self):
        # Regression: with absolute de Bruijn levels plus the closed-subterm
        # env reset, `ALL a. ALL b. Q(b)` and `ALL a. ALL b. Q(a)` collided
        # (the reset renumbered the inner binder from level 0, aliasing the
        # outer binder).  Relative indices keep them apart.
        from repro.logic.sorts import BOOL, OBJ
        from repro.logic.terms import App, Binder, Var

        def nested(body_var: str):
            return Binder(
                "forall",
                (("a", OBJ),),
                Binder(
                    "forall",
                    (("b", OBJ),),
                    App("Q", (Var(body_var, OBJ),), BOOL),
                ),
            )

        assert term_fingerprint(nested("b")) != term_fingerprint(nested("a"))
        renamed = Binder(
            "forall",
            (("x", OBJ),),
            Binder("forall", (("y", OBJ),), App("Q", (Var("x", OBJ),), BOOL)),
        )
        assert term_fingerprint(nested("a")) == term_fingerprint(renamed)

    def test_fingerprints_are_fixed_size_hex_digests(self):
        terms = (b.Int(3), _lt("x", "y"), b.ForAll([b.IntVar("i")], _lt("i", "n")))
        for term in terms:
            assert re.fullmatch("[0-9a-f]{64}", term_fingerprint(term))
        task = ProofTask((("h", _lt("x", "y")),), _lt("y", "z"))
        assert re.fullmatch("[0-9a-f]{64}", task_fingerprint(task))

    def test_task_key_ignores_assumption_names_and_order(self):
        goal = _lt("x", "z")
        one = ProofTask((("h1", _lt("x", "y")), ("h2", _lt("y", "z"))), goal)
        two = ProofTask((("b", _lt("y", "z")), ("a", _lt("x", "y"))), goal)
        assert task_fingerprint(one) == task_fingerprint(two)

    def test_task_key_distinguishes_goals(self):
        assumptions = (("h", _lt("x", "y")),)
        assert task_fingerprint(
            ProofTask(assumptions, _lt("x", "y"))
        ) != task_fingerprint(ProofTask(assumptions, _lt("y", "x")))


class TestDigestEncoding:
    """Adversarial pairs: terms whose naive concatenated images would
    coincide must still get different digests."""

    def test_argument_boundaries(self):
        def pair(left: str, right: str):
            return App("f", (Const(left, OBJ), Const(right, OBJ)), BOOL)

        assert term_fingerprint(pair("ab", "c")) != term_fingerprint(pair("a", "bc"))
        # The same split between two fields of one node: name and sort.
        assert term_fingerprint(Const("ab", Sort("c"))) != term_fingerprint(
            Const("a", Sort("bc"))
        )

    def test_names_containing_separators(self):
        # Length prefixes are 4 big-endian bytes, so names that embed such
        # bytes, an empty name, or punctuation must not shift a boundary.
        names = [
            "",
            "a",
            "ab",
            ",",
            "(",
            ")",
            '"',
            "\x00",
            "\x00\x00\x00\x01a",
            "a\x00\x00\x00\x03obj",
            "obj",
            "\x00\x00\x00\x03obj",
        ]
        singles = {
            term_fingerprint(Const(name, Sort(sort)))
            for name in names
            for sort in names
        }
        assert len(singles) == len(names) ** 2
        pairs = {
            term_fingerprint(App("f", (Const(x, OBJ), Const(y, OBJ)), BOOL))
            for x in names
            for y in names
        }
        assert len(pairs) == len(names) ** 2

    def test_literal_is_not_a_constant_named_like_it(self):
        assert term_fingerprint(IntLit(1)) != term_fingerprint(Const("1", INT))
        assert term_fingerprint(BoolLit(True)) != term_fingerprint(Const("true", BOOL))
        assert term_fingerprint(IntLit(1)) != term_fingerprint(IntLit(-1))

    def test_same_name_under_different_sorts(self):
        assert term_fingerprint(Var("x", INT)) != term_fingerprint(Var("x", OBJ))
        assert term_fingerprint(Const("c", INT)) != term_fingerprint(Const("c", OBJ))
        assert term_fingerprint(Var("x", OBJ)) != term_fingerprint(Const("x", OBJ))

    def test_binder_arities(self):
        x, y = b.IntVar("x"), b.IntVar("y")
        body = b.Lt(x, y)
        one = b.ForAll([x, y], body)
        nested = b.ForAll([x], b.ForAll([y], body))
        assert term_fingerprint(one) != term_fingerprint(nested)
        unused = b.ForAll([x, y], b.Lt(x, b.Int(0)))
        single = b.ForAll([x], b.Lt(x, b.Int(0)))
        assert term_fingerprint(unused) != term_fingerprint(single)
        assert term_fingerprint(b.ForAll([x], b.Lt(x, b.Int(0)))) != term_fingerprint(
            b.Exists([x], b.Lt(x, b.Int(0)))
        )

    def test_task_structure(self):
        p, q = _lt("x", "y"), _lt("y", "z")
        swapped = {
            task_fingerprint(ProofTask((("h", p),), q)),
            task_fingerprint(ProofTask((("h", q),), p)),
            task_fingerprint(ProofTask((("h", p), ("g", q)), q)),
            task_fingerprint(ProofTask((), q)),
        }
        assert len(swapped) == 4
        # A task never shares a key with a bare term.
        assert task_fingerprint(ProofTask((), q)) != term_fingerprint(q)


class TestEviction:
    def test_overflow_keeps_the_newest_entries(self):
        cache = ProofCache(max_entries=8)
        keys = [term_fingerprint(b.Int(n)) for n in range(9)]
        for key in keys[:8]:
            cache.store(key, CachedVerdict(True, False, "smt"))
        cache.store(keys[8], CachedVerdict(False, False, "fol"))
        assert 0 < len(cache) <= 8
        assert cache.lookup(keys[8]).winning_prover == "fol"
        assert all(cache.lookup(key) is not None for key in keys[4:])
        assert cache.lookup(keys[0]) is None

    def test_restoring_a_present_key_never_evicts(self):
        cache = ProofCache(max_entries=4)
        keys = [term_fingerprint(b.Int(n)) for n in range(4)]
        for key in keys:
            cache.store(key, CachedVerdict(True, False, "smt"))
        cache.store(keys[0], CachedVerdict(True, False, "sets"))
        assert len(cache) == 4
        assert cache.lookup(keys[0]).winning_prover == "sets"


class _CountingProver(Prover):
    """Proves everything, counting invocations."""

    name = "counting"

    def __init__(self) -> None:
        self.calls = 0

    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        self.calls += 1
        return ProverResult(Outcome.PROVED, reason="stub")


class TestDispatchCaching:
    def test_second_dispatch_is_cached(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio(
            [PortfolioEntry(prover, 1.0)], proof_cache=ProofCache()
        )
        task = ProofTask((("h", _lt("x", "y")),), _lt("x", "y"))
        first = portfolio.dispatch(task)
        second = portfolio.dispatch(task)
        assert first.proved and second.proved
        assert not first.cached and second.cached
        assert second.winning_prover == "counting"
        assert prover.calls == 1
        assert first.cache_origin == "" and second.cache_origin == "memory"

    def test_alpha_variant_sequent_hits_cache(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio(
            [PortfolioEntry(prover, 1.0)], proof_cache=ProofCache()
        )
        i, j, n = b.IntVar("i"), b.IntVar("j"), b.IntVar("n")
        portfolio.dispatch(
            ProofTask((("inv", b.ForAll([i], b.Lt(i, n))),), b.Lt(b.Int(0), n))
        )
        result = portfolio.dispatch(
            ProofTask((("other", b.ForAll([j], b.Lt(j, n))),), b.Lt(b.Int(0), n))
        )
        assert result.cached
        assert prover.calls == 1

    def test_no_cache_means_every_dispatch_runs_the_provers(self):
        prover = _CountingProver()
        portfolio = ProverPortfolio([PortfolioEntry(prover, 1.0)])
        task = ProofTask((), _lt("x", "y"))
        first = portfolio.dispatch(task)
        second = portfolio.dispatch(task)
        assert prover.calls == 2
        assert not first.cached and not second.cached
        assert portfolio.consult_cache(task) == (None, None)

    def test_restricted_copies_get_fresh_caches(self):
        portfolio = default_portfolio()
        assert portfolio.proof_cache is not None
        scaled = portfolio.scaled(0.5)
        assert scaled.proof_cache is not None
        assert scaled.proof_cache is not portfolio.proof_cache
        only = portfolio.only("smt")
        assert only.proof_cache is not None
        assert only.proof_cache is not portfolio.proof_cache
        uncached = default_portfolio(with_cache=False)
        assert uncached.proof_cache is None
        assert uncached.scaled(0.5).proof_cache is None


class TestEngineIntegration:
    def test_engine_attaches_cache_by_default(self):
        engine = VerificationEngine()
        assert engine.portfolio.proof_cache is not None

    def test_engine_can_disable_cache(self):
        engine = VerificationEngine(use_proof_cache=False)
        assert engine.portfolio.proof_cache is None

    def test_cache_never_changes_verdicts(self):
        """Same per-sequent proved/refuted verdicts with cache on and off."""
        structures = {
            cls.name: cls
            for cls in all_structures()
            if cls.name in ("Array List", "Linked List")
        }
        assert len(structures) == 2
        for cls in structures.values():
            verdicts = {}
            for use_cache in (True, False):
                engine = VerificationEngine(
                    default_portfolio(with_cache=use_cache).scaled(0.25),
                    use_proof_cache=use_cache,
                )
                report = engine.verify_class(cls)
                verdicts[use_cache] = [
                    (
                        method.method_name,
                        outcome.sequent.label,
                        outcome.dispatch.proved,
                        outcome.dispatch.refuted,
                    )
                    for method in report.methods
                    for outcome in method.outcomes
                ]
            assert verdicts[True] == verdicts[False]
