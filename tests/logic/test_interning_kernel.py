"""Property tests for the hash-consed term kernel and the memoized passes.

The kernel's contract:

* structurally equal terms are the *same object* (interning),
* every node carries its structural hash and free-variable names,
* the rewriting passes (`substitute`, `simplify`, `to_nnf`) are
  share-preserving: a fixpoint input comes back as the identical object.
"""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from repro.logic import builder as b
from repro.logic.nnf import to_nnf
from repro.logic.simplify import simplify
from repro.logic.sorts import BOOL, INT, OBJ, set_of
from repro.logic.subst import FreshNameGenerator, alpha_equal, substitute
from repro.logic.terms import (
    FALSE,
    TRUE,
    App,
    Binder,
    BoolLit,
    Const,
    IntLit,
    Term,
    Var,
    dag_size,
    free_var_names,
    mk_app,
    mk_binder,
    mk_bool,
    mk_const,
    mk_int,
    mk_var,
    pool_sizes,
    term_size,
    term_stats,
    transient_terms,
)


def random_formula(rng: random.Random, depth: int) -> Term:
    """A random well-sorted formula over a small vocabulary."""
    ints = [b.IntVar(n) for n in ("x", "y", "z")]
    objs = [b.ObjVar(n) for n in ("a", "bb")]
    nodes = Var("nodes", set_of(OBJ))

    def int_term(d: int) -> Term:
        if d <= 0 or rng.random() < 0.3:
            return rng.choice(ints + [b.Int(rng.randint(-3, 3))])
        op = rng.choice(["add", "sub", "mul_const"])
        if op == "add":
            return b.Plus(int_term(d - 1), int_term(d - 1))
        if op == "sub":
            return b.Minus(int_term(d - 1), int_term(d - 1))
        return b.Times(b.Int(rng.randint(1, 3)), int_term(d - 1))

    def formula(d: int) -> Term:
        if d <= 0 or rng.random() < 0.25:
            choice = rng.random()
            if choice < 0.4:
                return b.Lt(int_term(0), int_term(0))
            if choice < 0.7:
                return b.Member(rng.choice(objs), nodes)
            return b.Bool(rng.random() < 0.5)
        op = rng.randrange(6)
        if op == 0:
            return b.And(formula(d - 1), formula(d - 1))
        if op == 1:
            return b.Or(formula(d - 1), formula(d - 1))
        if op == 2:
            return b.Not(formula(d - 1))
        if op == 3:
            return b.Implies(formula(d - 1), formula(d - 1))
        if op == 4:
            var = b.IntVar(f"q{rng.randrange(3)}")
            return b.ForAll([var], b.Or(b.Lt(var, int_term(0)), formula(d - 1)))
        return b.Eq(int_term(d - 1), int_term(d - 1))

    return formula(depth)


class TestInterning:
    def test_vars_interned(self):
        assert Var("x", INT) is Var("x", INT)
        assert mk_var("x", INT) is Var("x", INT)
        assert Var("x", INT) is not Var("x", OBJ)

    def test_literals_and_consts_interned(self):
        assert IntLit(42) is IntLit(42) is mk_int(42)
        assert BoolLit(True) is TRUE is mk_bool(True)
        assert BoolLit(False) is FALSE
        assert Const("null", OBJ) is mk_const("null", OBJ)

    def test_apps_interned(self):
        x = Var("x", INT)
        left = App("add", (x, IntLit(1)), INT)
        right = mk_app("add", [x, IntLit(1)], INT)
        assert left is right

    def test_binders_interned(self):
        body = b.Lt(b.IntVar("x"), b.Int(3))
        one = Binder("forall", (("x", INT),), body)
        two = mk_binder("forall", [("x", INT)], body)
        assert one is two

    def test_structurally_equal_random_formulas_are_identical(self):
        for seed in range(20):
            first = random_formula(random.Random(seed), 4)
            second = random_formula(random.Random(seed), 4)
            assert first is second

    def test_builder_roundtrip_preserves_identity(self):
        # Reassembling a formula from its own pieces yields the same object.
        formula = b.And(b.Lt(b.IntVar("x"), b.IntVar("y")), b.Bool(True))
        assert isinstance(formula, App)
        rebuilt = App(formula.op, formula.args, formula.sort)
        assert rebuilt is formula

    def test_stats_track_allocations_and_hits(self):
        before = term_stats()
        App("mystats_op", (Var("x", INT),), BOOL)
        mid = term_stats()
        assert mid.allocated >= before.allocated + 1
        App("mystats_op", (Var("x", INT),), BOOL)
        after = term_stats()
        assert after.interned_hits > mid.interned_hits

    def test_copy_and_pickle_preserve_identity(self):
        formula = random_formula(random.Random(7), 4)
        assert copy.copy(formula) is formula
        assert copy.deepcopy(formula) is formula
        assert pickle.loads(pickle.dumps(formula)) is formula

    def test_terms_immutable(self):
        x = Var("imm_x", INT)
        with pytest.raises(AttributeError):
            x.name = "other"

    def test_transient_terms_leave_no_pool_entries(self):
        kept = App("transient_kept", (Var("tk", INT),), BOOL)
        before = pool_sizes()
        with transient_terms():
            inner = App("transient_op", (Var("tv", INT), kept), BOOL)
            assert App("transient_op", (Var("tv", INT), kept), BOOL) is inner
        assert pool_sizes() == before
        assert App("transient_kept", (Var("tk", INT),), BOOL) is kept
        # A released term stays valid and equal to its rebuilt twin.
        rebuilt = App("transient_op", (Var("tv", INT), kept), BOOL)
        assert rebuilt is not inner
        assert rebuilt == inner and hash(rebuilt) == hash(inner)

    def test_validation_still_enforced(self):
        with pytest.raises(ValueError):
            Var("", INT)
        with pytest.raises(ValueError):
            Binder("nope", (("x", INT),), TRUE)
        with pytest.raises(ValueError):
            Binder("forall", (), TRUE)


class TestCachedFreeNames:
    def test_matches_recomputation(self):
        for seed in range(20):
            formula = random_formula(random.Random(seed), 4)
            assert free_var_names(formula) == _recompute_free_names(formula)

    def test_dag_size_not_larger_than_tree_size(self):
        formula = random_formula(random.Random(3), 5)
        assert dag_size(formula) <= term_size(formula)


def _recompute_free_names(term: Term) -> frozenset[str]:
    if isinstance(term, Var):
        return frozenset((term.name,))
    if isinstance(term, (Const, IntLit, BoolLit)):
        return frozenset()
    if isinstance(term, App):
        out: frozenset[str] = frozenset()
        for arg in term.args:
            out |= _recompute_free_names(arg)
        return out
    assert isinstance(term, Binder)
    return _recompute_free_names(term.body) - set(term.param_names)


class TestSharePreservingPasses:
    def test_substitute_fixpoint_is_identity(self):
        for seed in range(20):
            formula = random_formula(random.Random(seed), 4)
            # No variable named "unused" occurs, so nothing changes -- the
            # pass must return the identical object, not a rebuilt copy.
            mapping = {Var("unused", INT): b.Int(0)}
            assert substitute(formula, mapping) is formula
            assert substitute(formula, {}) is formula

    def test_substitute_shares_untouched_siblings(self):
        x, y = b.IntVar("x"), b.IntVar("y")
        untouched = b.Lt(y, b.Int(5))
        formula = b.And(b.Lt(x, y), untouched)
        result = substitute(formula, {Var("x", INT): b.Int(1)})
        assert result is not formula
        assert isinstance(result, App)
        assert result.args[1] is untouched

    def test_simplify_fixpoint_is_identity(self):
        for seed in range(20):
            formula = random_formula(random.Random(seed), 4)
            once = simplify(formula)
            assert simplify(once) is once

    def test_to_nnf_fixpoint_is_identity(self):
        for seed in range(20):
            formula = random_formula(random.Random(seed), 4)
            once = to_nnf(formula)
            assert to_nnf(once) is once

    def test_simplify_memo_consistent_across_calls(self):
        formula = random_formula(random.Random(11), 5)
        assert simplify(formula) is simplify(formula)


class TestFreshNameGenerator:
    def test_fresh_never_returns_its_own_base(self):
        # Regression: "x_1" strips to the stem "x"; when "x" is taken the
        # counter used to regenerate "x_1" itself, returning the very name
        # the caller asked to be freshened away from.
        gen = FreshNameGenerator({"x"})
        assert gen.fresh("x_1") != "x_1"

    def test_reserved_name_never_collides(self):
        gen = FreshNameGenerator()
        gen.reserve("x")
        gen.reserve("x_1")
        produced = {gen.fresh("x_1") for _ in range(5)}
        assert "x_1" not in produced
        assert "x" not in produced

    def test_empty_strip_base_avoids_reserved(self):
        # A base of digits/underscores strips to empty and falls back to the
        # "v" stem; explicitly reserved names must never be handed out.
        gen = FreshNameGenerator()
        gen.reserve("v")
        gen.reserve("v_1")
        name = gen.fresh("_1")
        assert name not in {"v", "v_1", "_1"}

    def test_deterministic_sequences_unchanged(self):
        gen = FreshNameGenerator()
        assert gen.fresh("x") == "x"
        assert gen.fresh("x") == "x_1"
        assert gen.fresh("x") == "x_2"

    def test_capture_avoidance_end_to_end(self):
        # ALL k_1. k_1 < y   with   y := k_1 + 1  must rename the binder.
        k1 = Var("k_1", INT)
        y = Var("y", INT)
        formula = b.ForAll([k1], b.Lt(k1, y))
        result = substitute(formula, {y: b.Plus(k1, b.Int(1))})
        assert isinstance(result, Binder)
        (param_name,) = result.param_names
        assert param_name != "k_1"
        assert "k_1" in free_var_names(result)
        assert not alpha_equal(result, b.ForAll([k1], b.Lt(k1, b.Plus(k1, b.Int(1)))))
