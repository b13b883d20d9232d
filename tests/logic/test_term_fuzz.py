"""Property-based fuzzing of the hash-consed term kernel.

Random well-sorted formulas are generated with Hypothesis and checked
against the finite-model evaluator: interning must be stable (pickling a
term back into the same process returns the *same object*), and the
rewriting passes (substitute / simplify / eliminate_sugar / to_nnf) must
preserve evaluator semantics.  Fingerprints must be fixed-size digests of
pure literal data -- no ids, no process-dependent hashes -- which is what
makes them safe to share across worker processes and persist across runs;
a subprocess test pins that down under different ``PYTHONHASHSEED``
values.

``derandomize=True`` keeps tier 1 deterministic (seeded-random rather
than time-seeded exploration).
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.logic import builder as b
from repro.logic.evaluator import Interpretation, evaluate
from repro.logic.nnf import eliminate_sugar, to_nnf
from repro.logic.parser import parse_formula
from repro.logic.printer import to_ascii
from repro.logic.simplify import simplify
from repro.logic.subst import substitute
from repro.logic.terms import IntLit, Var
from repro.logic.sorts import BOOL, INT
from repro.provers.cache import term_fingerprint

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: ``x`` / ``y`` stay free; quantifiers bind ``i`` / ``j`` (so shadowing and
#: capture cases are generated naturally).
FREE_INT_VARS = ("x", "y")
BOUND_INT_VARS = ("i", "j")
BOOL_VARS = ("p", "q")

int_expr = st.recursive(
    st.one_of(
        st.integers(-3, 3).map(b.Int),
        st.sampled_from(FREE_INT_VARS + BOUND_INT_VARS).map(b.IntVar),
    ),
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: b.Plus(*p)),
        st.tuples(children, children).map(lambda p: b.Minus(*p)),
        st.tuples(children, children).map(lambda p: b.Times(*p)),
        children.map(b.Neg),
    ),
    max_leaves=6,
)

atom = st.one_of(
    st.booleans().map(b.Bool),
    st.sampled_from(BOOL_VARS).map(b.BoolVar),
    st.tuples(int_expr, int_expr).map(lambda p: b.Lt(*p)),
    st.tuples(int_expr, int_expr).map(lambda p: b.Le(*p)),
    st.tuples(int_expr, int_expr).map(lambda p: b.Eq(*p)),
)

formula = st.recursive(
    atom,
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda p: b.And(*p)),
        st.tuples(children, children).map(lambda p: b.Or(*p)),
        children.map(b.Not),
        st.tuples(children, children).map(lambda p: b.Implies(*p)),
        st.tuples(children, children).map(lambda p: b.Iff(*p)),
        st.tuples(st.sampled_from(BOUND_INT_VARS), children).map(
            lambda p: b.ForAll([b.IntVar(p[0])], p[1])
        ),
        st.tuples(st.sampled_from(BOUND_INT_VARS), children).map(
            lambda p: b.Exists([b.IntVar(p[0])], p[1])
        ),
    ),
    max_leaves=8,
)

environments = st.fixed_dictionaries(
    {
        **{name: st.integers(-2, 2) for name in FREE_INT_VARS + BOUND_INT_VARS},
        **{name: st.booleans() for name in BOOL_VARS},
    }
)


def interp(env) -> Interpretation:
    # A small quantifier range keeps finite-model evaluation fast; the
    # transforms under test must agree under *every* interpretation, so a
    # small one loses no generality as a differential check.
    return Interpretation(int_range=(-2, 2), variables=dict(env))


@SETTINGS
@given(term=formula)
def test_pickle_reinterns_to_the_same_object(term):
    assert pickle.loads(pickle.dumps(term)) is term


@SETTINGS
@given(term=formula, env=environments)
def test_simplify_preserves_semantics(term, env):
    assert evaluate(simplify(term), interp(env)) == evaluate(term, interp(env))


@SETTINGS
@given(term=formula)
def test_simplify_is_a_fixpoint(term):
    simplified = simplify(term)
    assert simplify(simplified) is simplified


@SETTINGS
@given(term=formula, env=environments)
def test_nnf_preserves_semantics(term, env):
    desugared = eliminate_sugar(term)
    assert evaluate(desugared, interp(env)) == evaluate(term, interp(env))
    assert evaluate(to_nnf(desugared), interp(env)) == evaluate(term, interp(env))


@SETTINGS
@given(term=formula, env=environments, value=st.integers(-2, 2))
def test_substitute_matches_environment_update(term, env, value):
    # Substituting a literal for the always-free ``x`` must equal updating
    # the environment -- the definition of capture-avoiding substitution.
    substituted = substitute(term, {Var("x", INT): IntLit(value)})
    assert evaluate(substituted, interp(env)) == evaluate(
        term, interp({**env, "x": value})
    )


#: Sort environment for re-parsing printed strategy terms (every variable
#: the strategies can mention, plus the fresh ``z`` the renaming property
#: introduces).
PARSE_ENV = {
    **{name: INT for name in FREE_INT_VARS + BOUND_INT_VARS + ("z",)},
    **{name: BOOL for name in BOOL_VARS},
}


def reparse(term):
    return parse_formula(to_ascii(term), PARSE_ENV)


@SETTINGS
@given(term=formula)
def test_printer_parser_round_trip_reinterns(term):
    """``parse(print(t))`` is ``t`` -- the same interned object.

    Strategy terms are built through the builder API, so they are in
    builder normal form; the parser builds through the same API, and the
    hash-consing kernel makes "the same formula" mean object identity.
    Covers binders (the strategies quantify over ``i``/``j``, with
    shadowing generated naturally).
    """
    assert reparse(term) is term


@SETTINGS
@given(term=formula)
def test_round_trip_survives_renaming_substitution(term):
    """Renaming a free variable to a fresh one preserves the round trip.

    Substitution rebuilds interned nodes directly (no builder pass), so
    this pins down that the rebuilt terms still print to something the
    parser maps back to the very same objects -- including under binders,
    where substitution must avoid capture.
    """
    renamed = substitute(term, {Var("x", INT): Var("z", INT)})
    assert reparse(renamed) is renamed


@SETTINGS
@given(term=formula, env=environments, value=st.integers(-2, 2))
def test_round_trip_of_literal_substitution_is_stable_and_semantic(term, env, value):
    """Substituting a literal can leave non-normal-form nodes (e.g. a raw
    ``0 = 0`` the builder would fold to ``true``), so the printed text may
    re-parse to a *different* interned term.  What must still hold: one
    round trip reaches a fixpoint (printing is injective on what the
    parser produces), and the reparse is semantically identical.
    """
    substituted = substitute(term, {Var("x", INT): IntLit(value)})
    reparsed = reparse(substituted)
    assert reparse(reparsed) is reparsed
    interpretation = interp(env)
    assert evaluate(reparsed, interpretation) == evaluate(substituted, interpretation)


@SETTINGS
@given(term=formula)
def test_fingerprints_are_pure_literal_data(term):
    fingerprint = term_fingerprint(term)
    # A fixed-size digest: 64 lowercase hex characters, whatever the size
    # of the term...
    assert re.fullmatch("[0-9a-f]{64}", fingerprint), fingerprint
    # ...and a plain JSON string, so the persistent store needs no codec.
    assert json.loads(json.dumps(fingerprint)) == fingerprint


_FINGERPRINT_SCRIPT = """
import pickle, sys
from repro.provers.cache import term_fingerprint
with open(sys.argv[1], "rb") as handle:
    terms = pickle.load(handle)
for term in terms:
    print(repr(term_fingerprint(term)))
"""


def test_fingerprints_stable_across_processes(tmp_path):
    """The same terms fingerprint identically under different hash seeds."""
    terms = [
        b.ForAll([b.IntVar("i")], b.Lt(b.IntVar("i"), b.IntVar("n"))),
        b.And(b.BoolVar("p"), b.Not(b.BoolVar("q"))),
        b.Exists(
            [b.IntVar("i")],
            b.And(
                b.Le(b.Int(0), b.IntVar("i")),
                b.ForAll([b.IntVar("i")], b.Eq(b.IntVar("i"), b.IntVar("x"))),
            ),
        ),
    ]
    blob = tmp_path / "terms.pickle"
    blob.write_bytes(pickle.dumps(terms))
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "424242"):
        result = subprocess.run(
            [sys.executable, "-c", _FINGERPRINT_SCRIPT, str(blob)],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": src_root, "PYTHONHASHSEED": seed, "PATH": ""},
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert [line for line in outputs[0].splitlines() if line] == [
        repr(term_fingerprint(term)) for term in terms
    ]
