"""A first-order saturation prover (resolution with factoring).

This prover is the stand-in for the first-order back-ends (SPASS, E) of the
paper's integrated reasoning setup.  It complements the SMT-lite prover: it
performs *unification-based* reasoning, so it can prove quantified goals and
chains of universally quantified facts that ground instantiation heuristics
miss, while being weak at arithmetic (it only knows syntactic facts about
integer literals) and at the theory of arrays.

The calculus is classic binary resolution plus positive factoring over
clauses obtained by NNF / Skolemization / CNF conversion, with:

* unit-preference and smallest-clause-first given-clause selection,
* forward subsumption (a new clause subsumed by an existing one is dropped),
* equality handled by adding reflexivity and, for the function symbols that
  occur in the problem, congruence axioms (a pragmatic, bounded treatment of
  equality in the SPASS/E role; the EUF-complete reasoning lives in the
  SMT-lite prover),
* limits on clause count, clause size and iterations so the prover always
  terminates within its budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from ..logic import builder as b
from ..logic.clauses import Clause, ClauseBudgetExceeded, Literal, cnf_clauses
from ..logic.nnf import matrix_of, skolemize, to_nnf
from ..logic.sorts import BOOL
from ..logic.subst import FreshNameGenerator, substitute
from ..logic.terms import (
    App,
    Binder,
    BoolLit,
    Const,
    IntLit,
    Term,
    Var,
    free_vars,
    function_symbols,
    subterms,
    transient_terms,
)
from .interface import Prover
from .result import Budget, Outcome, ProofTask, ProverResult
from .rewriter import prepare

__all__ = ["FolProver", "unify"]


# ---------------------------------------------------------------------------
# Unification
# ---------------------------------------------------------------------------


def _walk(term: Term, subst: dict[Var, Term]) -> Term:
    while isinstance(term, Var) and term in subst:
        term = subst[term]
    return term


def _occurs(var: Var, term: Term, subst: dict[Var, Term]) -> bool:
    term = _walk(term, subst)
    if term == var:
        return True
    return any(_occurs(var, child, subst) for child in term.children())


def unify(
    left: Term, right: Term, subst: dict[Var, Term] | None = None
) -> dict[Var, Term] | None:
    """Most general unifier of two terms, or None."""
    subst = dict(subst or {})
    stack = [(left, right)]
    while stack:
        l, r = stack.pop()
        l, r = _walk(l, subst), _walk(r, subst)
        if l == r:
            continue
        if isinstance(l, Var):
            if l.sort != r.sort or _occurs(l, r, subst):
                return None
            subst[l] = r
            continue
        if isinstance(r, Var):
            if l.sort != r.sort or _occurs(r, l, subst):
                return None
            subst[r] = l
            continue
        if isinstance(l, App) and isinstance(r, App):
            if l.op != r.op or len(l.args) != len(r.args):
                return None
            stack.extend(zip(l.args, r.args))
            continue
        if isinstance(l, Binder) or isinstance(r, Binder):
            return None
        return None  # distinct constants / literals
    return subst


def _apply(term: Term, subst: dict[Var, Term]) -> Term:
    if not subst:
        return term
    resolved = {var: _resolve_term(value, subst) for var, value in subst.items()}
    return substitute(term, resolved)


def _resolve_term(term: Term, subst: dict[Var, Term]) -> Term:
    previous = None
    current = term
    while previous != current:
        previous = current
        current = substitute(current, subst)
    return current


# ---------------------------------------------------------------------------
# Clause utilities
# ---------------------------------------------------------------------------


def _canonical_clause(clause: Clause) -> Clause:
    """Rename clause variables to a canonical numbering for deduplication."""
    literals = sorted(clause, key=lambda lit: (lit.positive, str(lit.atom)))
    mapping: dict[Var, Term] = {}
    for literal in literals:
        for sub in subterms(literal.atom):
            if isinstance(sub, Var) and sub not in mapping:
                mapping[sub] = Var(f"V{len(mapping)}", sub.sort)
    if not mapping:
        return clause
    return frozenset(
        Literal(substitute(lit.atom, mapping), lit.positive) for lit in clause
    )


def _freeze_free_variables(formula: Term) -> Term:
    """Replace the free variables of a task formula by rigid constants."""
    mapping = {var: Const(var.name, var.sort) for var in free_vars(formula)}
    if not mapping:
        return formula
    return substitute(formula, mapping)


def _rename_clause(clause: Clause, suffix: int) -> Clause:
    variables = set()
    for literal in clause:
        variables |= free_vars(literal.atom)
    mapping = {var: Var(f"{var.name}%{suffix}", var.sort) for var in variables}
    if not mapping:
        return clause
    return frozenset(
        Literal(substitute(lit.atom, mapping), lit.positive) for lit in clause
    )


def _clause_size(clause: Clause) -> int:
    return sum(len(str(lit.atom)) for lit in clause)


def _subsumes(general: Clause, specific: Clause) -> bool:
    """Very light subsumption: syntactic subset check."""
    return general <= specific


@dataclass
class _Limits:
    max_clauses: int = 3000
    max_clause_literals: int = 8
    max_iterations: int = 4000


class FolProver(Prover):
    """Resolution/factoring saturation prover."""

    name = "fol"

    def __init__(self, limits: _Limits | None = None) -> None:
        self.limits = limits or _Limits()

    # -- clausification --------------------------------------------------------

    def _clausify_task(self, task: ProofTask) -> list[Clause] | None:
        prepared = prepare(task)
        if prepared.trivially_proved:
            return []
        used: set[str] = set()
        formulas = prepared.ground + prepared.axioms
        for formula in formulas:
            used |= {v.name for v in free_vars(formula)}
            used |= set(function_symbols(formula))
        fresh = FreshNameGenerator(used)
        clauses: list[Clause] = []
        for formula in formulas:
            # Freeze the proof task's free variables into constants: they
            # denote fixed program values, and must not be treated as
            # unifiable variables by the resolution calculus (that would
            # strengthen the assumptions and be unsound).
            frozen = _freeze_free_variables(formula)
            matrix, _variables = matrix_of(skolemize(to_nnf(frozen), fresh))
            try:
                clauses.extend(cnf_clauses(matrix, max_clauses=400))
            except ClauseBudgetExceeded:
                continue  # drop over-large formulas; sound (fewer assumptions)
        return clauses

    def _equality_axioms(self, clauses: list[Clause]) -> list[Clause]:
        """Reflexivity plus bounded congruence axioms for occurring symbols."""
        axioms: list[Clause] = []
        sorts = set()
        symbols: dict[str, App] = {}
        for clause in clauses:
            for literal in clause:
                for sub in subterms(literal.atom):
                    if isinstance(sub, App) and sub.op == "eq":
                        sorts.add(sub.args[0].sort)
                    if isinstance(sub, App) and len(sub.args) >= 1:
                        symbols.setdefault(sub.op, sub)
        for index, sort in enumerate(sorts):
            var = Var(f"rx{index}", sort)
            axioms.append(frozenset({Literal(b.Eq(var, var), True)}))
        # Congruence for unary/binary applications of occurring symbols.
        for op, example in list(symbols.items())[:20]:
            if example.op in ("eq", "and", "or", "not", "implies", "iff"):
                continue
            if len(example.args) > 2 or example.sort == BOOL:
                continue
            params = [
                (Var(f"cx{i}", arg.sort), Var(f"cy{i}", arg.sort))
                for i, arg in enumerate(example.args)
            ]
            left = App(op, tuple(p[0] for p in params), example.sort)
            right = App(op, tuple(p[1] for p in params), example.sort)
            literals = [Literal(b.Eq(x, y), False) for x, y in params]
            literals.append(Literal(b.Eq(left, right), True))
            axioms.append(frozenset(literals))
        return axioms

    # -- inference rules ---------------------------------------------------------

    def _resolvents(self, left: Clause, right: Clause, suffix: int) -> list[Clause]:
        renamed = _rename_clause(right, suffix)
        out: list[Clause] = []
        for lit_l in left:
            for lit_r in renamed:
                if lit_l.positive == lit_r.positive:
                    continue
                mgu = unify(lit_l.atom, lit_r.atom)
                if mgu is None:
                    continue
                merged = (left - {lit_l}) | (renamed - {lit_r})
                resolved = frozenset(
                    Literal(_apply(lit.atom, mgu), lit.positive) for lit in merged
                )
                if len(resolved) <= self.limits.max_clause_literals:
                    out.append(resolved)
        return out

    def _factors(self, clause: Clause) -> list[Clause]:
        out: list[Clause] = []
        literals = list(clause)
        for a, c in itertools.combinations(literals, 2):
            if a.positive != c.positive:
                continue
            mgu = unify(a.atom, c.atom)
            if mgu is None:
                continue
            out.append(
                frozenset(
                    Literal(_apply(lit.atom, mgu), lit.positive) for lit in clause
                )
            )
        return out

    @staticmethod
    def _is_trivial(clause: Clause) -> bool:
        positives = {lit.atom for lit in clause if lit.positive}
        negatives = {lit.atom for lit in clause if not lit.positive}
        if positives & negatives:
            return True
        for literal in clause:
            atom = literal.atom
            if isinstance(atom, BoolLit) and atom.value == literal.positive:
                return True
            if isinstance(atom, App) and atom.op == "eq" and literal.positive:
                if atom.args[0] == atom.args[1]:
                    return True
            # Disequality between distinct integer literals is trivially true.
            if (
                not literal.positive
                and isinstance(atom, App)
                and atom.op == "eq"
                and isinstance(atom.args[0], IntLit)
                and isinstance(atom.args[1], IntLit)
                and atom.args[0].value != atom.args[1].value
            ):
                return True
        return False

    @staticmethod
    def _evaluate_ground_literals(clause: Clause) -> Clause | None:
        """Drop literals that are definitely false (e.g. ``3 = 4``)."""
        kept: list[Literal] = []
        for literal in clause:
            atom = literal.atom
            value: bool | None = None
            if isinstance(atom, BoolLit):
                value = atom.value
            elif isinstance(atom, App) and atom.op == "eq":
                left, right = atom.args
                if isinstance(left, IntLit) and isinstance(right, IntLit):
                    value = left.value == right.value
                elif isinstance(left, Const) and isinstance(right, Const):
                    value = None if left == right else None
            elif isinstance(atom, App) and atom.op in ("lt", "le"):
                left, right = atom.args
                if isinstance(left, IntLit) and isinstance(right, IntLit):
                    value = (
                        left.value < right.value
                        if atom.op == "lt"
                        else left.value <= right.value
                    )
            if value is None:
                kept.append(literal)
            elif value == literal.positive:
                return None  # literal true -> clause true -> useless
        return frozenset(kept)

    # -- main saturation loop ------------------------------------------------------

    def attempt(self, task: ProofTask, budget: Budget) -> ProverResult:
        # The clauses die with the attempt; so do their pool entries.
        with transient_terms():
            return self._saturate(task, budget)

    def _saturate(self, task: ProofTask, budget: Budget) -> ProverResult:
        clauses = self._clausify_task(task)
        if clauses == []:
            return ProverResult(Outcome.PROVED, reason="trivial")
        if clauses is None:
            return ProverResult(Outcome.UNKNOWN, reason="clausification failed")
        clauses = clauses + self._equality_axioms(clauses)
        processed: list[Clause] = []
        # Waiting clauses with their selection key, computed once on enqueue.
        unprocessed: list[tuple[tuple[int, int], Clause]] = []
        seen: set[Clause] = set()
        for clause in clauses:
            reduced = self._evaluate_ground_literals(clause)
            if reduced is None or self._is_trivial(reduced):
                continue
            if not reduced:
                return ProverResult(Outcome.PROVED, reason="empty input clause")
            reduced = _canonical_clause(reduced)
            if reduced not in seen:
                seen.add(reduced)
                unprocessed.append(((len(reduced), _clause_size(reduced)), reduced))
        iterations = 0
        rename_counter = 0
        while unprocessed:
            budget.check()
            iterations += 1
            if iterations > self.limits.max_iterations:
                return ProverResult(Outcome.UNKNOWN, reason="iteration limit")
            if len(seen) > self.limits.max_clauses:
                return ProverResult(Outcome.UNKNOWN, reason="clause limit")
            # Given-clause selection: smallest clause first (unit preference).
            unprocessed.sort(key=itemgetter(0), reverse=True)
            _, given = unprocessed.pop()
            if any(_subsumes(other, given) for other in processed):
                continue
            processed.append(given)
            new_clauses: list[Clause] = []
            for other in processed:
                rename_counter += 1
                new_clauses.extend(self._resolvents(given, other, rename_counter))
            new_clauses.extend(self._factors(given))
            for clause in new_clauses:
                reduced = self._evaluate_ground_literals(clause)
                if reduced is None or self._is_trivial(reduced):
                    continue
                if not reduced:
                    return ProverResult(
                        Outcome.PROVED,
                        reason=f"empty clause after {iterations} iterations",
                    )
                reduced = _canonical_clause(reduced)
                if reduced in seen:
                    continue
                seen.add(reduced)
                unprocessed.append(((len(reduced), _clause_size(reduced)), reduced))
        return ProverResult(Outcome.UNKNOWN, reason="saturated without proof")
