"""Prover results, tasks and resource budgets."""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

from ..logic.terms import Term


class Outcome(Enum):
    """Outcome of a prover invocation on a proof task."""

    PROVED = "proved"
    REFUTED = "refuted"
    UNKNOWN = "unknown"
    TIMEOUT = "timeout"

    @property
    def is_proved(self) -> bool:
        return self is Outcome.PROVED


@dataclass(frozen=True)
class ProofTask:
    """A sequent handed to a prover: named assumptions and a goal.

    ``assumptions`` is a tuple of ``(name, formula)`` pairs -- the assumption
    base.  The prover must establish that the conjunction of the assumptions
    entails ``goal``.
    """

    assumptions: tuple[tuple[str, Term], ...]
    goal: Term
    label: str = ""

    @property
    def assumption_formulas(self) -> tuple[Term, ...]:
        return tuple(formula for _, formula in self.assumptions)

    def restricted_to(self, names: set[str] | frozenset[str]) -> "ProofTask":
        """Keep only the assumptions whose name is in ``names``."""
        kept = tuple(
            (name, formula) for name, formula in self.assumptions if name in names
        )
        return ProofTask(kept, self.goal, self.label)


@dataclass
class ProverResult:
    """The result of running a prover on a proof task."""

    outcome: Outcome
    prover: str = ""
    elapsed: float = 0.0
    reason: str = ""
    countermodel: object = None

    @property
    def is_proved(self) -> bool:
        return self.outcome is Outcome.PROVED


class Budget:
    """A cooperative deadline shared by the components of a prover run.

    The budget measures **per-process CPU time**, not wall-clock time: the
    provers are pure compute, and a CPU budget makes timeouts independent
    of machine load -- in particular, the worker processes of a parallel
    run (:mod:`repro.verifier.parallel`) contending for cores reach
    exactly the same timeout decisions the sequential run would, which is
    what keeps parallel verdicts and prover attribution bit-identical.
    """

    def __init__(self, seconds: float | None) -> None:
        self.seconds = seconds
        self.start = time.process_time()

    def elapsed(self) -> float:
        return time.process_time() - self.start

    def remaining(self) -> float:
        if self.seconds is None:
            return float("inf")
        return self.seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`BudgetExpired` when the deadline has passed."""
        if self.expired():
            raise BudgetExpired()


class BudgetExpired(Exception):
    """Raised internally by provers when their time budget runs out."""
