"""Verdict checks that do not take the verifier's word for its verdicts.

Every check reads plain verdict records (:class:`Verdict`) and returns a
list of failure descriptions, empty when the check passes.  The records
come from engine reports, from the daemon's JSON report payload, or, in
``selftest.py``, from hand-made corrupted records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.logic.evaluator import Interpretation, evaluate
from repro.logic.sorts import BOOL, INT
from repro.logic.terms import contains_binder, free_vars


@dataclass(frozen=True)
class Verdict:
    """One sequent's verdict; ``sequent`` is None when only the label
    survived (index-resolved or wire-transported verdicts)."""

    class_name: str
    method: str
    label: str
    proved: bool
    refuted: bool
    cached: bool = False
    sequent: object = None

    @property
    def key(self) -> tuple:
        return (self.class_name, self.method, self.label, self.proved, self.refuted)


def report_verdicts(report) -> list[Verdict]:
    """The verdict records of one engine ``ClassReport``."""
    return [
        Verdict(
            report.class_name,
            method.method_name,
            outcome.sequent.label,
            bool(outcome.proved),
            bool(outcome.dispatch.refuted),
            bool(outcome.dispatch.cached),
            outcome.sequent,
        )
        for method in report.methods
        for outcome in method.outcomes
    ]


def payload_verdicts(payload: dict) -> list[Verdict]:
    """The verdict records of the daemon's JSON report payload."""
    return [
        Verdict(
            payload["class"],
            method["method"],
            outcome["label"],
            bool(outcome["proved"]),
            bool(outcome["refuted"]),
            bool(outcome["cached"]),
        )
        for method in payload["methods"]
        for outcome in method["outcomes"]
    ]


def no_refuted(verdicts: list[Verdict]) -> list[str]:
    """Every Table 1 obligation is valid, so a refutation is unsound."""
    return [
        f"{v.class_name}.{v.method} {v.label!r} was refuted"
        for v in verdicts
        if v.refuted
    ]


def all_proved(verdicts: list[Verdict]) -> list[str]:
    """Every sequent proved (generated classes verify by construction)."""
    return [
        f"{v.class_name}.{v.method} {v.label!r} not proved"
        for v in verdicts
        if not v.proved
    ]


def none_dispatched(verdicts: list[Verdict]) -> list[str]:
    """A re-run of stored classes must answer every sequent from cache."""
    dispatched = sum(1 for v in verdicts if not v.cached)
    return [f"{dispatched} sequents dispatched"] if dispatched else []


def same_verdicts(got: list[Verdict], expected: list[Verdict]) -> list[str]:
    """Sequent-by-sequent agreement with a reference run."""
    failures = []
    if len(got) != len(expected):
        failures.append(f"{len(got)} verdicts, reference has {len(expected)}")
    for index, (mine, theirs) in enumerate(zip(got, expected)):
        if mine.key != theirs.key:
            failures.append(f"verdict {index}: {mine.key} != reference {theirs.key}")
    return failures


def evaluator_counterexample(formula, seed: str, samples: int = 8):
    """A falsifying int/bool assignment of a quantifier-free ``formula``,
    ``None`` when sampling finds none, or ``False`` when the formula is
    outside the sampled fragment (binders, or non-int/bool variables)."""
    if contains_binder(formula):
        return False
    variables = sorted(free_vars(formula), key=lambda var: var.name)
    if any(var.sort not in (INT, BOOL) for var in variables):
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        env = {
            var.name: rng.randint(-3, 3) if var.sort == INT else rng.random() < 0.5
            for var in variables
        }
        if not evaluate(formula, Interpretation(int_range=(-4, 4), variables=env)):
            return env
    return None


def evaluator_agrees(verdicts: list[Verdict]) -> tuple[list[str], int]:
    """Every proved quantifier-free int/bool sequent must evaluate true
    under sampled assignments.  Returns ``(failures, sequents checked)``;
    a check that covered no sequent at all is itself a failure."""
    failures = []
    checked = 0
    for v in verdicts:
        if not v.proved or v.sequent is None:
            continue
        found = evaluator_counterexample(
            v.sequent.formula(), f"{v.class_name}.{v.method}.{v.label}"
        )
        if found is False:
            continue
        checked += 1
        if found is not None:
            failures.append(
                f"{v.class_name}.{v.method} {v.label!r} proved but false under {found}"
            )
    if not checked:
        failures.append("the evaluator check covered no proved sequent")
    return failures, checked
