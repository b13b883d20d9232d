"""Self-test of the benchmark's verdict checks.

    python3 perfbench/selftest.py

Verifies one small generated class for genuine verdict records, shows that
every check accepts them, then corrupts them one way per check and shows
that the check rejects each corruption.  Exits 1 if any check accepts a
corrupted record or rejects a genuine one.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from checks import (  # noqa: E402
    all_proved,
    evaluator_agrees,
    no_refuted,
    none_dispatched,
    payload_verdicts,
    report_verdicts,
    same_verdicts,
)
from repro.logic import Int, IntVar, Lt  # noqa: E402
from repro.provers.dispatch import default_portfolio  # noqa: E402
from repro.suite.generate import generate_class  # noqa: E402
from repro.verifier.engine import VerificationEngine  # noqa: E402


class FalseSequent:
    """A sequent whose formula, ``x < 0``, is false for most ``x``."""

    def formula(self):
        return Lt(IntVar("x"), Int(0))


def wire_payload(verdicts):
    """The daemon's ``/v1/verify`` report layout for ``verdicts``."""
    methods: dict[str, list] = {}
    for v in verdicts:
        methods.setdefault(v.method, []).append(
            {
                "label": v.label,
                "proved": v.proved,
                "refuted": v.refuted,
                "cached": v.cached,
            }
        )
    return {
        "class": verdicts[0].class_name,
        "methods": [{"method": m, "outcomes": o} for m, o in methods.items()],
    }


def evaluator(verdicts):
    return evaluator_agrees(verdicts)[0]


def main() -> int:
    engine = VerificationEngine(default_portfolio().scaled(0.4))
    report = engine.verify_class(generate_class("arith", 7))
    genuine = report_verdicts(report)
    rerun = report_verdicts(engine.verify_class(generate_class("arith", 7)))
    payload = wire_payload(genuine)
    first = genuine[0]

    def replaced(index, **changes):
        corrupted = list(genuine)
        corrupted[index] = dataclasses.replace(corrupted[index], **changes)
        return corrupted

    flipped_payload = dict(payload)
    flipped_payload["methods"] = [dict(method) for method in payload["methods"]]
    outcomes = [dict(outcome) for outcome in payload["methods"][0]["outcomes"]]
    outcomes[0]["proved"] = not outcomes[0]["proved"]
    flipped_payload["methods"][0]["outcomes"] = outcomes

    cases = [
        # (check, genuine records, corrupted records, corruption)
        ("no_refuted", lambda v: no_refuted(v), genuine, replaced(0, refuted=True),
         "a sequent marked refuted"),
        ("all_proved", lambda v: all_proved(v), genuine, replaced(0, proved=False),
         "a sequent marked unproved"),
        ("none_dispatched", lambda v: none_dispatched(v), rerun, genuine,
         "a re-run whose sequents reached a prover"),
        ("same_verdicts", lambda v: same_verdicts(v, genuine), rerun,
         replaced(0, proved=not first.proved), "one flipped verdict"),
        ("same_verdicts", lambda v: same_verdicts(v, genuine), rerun, genuine[1:],
         "one verdict missing"),
        ("same_verdicts", lambda v: same_verdicts(v, genuine), rerun,
         replaced(0, label=first.label + "'"), "a relabelled sequent"),
        ("same_verdicts (wire)", lambda v: same_verdicts(v, genuine),
         payload_verdicts(payload), payload_verdicts(flipped_payload),
         "a daemon payload with one flipped verdict"),
        ("evaluator_agrees", evaluator, genuine,
         replaced(0, proved=True, sequent=FalseSequent()),
         "a false sequent marked proved"),
        ("evaluator_agrees", evaluator, genuine,
         [dataclasses.replace(v, sequent=None) for v in genuine],
         "records the evaluator cannot cover"),
    ]
    ok = True
    for name, check, clean, corrupted, corruption in cases:
        accepted = not check(clean)
        rejected = bool(check(corrupted))
        status = "ok" if accepted and rejected else "FAIL"
        ok &= accepted and rejected
        print(f"{status}: {name} accepts genuine records "
              f"({'yes' if accepted else 'no'}) and rejects {corruption} "
              f"({'yes' if rejected else 'no'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
