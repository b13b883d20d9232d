"""Frontend: class models, lowering, old-elimination, calls, statistics."""

import dataclasses

import pytest

from repro.frontend import count_proof_constructs, count_statements, lower_method
from repro.frontend.lower import LoweringError
from repro.gcl import format_simple
from repro.gcl.desugar import desugar
from repro.provers import default_portfolio
from repro.suite.common import StructureBuilder
from repro.verifier import class_statistics, strip_proofs_from_class


def build_account():
    s = StructureBuilder("Account")
    s.concrete("balance", "int")
    s.concrete("owner", "obj")
    s.ghost("deposits", "int set")
    s.spec("worth", "int", "balance")
    s.invariant("NonNegative", "0 <= balance")

    m = s.method(
        "deposit",
        params="amount : int",
        requires="0 < amount",
        modifies="balance, deposits",
        ensures="worth = old worth + amount & old balance in deposits",
    )
    m.assign("balance", "balance + amount")
    m.ghost_assign("deposits", "deposits Un {old balance}")
    m.note(
        "Grew",
        "old balance < balance",
        from_hints="Pre, OldSnapshot, AssignTmp, Assign_balance",
    )
    m.done()

    m = s.method(
        "payout",
        params="amount : int",
        returns="int",
        requires="0 <= amount & amount <= balance",
        modifies="balance",
        ensures="result = old balance - amount & worth = result",
    )
    m.assign("balance", "balance - amount")
    m.returns("balance")
    m.done()

    m = s.method(
        "depositTwice",
        params="amount : int",
        requires="0 < amount",
        modifies="balance, deposits",
        ensures="worth = old worth + amount + amount",
        public=True,
    )
    m.call("deposit", "amount")
    m.call("deposit", "amount")
    m.done()
    return s.build()


def verify_method(engine, cls, name):
    """Verify the one method ``name`` of ``cls``."""
    one = dataclasses.replace(cls, methods=(cls.method(name),))
    return engine.verify_class(one).methods[0]


class TestLowering:
    def test_spec_variable_expansion(self):
        account = build_account()
        lowering = lower_method(account, account.method("deposit"))
        rendered = format_simple(desugar(lowering.command))
        # ``worth`` is defined as ``balance`` and must not survive expansion.
        assert "worth" not in rendered

    def test_old_elimination_snapshot(self):
        account = build_account()
        lowering = lower_method(account, account.method("deposit"))
        assert "balance" in lowering.old_snapshot
        rendered = format_simple(desugar(lowering.command))
        assert "old_balance" in rendered

    def test_exit_asserts_include_invariants(self):
        account = build_account()
        lowering = lower_method(account, account.method("deposit"))
        labels = [label for label, _ in lowering.exit_asserts]
        assert "Post" in labels and "NonNegativeRestored" in labels

    def test_call_is_verified_against_contract(self):
        account = build_account()
        lowering = lower_method(account, account.method("depositTwice"))
        rendered = format_simple(desugar(lowering.command))
        assert "deposit_Pre" in rendered and "deposit_Post" in rendered

    def test_call_to_unknown_method_is_rejected(self):
        s = StructureBuilder("Broken")
        s.concrete("balance", "int")
        m = s.method("oops")
        m.call("missing")
        m.done()
        broken = s.build()
        with pytest.raises(KeyError):
            lower_method(broken, broken.method("oops"))

    def test_field_write_requires_reference_field(self):
        s = StructureBuilder("BadField")
        s.concrete("size", "int")
        m = s.method("poke", params="o : obj")
        m.field_write("size", "o", "o")
        m.done()
        cls = s.build()
        with pytest.raises(LoweringError):
            lower_method(cls, cls.method("poke"))

    def test_verification_of_lowered_methods(self):
        account = build_account()
        portfolio = default_portfolio()
        from repro.verifier import VerificationEngine

        engine = VerificationEngine(portfolio)
        report = verify_method(engine, account, "deposit")
        assert report.verified, [o.sequent.label for o in report.failed_sequents]
        report = verify_method(engine, account, "payout")
        assert report.verified

    def test_null_checks_inserted_for_field_reads(self):
        s = StructureBuilder("Node")
        s.concrete("next", "obj => obj")
        s.concrete("head", "obj")
        m = s.method("step", requires="head ~= null", modifies="head")
        m.assign("head", "next[head]")
        m.done()
        cls = s.build()
        lowering = lower_method(cls, cls.method("step"))
        simple = desugar(lowering.command)
        rendered = format_simple(simple)
        assert "NullCheck" in rendered


class TestStatistics:
    def test_statement_and_construct_counts(self):
        account = build_account()
        deposit = account.method("deposit")
        assert count_statements(deposit) == 1  # the ghost assign and note are spec-only
        constructs = count_proof_constructs(deposit)
        assert constructs.get("note") == 1
        assert constructs.get("note_with_from") == 1

    def test_class_statistics(self):
        stats = class_statistics(build_account())
        assert stats.methods == 3
        assert stats.spec_vars == 1
        assert stats.local_spec_vars == 1
        assert stats.invariants == 1
        assert stats.construct("note") == 1

    def test_strip_proofs(self):
        stripped = strip_proofs_from_class(build_account())
        assert class_statistics(stripped).construct("note") == 0
        # Contracts and invariants stay.
        assert len(stripped.invariants) == 1
