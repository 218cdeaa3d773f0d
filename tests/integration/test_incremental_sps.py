"""Incremental (delta) security punctuations — paper future work.

An incremental sp-batch edits the current policy instead of replacing
it: positive sps add their roles, negative sps retract theirs.  These
tests cover the tracker semantics, the shield, joins, the analyzer,
CQL declaration and the wire format.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.analyzer import SPAnalyzer
from repro.core.punctuation import apply_incremental_batch
from repro.core.punctuation import SecurityPunctuation
from repro.cql.translator import compile_statement
from repro.engine.dsms import DSMS
from repro.errors import PolicyError
from repro.operators.index_join import IndexSAJoin
from repro.operators.shield import SecurityShield
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.stream.wire import decode_element, encode_element

from tests.drive import push_all


def grant(roles, ts, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def add(roles, ts):
    return SecurityPunctuation.add_roles(roles, ts)


def retract(roles, ts):
    return SecurityPunctuation.retract_roles(roles, ts)


def tup(tid, ts, sid="s1", **values):
    return DataTuple(sid, tid, values or {"v": tid}, ts)


def drive(op, elements, port=None):
    out = []
    for element in elements:
        out.extend(op.process(element)
                   if port is None else op.process(element, port))
    return out


def tids(elements):
    return [e.tid for e in elements if isinstance(e, DataTuple)]


class TestBatchApplication:
    def test_add_and_retract(self):
        batch = [add(["C"], 5.0), retract(["ND"], 5.0)]
        out = apply_incremental_batch(frozenset({"D", "ND"}), batch)
        assert len(out) == 1
        assert out[0].roles() == frozenset({"D", "C"})
        assert out[0].ts == 5.0

    def test_order_matters(self):
        # Retract then re-add: the role survives.
        batch = [retract(["D"], 5.0), add(["D"], 5.0)]
        out = apply_incremental_batch(frozenset({"D"}), batch)
        assert out[0].roles() == frozenset({"D"})
        # Add then retract: it does not.
        batch = [add(["D"], 5.0), retract(["D"], 5.0)]
        out = apply_incremental_batch(frozenset(), batch)
        assert not out[0].is_positive  # deny-all marker

    def test_retract_everything_denies_all(self):
        out = apply_incremental_batch(frozenset({"D"}),
                                      [retract(["D"], 5.0)])
        assert len(out) == 1
        assert not out[0].is_positive
        assert out[0].srp.roles.is_wildcard()

    def test_scoped_delta_rejected(self):
        from repro.core.patterns import literal
        scoped = SecurityPunctuation.grant(
            ["C"], 5.0, tuple_id=literal(7), incremental=True)
        with pytest.raises(PolicyError):
            apply_incremental_batch(frozenset(), [scoped])


class TestShieldWithDeltas:
    def test_er_admitted_then_removed(self):
        """The motivating scenario: vitals spike, the ER is admitted on
        top of the standing policy, then dropped again — all without
        restating the doctor's access."""
        shield = SecurityShield(["E"])
        out = drive(shield, [
            grant(["D"], 1.0), tup(1, 2.0),
            add(["E"], 3.0), tup(2, 4.0),      # emergency: ER admitted
            retract(["E"], 5.0), tup(3, 6.0),  # recovered: ER dropped
        ])
        assert tids(out) == [2]

    def test_standing_roles_unaffected(self):
        shield = SecurityShield(["D"])
        out = drive(shield, [
            grant(["D"], 1.0), tup(1, 2.0),
            add(["E"], 3.0), tup(2, 4.0),
            retract(["E"], 5.0), tup(3, 6.0),
        ])
        assert tids(out) == [1, 2, 3]

    def test_delta_before_any_policy_starts_from_empty(self):
        shield = SecurityShield(["D"])
        out = drive(shield, [add(["D"], 1.0), tup(1, 2.0)])
        assert tids(out) == [1]

    def test_mixed_batch_rejected(self):
        shield = SecurityShield(["D"])
        shield.process(grant(["D"], 1.0))
        shield.process(add(["E"], 1.0))
        with pytest.raises(PolicyError):
            shield.process(tup(1, 2.0))


class TestJoinWithDeltas:
    def test_delta_opens_new_segment_on_base_policy(self):
        join = IndexSAJoin("v", "v", 100.0)
        out = []
        out += drive(join, [grant(["D"], 1.0),
                            tup(1, 2.0, sid="left", v=7)], port=0)
        out += drive(join, [grant(["E"], 1.0),
                            tup(2, 3.0, sid="right", v=7)], port=1)
        assert out == []  # D vs E: incompatible
        out += drive(join, [add(["E"], 4.0),
                            tup(3, 5.0, sid="left", v=7)], port=0)
        # Left's policy is now {D, E}: compatible with right's {E}.
        assert tids(out) == [(3, 2)]


class TestAnalyzerWithDeltas:
    def test_server_refines_added_roles(self):
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(["D", "E"],
                                                             ts=0.0))
        out = analyzer.process_batch([add(["E", "X"], 1.0)])
        assert len(out) == 1
        assert out[0].incremental
        assert out[0].roles() == frozenset({"E"})

    def test_noop_delta_emits_nothing(self):
        """A delta refined away adds nobody: the current policy stays
        (unlike an absolute batch, which must become deny-all)."""
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.grant(["D"], ts=0.0))
        assert analyzer.process_batch([add(["X"], 1.0)]) == []

    def test_server_denial_joins_a_delta_as_a_retraction(self):
        """A batch never mixes deltas with absolute sps, so a negative
        server policy edits an incremental batch at the batch's ts."""
        analyzer = SPAnalyzer()
        analyzer.add_server_policy(SecurityPunctuation.deny(["B"], 0.0))
        out = analyzer.process_batch([add(["C"], 3.0)])
        assert [(sp.is_positive, sp.roles(), sp.ts) for sp in out] \
            == [(True, {"C"}, 3.0), (False, {"B"}, 3.0)]
        assert all(sp.incremental for sp in out)
        absolute = analyzer.process_batch([grant(["A", "B"], 1.0)])
        assert not any(sp.incremental for sp in absolute)


class TestServerDenialWithDeltas:
    """A provider's delta under a negative server policy, end to end."""

    @pytest.mark.parametrize("drive", [DSMS.run, push_all],
                             ids=["run", "session"])
    def test_both_drivers_deliver(self, drive):
        dsms = DSMS()
        dsms.add_server_policy(SecurityPunctuation.deny(["B"], 0.0))
        dsms.register_stream(StreamSchema("s1", ("v",)), [
            grant(["A", "B"], 1.0), tup(1, 2.0), add(["C"], 3.0),
            tup(2, 4.0)])
        for role in ("A", "B", "C"):
            dsms.register_query(f"q{role}", ScanExpr("s1"), roles={role})
        results = drive(dsms)
        assert {name: [item.tid for item in result.tuples]
                for name, result in results.items()} \
            == {"qA": [1, 2], "qB": [], "qC": [2]}


class TestDeclarationAndWire:
    def test_cql_incremental_binding(self):
        sp = compile_statement(
            "INSERT SP INTO STREAM hr LET DDP = '*', SRP = 'E', "
            "INCREMENTAL = TRUE, TIMESTAMP = 3")
        assert sp.incremental
        assert sp.roles() == frozenset({"E"})

    def test_text_round_trip(self):
        sp = add(["E"], 3.0)
        assert "| INC>" in sp.to_text()
        back = SecurityPunctuation.parse(sp.to_text())
        assert back.incremental
        assert back.roles() == frozenset({"E"})

    def test_wire_round_trip(self):
        sp = retract(["ND"], 4.0)
        back = decode_element(encode_element(sp))
        assert back.incremental
        assert not back.is_positive
