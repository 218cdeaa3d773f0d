"""Tests for the store-and-probe and tuple-embedded baselines."""

from repro.baselines.store_and_probe import (PolicyTable,
                                             StoreAndProbeEnforcer,
                                             persistent_table_bytes)
from repro.baselines.tuple_embedded import (TupleEmbeddedEnforcer,
                                            embed_policies)
from repro.core.bitmap import RoleUniverse
from repro.core.patterns import literal, numeric_range
from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple


def grant(roles, ts, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def tup(tid, ts, sid="s1"):
    return DataTuple(sid, tid, {"v": tid}, ts)


class TestPolicyTable:
    def test_exact_tid_policy(self):
        table = PolicyTable()
        table.store(grant(["D"], 0.0, stream=literal("s1"),
                          tuple_id=literal(7)))
        assert table.probe(tup(7, 1.0)).roles == frozenset({"D"})
        assert table.probe(tup(8, 1.0)).is_empty()

    def test_pattern_policy_scanned(self):
        table = PolicyTable()
        table.store(grant(["GP"], 0.0, tuple_id=numeric_range(120, 133)))
        assert table.probe(tup(125, 1.0)).roles == frozenset({"GP"})
        assert table.probe(tup(200, 1.0)).is_empty()
        assert table.scan_steps > 0

    def test_override_by_newer_ts(self):
        table = PolicyTable()
        table.store(grant(["D"], 0.0))
        table.store(grant(["C"], 5.0))
        assert table.probe(tup(1, 6.0)).roles == frozenset({"C"})
        assert table.policy_count() == 1  # same DDP: replaced

    def test_same_ts_policies_union(self):
        table = PolicyTable()
        table.store(grant(["D"], 1.0, stream=literal("s1")))
        table.store(grant(["C"], 1.0, tuple_id=literal(1)))
        roles = table.probe(tup(1, 2.0)).roles
        assert roles == frozenset({"D", "C"})

    def test_update_counter(self):
        table = PolicyTable()
        table.store(grant(["D"], 0.0))
        table.store(grant(["D"], 1.0))
        assert table.updates == 2

    def test_persistent_size_is_page_granular(self):
        table = PolicyTable()
        empty = persistent_table_bytes(table)
        assert empty % 8192 == 0
        table.store(grant(["D"], 0.0))
        assert persistent_table_bytes(table) >= empty


class TestStoreAndProbeEnforcer:
    def test_enforcement(self):
        enforcer = StoreAndProbeEnforcer(["D"])
        elements = [grant(["D"], 0.0), tup(1, 1.0),
                    grant(["C"], 2.0), tup(2, 3.0)]
        out = list(enforcer.ingest(elements))
        assert [t.tid for t in out] == [1]
        assert enforcer.tuples_in == 2
        assert enforcer.tuples_out == 1


class TestTupleEmbedded:
    def test_each_tuple_gets_policy_copy(self):
        elements = [grant(["D", "ND"], 0.0), tup(1, 1.0), tup(2, 2.0)]
        embedded = list(embed_policies(elements))
        assert len(embedded) == 2
        assert all(pt.policy == frozenset({"D", "ND"})
                   for pt in embedded)
        # Copies, not shared objects — the architecture's redundancy.
        assert embedded[0].policy is not embedded[1].policy

    def test_batch_union_and_override(self):
        elements = [
            grant(["D"], 0.0), grant(["ND"], 0.0),  # one batch: union
            tup(1, 1.0),
            grant(["C"], 2.0),  # newer ts: override
            tup(2, 3.0),
        ]
        embedded = list(embed_policies(elements))
        assert embedded[0].policy == frozenset({"D", "ND"})
        assert embedded[1].policy == frozenset({"C"})

    def test_tuple_before_sp_gets_empty_policy(self):
        embedded = list(embed_policies([tup(1, 1.0)]))
        assert not embedded[0].policy

    def test_bitmap_mode(self):
        universe = RoleUniverse()
        elements = [grant(["D"], 0.0), tup(1, 1.0)]
        embedded = list(embed_policies(elements, universe=universe,
                                       bitmap=True))
        assert set(embedded[0].policy) == {"D"}
        assert type(embedded[0].policy).__name__ == "RoleBitmap"

    def test_enforcer(self):
        elements = [grant(["D"], 0.0), tup(1, 1.0),
                    grant(["C"], 2.0), tup(2, 3.0)]
        enforcer = TupleEmbeddedEnforcer(["C"])
        out = list(enforcer.ingest(embed_policies(elements)))
        assert [t.tid for t in out] == [2]
        assert enforcer.checks == 2


class TestMechanismAgreement:
    def test_all_three_agree(self):
        """The three enforcement mechanisms produce identical outputs."""
        from repro.operators.shield import SecurityShield

        elements = []
        ts = 0.0
        for segment in range(20):
            ts += 1.0
            roles = ["D"] if segment % 3 == 0 else ["C"]
            elements.append(grant(roles, ts))
            for item in range(5):
                ts += 1.0
                elements.append(tup(segment * 10 + item, ts))

        sp_out = []
        shield = SecurityShield(["D"])
        for element in elements:
            for out in shield.process(element):
                if isinstance(out, DataTuple):
                    sp_out.append(out.tid)

        sap = StoreAndProbeEnforcer(["D"])
        sap_out = [t.tid for t in sap.ingest(elements)]

        te = TupleEmbeddedEnforcer(["D"])
        te_out = [t.tid for t in te.ingest(embed_policies(elements))]

        assert sp_out == sap_out == te_out
        assert sp_out  # non-trivial
