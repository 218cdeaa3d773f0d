"""Which UDF conditions the select rules may move (Table II proofs).

A UDF leaf is PROVEN only when it is a registered UDF
(:mod:`repro.operators.udfs`): the same callable, declaring at least
its registered read-set.  Every other ``FuncCondition`` is UNKNOWN, and
the guarded rules refuse to move it.
"""

from collections import Counter

import pytest

from repro.algebra.expressions import ScanExpr, SelectExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.operators.conditions import And, Comparison, FuncCondition, Not
from repro.operators.udfs import named_udf, registered_udfs, udf_entry
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from tests.algebra.table2 import (Proof, RewriteContext, condition_udfs,
                                  condition_verified, equivalent_forms,
                                  verify_declaration)


def reads_x(t):
    return t.get("x", 0) > 1


class TestDeclarations:
    def test_a_registered_udf_is_proven(self):
        assert verify_declaration(named_udf("in_region")) is Proof.PROVEN

    def test_a_narrower_declaration_is_refuted(self):
        entry = udf_entry("in_region")
        narrow = FuncCondition(entry.fn, ("x",), label="narrow")
        assert verify_declaration(narrow) is Proof.REFUTED

    def test_an_ad_hoc_udf_is_unknown(self):
        declared = FuncCondition(reads_x, ("x",), label="ad-hoc")
        assert verify_declaration(declared) is Proof.UNKNOWN


class TestConditionVerified:
    def test_udf_free_condition_is_proven(self):
        cond = And([Comparison("x", ">", 1), Not(Comparison("y", "<", 2))])
        assert condition_verified(cond) is Proof.PROVEN

    def test_registered_udfs_all_prove(self):
        assert registered_udfs()
        for name in registered_udfs():
            assert condition_verified(named_udf(name)) is Proof.PROVEN, name

    def test_meet_over_leaves(self):
        proven = named_udf("fast_mover")
        narrow = FuncCondition(udf_entry("in_region").fn, ("x",),
                               label="narrow")
        ad_hoc = FuncCondition(reads_x, ("x",), label="ad-hoc")
        assert condition_verified(
            And([proven, Comparison("y", ">", 0)])) is Proof.PROVEN
        assert condition_verified(And([proven, narrow])) is Proof.REFUTED
        assert condition_verified(Not(ad_hoc)) is Proof.UNKNOWN
        assert condition_udfs(And([proven, Not(ad_hoc)])) == [proven,
                                                               ad_hoc]


CTX = RewriteContext(policy_streams=frozenset({"cars"}))


def _root(cond):
    return ShieldExpr(SelectExpr(ScanExpr("cars"), cond),
                      (frozenset({"police"}),))


def _select_pushed(forms):
    shown = [repr(f) for f in forms]
    return any(f.index("σ") < f.index("ψ")
               for f in shown if "σ" in f and "ψ" in f)


class TestRewriteFlip:
    def test_proven_udf_passes_commute_select_shield(self):
        assert _select_pushed(equivalent_forms(_root(named_udf("in_region")),
                                               CTX))

    def test_unproven_udf_refuses_commute_select_shield(self):
        ad_hoc = FuncCondition(reads_x, ("x",), label="ad-hoc")
        narrow = FuncCondition(udf_entry("in_region").fn, ("x",),
                               label="narrow")
        for cond in (ad_hoc, narrow):
            assert not _select_pushed(equivalent_forms(_root(cond), CTX))


def _cars():
    """Policy-churning cars whose values cross both UDF boundaries."""
    elements = [SecurityPunctuation.grant(["police"], 0.0, provider="cars")]
    for i in range(48):
        elements.append(DataTuple(
            "cars", i, {"x": 150.0 + 17.0 * i, "y": 420.0 + (i * 53) % 260,
                        "speed": 30.0 + (i * 7) % 80}, 1.0 + i))
        if i % 16 == 15:
            roles = ["dispatch"] if (i // 16) % 2 == 0 else ["police"]
            elements.append(SecurityPunctuation.grant(roles, 1.5 + i,
                                                      provider="cars"))
    return elements


def _delivered(expr):
    dsms = DSMS()
    dsms.register_stream(StreamSchema("cars", ("x", "y", "speed")), _cars())
    dsms.register_query("q", expr, roles={"police"})
    return Counter(t.tid for t in dsms.run()["q"].tuples)


@pytest.mark.parametrize("name", ["in_region", "fast_mover"])
def test_a_proven_udf_commute_delivers_the_same(name):
    root = _root(named_udf(name))
    forms = [f for f in equivalent_forms(root, CTX) if f != root]
    assert _select_pushed(forms)
    expected = _delivered(root)
    assert 0 < sum(expected.values()) < 48
    for form in forms:
        assert _delivered(form) == expected, form
