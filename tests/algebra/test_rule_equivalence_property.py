"""Property test: Table II rewrites preserve engine delivery semantics.

For a set of scenarios (handcrafted to guarantee coverage of all five
SS rule families, plus a slice of generated ones) every single-rule
rewrite that the engine's strict :class:`RewriteContext` admits must
produce the same delivered multiset as the original plan.  Rewrites the
context *refuses* are checked the other way: the δ/ψ, G/ψ and join-
associativity guards must actually be active, and the documented
join-associativity counterexample must really diverge when the guard
is lifted — the guards exist because the differ (or analysis during
its construction) proved the unguarded rewrites unsound.
"""

from collections import Counter

import pytest

from repro.algebra.expressions import JoinExpr, ScanExpr, ShieldExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple
from repro.verify.differ import _decode_sink, expr_from_spec
from repro.verify.generator import generate_scenario
from tests.algebra.table2 import (ALL_RULES, AssociateJoin,
                                  CommuteDupElimShield, CommuteGroupByShield,
                                  RewriteContext, apply_at)

#: Table II rule families, by rule name.
FAMILIES = {
    "split-shield": 1, "merge-shields": 1, "commute-shields": 1,
    "commute-select-shield": 2, "commute-project-shield": 2,
    "commute-dupelim-shield": 2, "commute-groupby-shield": 2,
    "push-shield-binary": 3, "pull-shield-binary": 3,
    "commute-binary-inputs": 4,
    "associate-join": 5,
}


def strict_context(scenario):
    return RewriteContext(
        policy_streams=frozenset(scenario.streams),
        attribute_policies_possible=True,
        heterogeneous_policies_possible=True,
        strict_join_windows=True,
        schemas={sid: tuple(spec["attributes"])
                 for sid, spec in scenario.streams.items()})


def run_expr(scenario, expr, roles):
    dsms = DSMS()
    for sid, spec in scenario.streams.items():
        dsms.register_stream(StreamSchema(sid, tuple(spec["attributes"])),
                             scenario.decoded()[sid])
    dsms.register_query("q", expr, roles=frozenset(roles))
    results = dsms.run()
    return _decode_sink(results["q"].elements)


def rewrites(root, ctx):
    """(rule name, rewritten plan) for every admissible application."""
    out = []

    def visit(expr, path):
        for rule in ALL_RULES:
            if rule.matches(expr, ctx):
                out.append((rule.name, apply_at(root, path, rule, ctx)))
        for index, child in enumerate(expr.children()):
            visit(child, path + (index,))

    visit(root, ())
    return out


def coverage_scenarios():
    """Handcrafted scenarios whose plans trigger every rule family."""
    from repro.verify.generator import Scenario
    from repro.stream.wire import encode_element

    def stream(sid, attrs, elements):
        return {"attributes": list(attrs),
                "elements": [encode_element(e) for e in elements]}

    def feed(sid, k_values, roles_by_segment, attrs=("a", "k")):
        elements = []
        ts = 0.0
        tid = 0
        for roles, ks in zip(roles_by_segment, k_values):
            elements.append(SecurityPunctuation.grant(
                roles, ts, provider=sid))
            for k in ks:
                ts += 1.0
                elements.append(DataTuple(
                    sid, tid, {attrs[0]: tid, attrs[1]: k}, ts))
                tid += 1
            ts += 1.0
        return elements

    s0 = stream("s0", ("a", "k"),
                feed("s0", [[1, 2], [1, 3]], [["R1", "R2"], ["R2"]]))
    s1 = stream("s1", ("b", "j"),
                feed("s1", [[1, 1], [2, 3]], [["R1", "R2"], ["R1"]],
                     attrs=("b", "j")))

    shield2 = {"op": "shield", "predicates": [["R1", "R2"], ["R1", "R3"]]}
    scenarios = []

    # family 1 (split/merge/commute) + family 2 (select/project commute)
    scenarios.append(("unary", Scenario(
        seed=0, index=0, shape="custom", knobs={},
        streams={"s0": s0},
        queries={"q": {"roles": ["R1"], "plan": {
            **shield2,
            "input": {"op": "select",
                      "input": {"op": "shield",
                                "predicates": [["R1", "R2"]],
                                "input": {"op": "project",
                                          "input": {"op": "scan",
                                                    "stream": "s0"},
                                          "attributes": ["a", "k"]}},
                      "condition": {"attribute": "k", "op": "<",
                                    "value": 3}}}}})))

    # family 3 (push/pull around a join) + family 4 (commute inputs)
    scenarios.append(("join", Scenario(
        seed=0, index=1, shape="custom", knobs={},
        streams={"s0": s0, "s1": s1},
        queries={"q": {"roles": ["R1"], "plan": {
            "op": "shield", "predicates": [["R1", "R2"]],
            "input": {"op": "join",
                      "left": {"op": "shield", "predicates": [["R1", "R4"]],
                               "input": {"op": "scan", "stream": "s0"}},
                      "right": {"op": "scan", "stream": "s1"},
                      "left_on": "k", "right_on": "j",
                      "window": 50.0}}}})))
    return scenarios


class TestAdmittedRewritesAreEquivalent:
    @pytest.mark.parametrize("label,scenario", coverage_scenarios(),
                             ids=[l for l, _ in coverage_scenarios()])
    def test_handcrafted_coverage(self, label, scenario):
        ctx = strict_context(scenario)
        query = scenario.queries["q"]
        root = expr_from_spec(query["plan"])
        baseline = run_expr(scenario, root, query["roles"])
        applied = rewrites(root, ctx)
        assert applied, "no rule applied — coverage scenario is dead"
        families = set()
        for name, rewritten in applied:
            families.add(FAMILIES[name])
            got = run_expr(scenario, rewritten, query["roles"])
            assert got == baseline, (
                f"{name} changed delivery: {rewritten!r}")
        if label == "unary":
            assert {1, 2} <= families
        else:
            assert {3, 4} <= families

    def test_generated_scenarios(self):
        checked = 0
        for index in range(10):
            scenario = generate_scenario(31, index)
            ctx = strict_context(scenario)
            for query in scenario.queries.values():
                root = expr_from_spec(query["plan"])
                baseline = run_expr(scenario, root, query["roles"])
                for name, rewritten in rewrites(root, ctx)[:6]:
                    got = run_expr(scenario, rewritten, query["roles"])
                    assert got == baseline, f"{name} changed delivery"
                    checked += 1
        assert checked >= 5


class TestGuards:
    def make_ctx(self, **kw):
        return RewriteContext(policy_streams=frozenset({"s"}), **kw)

    def test_stateful_commutes_refused_when_heterogeneous(self):
        from repro.algebra.expressions import DupElimExpr, GroupByExpr
        shield_over_dupelim = ShieldExpr(
            DupElimExpr(ScanExpr("s"), 10.0, ("a",)), frozenset({"R1"}))
        shield_over_groupby = ShieldExpr(
            GroupByExpr(ScanExpr("s"), None, "sum", "a", 10.0),
            frozenset({"R1"}))
        strict = self.make_ctx(heterogeneous_policies_possible=True)
        unknown = self.make_ctx()  # default: hazard unproven
        relaxed = self.make_ctx(heterogeneous_policies_possible=False)
        assert not CommuteDupElimShield().matches(shield_over_dupelim, strict)
        assert not CommuteGroupByShield().matches(shield_over_groupby, strict)
        # Fail-closed: an unknown precondition refuses like a proven one.
        assert not CommuteDupElimShield().matches(shield_over_dupelim,
                                                  unknown)
        assert not CommuteGroupByShield().matches(shield_over_groupby,
                                                  unknown)
        assert CommuteDupElimShield().matches(shield_over_dupelim, relaxed)
        assert CommuteGroupByShield().matches(shield_over_groupby, relaxed)

    def test_dupelim_commute_sound_on_uniform_policies(self):
        # The guard is about *heterogeneous* segments; with one policy
        # for the whole stream the commute is exact, and applying it
        # manually (guard lifted) must preserve engine output.
        from repro.algebra.expressions import DupElimExpr
        from repro.verify.generator import Scenario
        from repro.stream.wire import encode_element

        elements = [SecurityPunctuation.grant(["R1", "R2"], 0.0,
                                              provider="s")]
        for tid, a in enumerate([5, 5, 7, 5]):
            elements.append(DataTuple("s", tid, {"a": a}, 1.0 + tid))
        scenario = Scenario(
            seed=0, index=0, shape="custom", knobs={},
            streams={"s": {"attributes": ["a"],
                           "elements": [encode_element(e)
                                        for e in elements]}},
            queries={})
        root = ShieldExpr(DupElimExpr(ScanExpr("s"), 50.0, ("a",)),
                          frozenset({"R1"}))
        ctx = self.make_ctx(heterogeneous_policies_possible=False)
        rewritten = CommuteDupElimShield().apply(root, ctx)
        assert run_expr(scenario, rewritten, ["R1"]) \
            == run_expr(scenario, root, ["R1"])

    def test_associate_join_refused_with_strict_windows(self):
        expr = JoinExpr(JoinExpr(ScanExpr("a"), ScanExpr("b"),
                                 "k", "k", 6.0),
                        ScanExpr("c"), "k", "k", 6.0)
        assert not AssociateJoin().matches(
            expr, self.make_ctx(strict_join_windows=True))
        # Fail-closed: the default (unknown) context refuses too.
        assert not AssociateJoin().matches(expr, self.make_ctx())
        assert AssociateJoin().matches(
            expr, self.make_ctx(strict_join_windows=False))

    def test_associate_join_counterexample_diverges(self):
        # ta=0, tb=5, tc=9, w=6: (a⋈b) joins (|5-0|<6) and the result
        # (ts 5) joins c (|9-5|<6); but b⋈c joins first (|9-5|<6) with
        # ts 9, and a can no longer reach it (|9-0|≥6).  Re-association
        # therefore changes the delivered set — why the guard exists.
        from repro.verify.generator import Scenario
        from repro.stream.wire import encode_element

        def stream(sid, ts):
            return {"attributes": ["k"], "elements": [
                encode_element(SecurityPunctuation.grant(
                    ["R1"], ts - 0.5, provider=sid)),
                encode_element(DataTuple(sid, 0, {"k": 1}, ts)),
            ]}

        scenario = Scenario(
            seed=0, index=0, shape="custom", knobs={},
            streams={"a": stream("a", 0.0), "b": stream("b", 5.0),
                     "c": stream("c", 9.0)},
            queries={})
        left_deep = JoinExpr(
            JoinExpr(ScanExpr("a"), ScanExpr("b"), "k", "k", 6.0),
            ScanExpr("c"), "k", "k", 6.0)
        ctx = self.make_ctx(strict_join_windows=False)  # guard lifted
        right_deep = AssociateJoin().apply(left_deep, ctx)
        got_left = run_expr(scenario, left_deep, ["R1"])
        got_right = run_expr(scenario, right_deep, ["R1"])
        assert sum(got_left.values()) == 1
        assert sum(got_right.values()) == 0
