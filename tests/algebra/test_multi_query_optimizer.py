"""Tests for Section VI.C multi-query (workload) optimization."""

import pytest

from repro.algebra.cost import CostModel
from repro.algebra.expressions import (JoinExpr, ScanExpr, SelectExpr,
                                       ShieldExpr)
from repro.algebra.optimizer import Optimizer
from repro.algebra.rules import RewriteContext
from repro.algebra.statistics import StatisticsCatalog, StreamStatistics
from repro.operators.conditions import Comparison

COND = Comparison("v", ">", 1)


def catalog() -> StatisticsCatalog:
    cat = StatisticsCatalog()
    cat.set_stream("a", StreamStatistics(tuple_rate=100.0, sp_rate=10.0,
                                         role_universe_size=10))
    cat.set_stream("b", StreamStatistics(tuple_rate=80.0, sp_rate=8.0,
                                         role_universe_size=10))
    return cat


def optimizer() -> Optimizer:
    return Optimizer(CostModel(catalog()),
                     RewriteContext(policy_streams=frozenset({"a", "b"})))


class TestWorkloadCost:
    def test_shared_subplans_counted_once(self):
        model = CostModel(catalog())
        shared = SelectExpr(ScanExpr("a"), COND)
        q1 = ShieldExpr(shared, frozenset({"r1"}))
        q2 = ShieldExpr(shared, frozenset({"r2"}))
        both = model.workload_cost([q1, q2])
        alone = model.cost(q1).total + model.cost(q2).total
        assert both < alone
        # Exactly one select cost is saved.
        select_cost = model.cost(shared).total
        assert both == pytest.approx(alone - select_cost)

    def test_disjoint_plans_add_up(self):
        model = CostModel(catalog())
        q1 = SelectExpr(ScanExpr("a"), COND)
        q2 = SelectExpr(ScanExpr("b"), COND)
        assert model.workload_cost([q1, q2]) == pytest.approx(
            model.cost(q1).total + model.cost(q2).total)

    def test_identical_plans_cost_once(self):
        model = CostModel(catalog())
        q = ShieldExpr(SelectExpr(ScanExpr("a"), COND), frozenset({"r"}))
        assert model.workload_cost([q, q]) == pytest.approx(
            model.cost(q).total)


class TestWorkloadOptimization:
    def test_sharing_kept_when_shields_are_not_selective(self):
        """Many queries with *loose* access rights over one expensive
        join: pushing shields down barely shrinks the join inputs but
        duplicates the join per query, so the workload optimizer must
        keep the per-query shields above the shared join (the paper's
        merge-at-the-beginning/split-at-the-end layout)."""
        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 2.0)
        # Each query holds 8 of the 10 roles: security selectivity ≈ 1.
        queries = [
            ShieldExpr(join, frozenset(
                f"r{j}" for j in range(10) if j != i and j != i + 1))
            for i in range(0, 6)
        ]
        result = optimizer().optimize_workload(queries)
        assert result.cost <= result.independent_cost + 1e-9
        shared_joins = {plan.input for plan in result.plans
                        if isinstance(plan, ShieldExpr)
                        and isinstance(plan.input, JoinExpr)}
        assert len(shared_joins) == 1

    def test_pushdown_chosen_when_shields_are_selective(self):
        """The converse regime: one-role shields cut the join inputs by
        ~5x each, so per-query pushed-down joins beat one shared join
        even though nothing is shared."""
        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 2.0)
        queries = [ShieldExpr(join, frozenset({f"r{i}"}))
                   for i in range(6)]
        result = optimizer().optimize_workload(queries)
        assert result.cost <= result.independent_cost + 1e-9
        # The chosen plans pushed their shields below the join.
        assert all(isinstance(plan, JoinExpr) for plan in result.plans)

    def test_single_query_falls_back_to_individual(self):
        """With nothing to share, the individually optimized plan wins."""
        plan = ShieldExpr(
            JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 2.0),
            frozenset({"r1"}))
        result = optimizer().optimize_workload([plan])
        single = optimizer().optimize(plan)
        assert result.cost == pytest.approx(single.cost)
        assert result.plans[0] == single.plan

    def test_workload_never_worse_than_either_extreme(self):
        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 2.0)
        queries = [ShieldExpr(join, frozenset({f"r{i}"}))
                   for i in range(3)]
        opt = optimizer()
        result = opt.optimize_workload(queries)
        all_shared = opt.cost_model.workload_cost(queries)
        assert result.cost <= all_shared + 1e-9
        assert result.cost <= result.independent_cost + 1e-9

    def test_end_to_end_shared_execution(self):
        """Workload-chosen plans actually share operators in the engine
        and produce per-query-correct results."""
        from repro.core.punctuation import SecurityPunctuation
        from repro.engine.executor import Executor
        from repro.engine.plan import PhysicalPlan
        from repro.operators.join import SAJoinBase
        from repro.operators.sink import CollectingSink
        from repro.stream.batch import segment_feed
        from repro.stream.schema import StreamSchema
        from repro.stream.source import ListSource
        from repro.stream.tuples import DataTuple

        join = JoinExpr(ScanExpr("a"), ScanExpr("b"), "x", "x", 100.0)
        queries = [ShieldExpr(join, frozenset({"r1"})),
                   ShieldExpr(join, frozenset({"r2"})),
                   ShieldExpr(join, frozenset({"r3"}))]
        result = optimizer().optimize_workload(queries)

        plan = PhysicalPlan()
        sinks = [plan.compile_expr(p, CollectingSink())
                 for p in result.plans]
        if len({id(op) for op in plan.find_operators(SAJoinBase)}) == 1:
            # Sharing chosen: single join instance.
            pass
        elements_a = [SecurityPunctuation.grant(["r1", "r2"], 0.0),
                      DataTuple("a", 1, {"x": 5}, 1.0)]
        elements_b = [SecurityPunctuation.grant(["r1"], 0.0),
                      DataTuple("b", 2, {"x": 5}, 2.0)]
        Executor(plan).run(segment_feed([
            ListSource(StreamSchema("a", ("x",)), elements_a),
            ListSource(StreamSchema("b", ("x",)), elements_b),
        ]))
        outs = [[t.tid for t in sink.operator.tuples()] for sink in sinks]
        assert outs[0] == [(1, 2)]   # r1 compatible on both sides
        assert outs[1] == []         # r2 missing on b
        assert outs[2] == []         # r3 nowhere
