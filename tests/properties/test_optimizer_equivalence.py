"""Property test: fully optimized plans deliver identical results.

Stronger than the one-step rule checks: the greedy optimizer may apply
many rewrites (shield pushes, select splits/pushdowns, commutes); the
final plan must still deliver exactly the original results on random
punctuated streams, for every role.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.cost import CostModel
from repro.algebra.expressions import (JoinExpr, ScanExpr, SelectExpr,
                                       ShieldExpr)
from repro.algebra.optimizer import Optimizer
from repro.algebra.rules import RewriteContext
from repro.algebra.statistics import StatisticsCatalog, StreamStatistics
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan
from repro.operators.conditions import And, Comparison
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple

from tests.properties.strategies import ROLE_POOL, punctuated_streams

SCHEMA_L = StreamSchema("left", ("key", "v"))
SCHEMA_R = StreamSchema("right", ("key", "v"))

CTX = RewriteContext(
    policy_streams=frozenset({"left", "right"}),
    # 'key' is on both sides: join-key conditions may not be pushed.
    schemas={"left": frozenset({"key", "v"}),
             "right": frozenset({"key", "v"})},
)


def make_optimizer() -> Optimizer:
    catalog = StatisticsCatalog(condition_selectivity=0.3)
    catalog.set_stream("left", StreamStatistics(tuple_rate=100.0,
                                                sp_rate=10.0))
    catalog.set_stream("right", StreamStatistics(tuple_rate=100.0,
                                                 sp_rate=10.0))
    return Optimizer(CostModel(catalog), CTX)


def run_delivered(expr, roles, left, right):
    plan = PhysicalPlan()
    sink = plan.compile_chain(
        expr, [SecurityShield(roles), CollectingSink()])[-1]
    Executor(plan).run(segment_feed([ListSource(SCHEMA_L, left),
                                     ListSource(SCHEMA_R, right)]))
    return sorted(t.tid for t in sink.operator.tuples()
                  if isinstance(t, DataTuple))


@st.composite
def shielded_join_plans(draw):
    roles = frozenset(draw(st.sets(st.sampled_from(ROLE_POOL),
                                   min_size=1, max_size=2)))
    thresholds = draw(st.lists(st.integers(0, 4), min_size=0, max_size=2))
    expr = JoinExpr(ScanExpr("left"), ScanExpr("right"),
                    "key", "key", 1000.0)
    if thresholds:
        conditions = [Comparison("v", ">=", t) for t in thresholds]
        condition = conditions[0] if len(conditions) == 1 \
            else And(conditions)
        expr = SelectExpr(expr, condition)
    return ShieldExpr(expr, roles), roles


class TestOptimizedPlansEquivalent:
    @given(shielded_join_plans(),
           punctuated_streams(max_segments=4, sid="left"),
           punctuated_streams(max_segments=4, sid="right"))
    @settings(max_examples=25, deadline=None)
    def test_greedy_optimum_delivers_same_results(self, plan_and_roles,
                                                  left, right):
        plan, roles = plan_and_roles
        optimizer = make_optimizer()
        optimized = optimizer.optimize(plan).plan
        baseline = run_delivered(plan, roles, left, right)
        rewritten = run_delivered(optimized, roles, left, right)

        def normalize(ids):
            # Rule 4 may mirror the join: compare orientation-free.
            return sorted(frozenset(pair) if isinstance(pair, tuple)
                          else pair for pair in ids)

        assert normalize(rewritten) == normalize(baseline)

    @given(shielded_join_plans())
    @settings(max_examples=25, deadline=None)
    def test_optimizer_never_increases_cost(self, plan_and_roles):
        plan, _ = plan_and_roles
        optimizer = make_optimizer()
        result = optimizer.optimize(plan)
        assert result.cost <= result.initial_cost + 1e-9
