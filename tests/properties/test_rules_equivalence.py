"""Property tests: Table II rewrites preserve query results.

For random punctuated streams and random plans, every one-step rewrite
reachable via the equivalence rules must compile to a physical plan
producing the same data tuples (policy metadata may be batched
differently, but visible results are identical).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (JoinExpr, ScanExpr, SelectExpr,
                                       ShieldExpr)
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan
from repro.operators.conditions import Comparison
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple

from tests.algebra.table2 import RewriteContext, equivalent_forms
from tests.properties.strategies import ROLE_POOL, punctuated_streams

SCHEMA_S = StreamSchema("s", ("key", "v"))
SCHEMA_L = StreamSchema("left", ("key", "v"))
SCHEMA_R = StreamSchema("right", ("key", "v"))

CTX = RewriteContext(policy_streams=frozenset({"s", "left", "right"}))


def run_plan(expr, sources):
    """Execute a plan and return its *delivered* results.

    Delivery applies the query's roles one final time (as the DSMS
    does): rewrites may change which policy-tagged results reach the
    plan root, but the results visible to the query's subjects must be
    identical.
    """
    from repro.operators.shield import SecurityShield

    roles = _root_roles(expr)
    plan = PhysicalPlan()
    delivery = SecurityShield(roles, name="delivery")
    sink = plan.compile_chain(expr, [delivery, CollectingSink()])[-1]
    Executor(plan).run(segment_feed(sources))
    return sorted(t.tid for t in sink.operator.tuples()
                  if isinstance(t, DataTuple))


def _root_roles(expr):
    """The union of shield roles in the plan (the query's roles)."""
    from repro.algebra.expressions import walk

    roles = set()
    for node in walk(expr):
        if isinstance(node, ShieldExpr):
            roles |= node.roles
    return frozenset(roles) or frozenset({"__none__"})


unary_plans = st.builds(
    lambda roles, threshold, shield_outside: (
        ShieldExpr(SelectExpr(ScanExpr("s"),
                              Comparison("v", ">=", threshold)),
                   frozenset(roles))
        if shield_outside else
        SelectExpr(ShieldExpr(ScanExpr("s"), frozenset(roles)),
                   Comparison("v", ">=", threshold))
    ),
    st.sets(st.sampled_from(ROLE_POOL), min_size=1, max_size=2),
    st.integers(0, 4),
    st.booleans(),
)


class TestUnaryRewrites:
    @given(punctuated_streams(), unary_plans)
    @settings(max_examples=40, deadline=None)
    def test_all_rewrites_equivalent(self, elements, plan):
        sources = [ListSource(SCHEMA_S, elements)]
        baseline = run_plan(plan, sources)
        for rewritten in equivalent_forms(plan, CTX):
            assert run_plan(rewritten,
                            [ListSource(SCHEMA_S, elements)]) == baseline


class TestJoinRewrites:
    @given(punctuated_streams(max_segments=4, sid="left"),
           punctuated_streams(max_segments=4, sid="right"),
           st.sets(st.sampled_from(ROLE_POOL), min_size=1, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_shield_push_over_join_equivalent(self, left, right, roles):
        plan = ShieldExpr(
            JoinExpr(ScanExpr("left"), ScanExpr("right"),
                     "key", "key", 1000.0),
            frozenset(roles))

        def sources():
            return [ListSource(SCHEMA_L, left), ListSource(SCHEMA_R, right)]

        baseline = run_plan(plan, sources())
        for rewritten in equivalent_forms(plan, CTX):
            result = run_plan(rewritten, sources())
            if _is_swap(rewritten):
                # Rule 4 swaps the inputs: tids come back mirrored.
                result = sorted((b, a) for a, b in result)
            assert result == baseline, rewritten


def _is_swap(expr) -> bool:
    """Whether the rewrite swapped join inputs (Rule 4)."""
    node = expr
    while isinstance(node, ShieldExpr):
        node = node.input
    if isinstance(node, JoinExpr):
        left = node.left
        while isinstance(left, ShieldExpr):
            left = left.input
        return isinstance(left, ScanExpr) and left.stream_id == "right"
    return False
