"""A tour of security-aware query optimization (paper Section VI).

Starts from the naive plan — a Security Shield sitting on top of an
expensive sliding-window join — and lets the optimizer interleave the
shield using the Table II equivalence rules and the Section VI.A cost
model.  Then verifies on a real workload that both plans deliver the
same results while the optimized plan does measurably less work.

Run::

    python examples/optimizer_tour.py
"""

from __future__ import annotations

from repro.algebra.cost import CostModel
from repro.algebra.expressions import JoinExpr, ScanExpr, ShieldExpr
from repro.algebra.optimizer import Optimizer
from repro.algebra.rules import RewriteContext
from repro.algebra.statistics import StatisticsCatalog, StreamStatistics
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan
from repro.operators.join import SAJoinBase
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.source import ListSource
from repro.workloads.synthetic import join_streams


def build_catalog() -> StatisticsCatalog:
    catalog = StatisticsCatalog(sp_compatibility=0.3)
    catalog.set_stream("left", StreamStatistics(
        tuple_rate=100.0, sp_rate=10.0, roles_per_sp=1.0,
        role_universe_size=4))
    catalog.set_stream("right", StreamStatistics(
        tuple_rate=100.0, sp_rate=10.0, roles_per_sp=1.0,
        role_universe_size=4))
    return catalog


def run_physical(expr, left, right, left_schema, right_schema):
    plan = PhysicalPlan()
    sink = plan.compile_expr(expr, CollectingSink())
    Executor(plan).run(segment_feed([ListSource(left_schema, left),
                                     ListSource(right_schema, right)]))
    joins = plan.find_operators(SAJoinBase)
    pairs_checked = sum(j.pairs_checked for j in joins)
    return sink.operator.tuples(), pairs_checked


def main() -> None:
    # The naive plan: enforce access control after the join.  The
    # nested-loop SAJoin makes the effect visible in raw pair counts —
    # the index SAJoin's SPIndex already skips policy-incompatible
    # segments internally, so it profits less from shield push-down
    # (exactly the interplay the Section VI cost model captures).
    naive = ShieldExpr(
        JoinExpr(ScanExpr("left"), ScanExpr("right"), "key", "key",
                 window=300.0, variant="nl"),
        frozenset({"shared"}),
    )
    print("Naive plan:     ", naive)

    catalog = build_catalog()
    optimizer = Optimizer(
        CostModel(catalog),
        RewriteContext(policy_streams=frozenset({"left", "right"})),
    )
    result = optimizer.optimize(naive)
    print("Optimized plan: ", result.plan)
    print(f"Estimated cost:  {result.initial_cost:,.0f} -> "
          f"{result.cost:,.0f}  ({result.improvement:.0%} cheaper, "
          f"{result.steps} rewrite steps)")

    # Validate on a real workload: half the policies are compatible
    # with the query's role, so pushing the shield below the join
    # halves the tuples entering the join windows.
    left, right, ls, rs = join_streams(
        1200, tuples_per_sp=10, compatibility=0.5, match_fraction=0.15,
        seed=5)
    naive_tuples, naive_pairs = run_physical(naive, left, right, ls, rs)
    opt_tuples, opt_pairs = run_physical(result.plan, left, right, ls, rs)

    print(f"\nJoin pairs checked:  naive={naive_pairs:,}  "
          f"optimized={opt_pairs:,}")
    print(f"Results delivered:   naive={len(naive_tuples)}  "
          f"optimized={len(opt_tuples)}")

    naive_ids = sorted(t.tid for t in naive_tuples)
    opt_ids = sorted(t.tid for t in opt_tuples)
    assert opt_ids == naive_ids, "rewrites must preserve results"
    assert opt_pairs < naive_pairs, "pushed-down shield must cut work"
    print("\nOK: same answers, strictly less join work — the security "
          "shield acted as a pushed-down predicate.")


if __name__ == "__main__":
    main()
