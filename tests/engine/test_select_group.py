"""Sibling selections served by one executor hop.

A stream's entry selects that keep ``attr <op> c`` on one attribute
with one ordering op form a :class:`~repro.engine.plan.SelectGroup`: a
run is read once and bisected against the members' sorted constants.
Whatever the values — ints, floats, ``-0.0``, infinities, huge ints,
bools, ``None``, NaN, strings, a missing attribute — every query must
deliver, and its select must count, exactly what the same query does
registered alone (no sibling, so no group), under ``run()``, under an
element-wise session and under arbitrary run cuts.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan, SelectGroup
from repro.operators.conditions import And, Comparison, FuncCondition
from repro.operators.select import Select
from repro.operators.sink import CollectingSink
from repro.stream.batch import TupleBatch, segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple

from tests.drive import push_all

SCHEMA = StreamSchema("s", ("v", "w"))
#: A tuple without ``v``.
MISSING = "missing"
CONSTANTS = [-1, 0, 1, 2, 0.0, -0.0, 1.5, 2.0, math.inf, -math.inf, 10**30]
VALUES = CONSTANTS + [True, False, None, math.nan, "a", 10**40, -(10**40),
                      0.5, MISSING]
OPS = ["<", "<=", ">", ">="]

members = st.lists(st.tuples(st.sampled_from(OPS),
                             st.sampled_from(CONSTANTS)),
                   min_size=2, max_size=8)
#: An sp-batch's grants: one to three sps, one timestamp.
grants = st.lists(st.sampled_from([("D",), ("N",), ("D", "N")]),
                  min_size=1, max_size=3)
#: Segments: the sp-batch's grants and the segment's ``v`` values,
#: sometimes followed by a trailing segment of sps only.
segments = st.builds(
    lambda body, tail: body + tail,
    st.lists(st.tuples(grants, st.lists(st.sampled_from(VALUES),
                                        max_size=6)),
             min_size=1, max_size=6),
    st.lists(st.tuples(grants, st.just([])), max_size=1))


def stream(spec) -> list:
    elements, ts, tid = [], 0.0, 0
    for grants, values in spec:
        ts += 1.0
        elements.extend(SecurityPunctuation.grant(roles, ts)
                        for roles in grants)
        for value in values:
            ts += 1.0
            elements.append(DataTuple(
                "s", tid, {"w": 0} if value is MISSING else {"v": value},
                ts))
            tid += 1
    return elements


def new_dsms(elements, queries) -> DSMS:
    dsms = DSMS()
    dsms.register_stream(SCHEMA, elements)
    for name, (op, value) in queries:
        dsms.register_query(
            name, ScanExpr("s").select(Comparison("v", op, value)),
            roles={"D"})
    return dsms


def cut_runs(elements, rng) -> list:
    """The feed with each segment's tuples cut into random runs."""
    feed, run = [], []

    def close():
        if run:
            feed.append(("s", run[0] if len(run) == 1
                         else TupleBatch(list(run))))
            run.clear()

    for element in elements:
        if isinstance(element, DataTuple):
            if rng.random() < 0.3:
                close()
            run.append(element)
        else:
            close()
            feed.append(("s", element))
    close()
    return feed


def drive(elements, queries, how, seed):
    """Delivered elements per query, and the plan that delivered them."""
    dsms = new_dsms(elements, queries)
    if how == "run":
        results = {name: r.elements for name, r in dsms.run().items()}
    elif how == "session":
        results = {name: r.elements for name, r in push_all(dsms).items()}
    else:
        plan, sinks = dsms.build_plan()
        Executor(plan).run(cut_runs(elements, random.Random(seed)))
        results = {name: sink.elements for name, sink in sinks.items()}
    return results, dsms._live_plan


def select_counts(plan, name) -> tuple:
    """The counters of the select feeding query ``name``'s sink."""
    parent = {id(child.operator): node
              for node in plan.nodes for child, _ in node.downstream}
    node = next(node for node in plan.nodes
                if node.operator.name == f"sink:{name}")
    while type(node.operator) is not Select:
        node = parent[id(node.operator)]
    op, stats = node.operator, node.operator.stats
    return (stats.tuples_in, stats.tuples_out, stats.sps_in, stats.sps_out,
            stats.comparisons, op.tuples_dropped, op.sps_discarded)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(members=members, spec=segments, seed=st.integers(0, 2**16))
def test_every_member_answers_as_it_does_alone(members, spec, seed):
    elements = stream(spec)
    queries = [(f"q{i}", member) for i, member in enumerate(members)]
    for how in ("run", "session", "cuts"):
        grouped, plan = drive(elements, queries, how, seed)
        for name, member in queries:
            alone, alone_plan = drive(elements, [(name, member)], how, seed)
            assert grouped[name] == alone[name], (how, name, member)
            assert (select_counts(plan, name)
                    == select_counts(alone_plan, name)), (how, name, member)


def reported_counts(elements, queries, how, seed, at) -> list[dict]:
    """Each query's select counters, read after a report taken before
    the feed item (a push, a segment run or a random cut) at fraction
    ``at`` of the feed and again after the end (a session's: after
    ``close()``, then after a report): a report and the end of the feed
    settle the group's rejected runs."""
    dsms = new_dsms(elements, queries)
    seen = []

    def read(plan):
        seen.append({name: select_counts(plan, name) for name, _ in queries})

    if how == "session":
        session = dsms.open_session()
        point = int(at * len(elements))
        for index, element in enumerate(elements):
            if index == point:
                session.report()
                read(session._plan)
            session.push("s", element)
        session.close()
        read(session._plan)
        session.report()
        read(session._plan)
        return seen
    plan, _ = dsms.build_plan()
    executor = Executor(plan)
    feed = (list(segment_feed([ListSource(SCHEMA, elements)]))
            if how == "run" else cut_runs(elements, random.Random(seed)))
    point = int(at * len(feed))

    def reporting():
        for index, item in enumerate(feed):
            if index == point:
                executor.stage_stats()
                read(plan)
            yield item

    executor.run(reporting())
    read(plan)
    return seen


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(members=members, spec=segments, seed=st.integers(0, 2**16),
       at=st.floats(0, 1, exclude_max=True))
def test_a_report_mid_feed_counts_as_each_member_alone(members, spec, seed,
                                                       at):
    elements = stream(spec)
    queries = [(f"q{i}", member) for i, member in enumerate(members)]
    for how in ("run", "session", "cuts"):
        grouped = reported_counts(elements, queries, how, seed, at)
        for name, member in queries:
            alone = reported_counts(elements, [(name, member)], how, seed, at)
            assert ([counts[name] for counts in grouped]
                    == [counts[name] for counts in alone]), (how, name, member)


def entry_hops(*conditions) -> tuple:
    plan = PhysicalPlan()
    for condition in conditions:
        select = plan.add(Select(condition))
        plan.connect(select, plan.add(CollectingSink()))
        plan.connect_source("s", select)
    return plan.push_sites()["s"]


def test_groups_form_per_attribute_and_op():
    hops, serial = entry_hops(
        Comparison("v", ">", 1), Comparison("w", ">", 1),
        Comparison("v", "<", 1), Comparison("v", ">", 2.5),
        Comparison("w", ">", -math.inf), Comparison("v", "<", 10**30))
    assert not serial
    groups = [hop for hop in hops if type(hop) is SelectGroup]
    assert [len(group.nodes) for group in groups] == [2, 2, 2]
    # Each group sits where its first member was, members in plan order.
    assert [group.attribute for group in groups] == ["v", "w", "v"]
    assert [c.value for c in (s.condition for s in groups[0].selects)] == [
        1, 2.5]


def test_only_indexable_comparisons_join_a_group():
    """A UDF, ``=``/``!=``, an rhs attribute, a non-number constant
    (``str``, ``bool``, NaN, ``None``) or a composite condition stays an
    ordinary entry target."""

    class Lone(Select):
        pass

    plain = [
        FuncCondition(lambda t: True, ["v"], label="udf"),
        Comparison("v", "=", 1), Comparison("v", "!=", 1),
        Comparison("v", "==", 1), Comparison("v", "<>", 1),
        Comparison("v", ">", "w", rhs_attribute=True),
        Comparison("v", ">", "a"), Comparison("v", ">", True),
        Comparison("v", ">", math.nan), Comparison("v", ">", None),
        And([Comparison("v", ">", 1), Comparison("v", ">", 2)]),
    ]
    for condition in plain:
        hops, _ = entry_hops(condition, condition)
        assert not any(type(hop) is SelectGroup for hop in hops), condition
    plan = PhysicalPlan()
    for select in (Lone(Comparison("v", ">", 1)),
                   Lone(Comparison("v", ">", 2))):
        node = plan.add(select)
        plan.connect_source("s", node)
    hops, _ = plan.push_sites()["s"]
    assert len(hops) == 2 and not any(
        type(hop) is SelectGroup for hop in hops)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("value", VALUES, ids=repr)
@settings(max_examples=15, deadline=None)
@given(constants=st.lists(st.sampled_from(CONSTANTS), min_size=2,
                          max_size=8))
def test_a_run_of_one_passes_what_the_general_path_passes(op, value,
                                                         constants):
    """A run of one int or non-NaN float is one bisection into the
    precomputed passers of its prefix (``None``: the whole run); any
    other value takes the general path.  Either way a run of one passes
    what the same tuple twice passes, each passer's first copy, and
    what each member's own condition passes."""
    (group,), _ = entry_hops(*(Comparison("v", op, c) for c in constants))
    item = DataTuple("s", 0, {"w": 0} if value is MISSING else {"v": value},
                     1.0)
    one = [(index, [item] if tuples is None else tuples)
           for index, tuples in group.passing([item])]
    assert one == [(index, tuples[:1])
                   for index, tuples in group.passing([item, item])]
    assert one == [(index, passed) for index, select
                   in enumerate(group.selects)
                   if (passed := select.condition.filter([item]))]


def test_a_lone_select_is_no_group():
    hops, _ = entry_hops(Comparison("v", ">", 1))
    assert [type(hop) for hop in hops] == [tuple]


class Lone(Select):
    """Behaves as a ``Select``; its exact type keeps it out of groups."""


#: Hops straight into a stream's entry, past its gate: an sp, a run of
#: ``v`` values, or a report — in any order, so sps may follow a report
#: or another sp's report, and runs may follow runs.
hops = st.lists(st.one_of(
    st.just(("sp",)), st.just(("report",)),
    st.tuples(st.just("run"), st.lists(st.sampled_from(VALUES), min_size=1,
                                       max_size=4))), max_size=24)


def hop_counts(kind, members, script) -> list:
    """Drive ``script`` into one ``kind`` select per member, each with
    a sink; per report and after the flush, each select's counters and
    its sink's elements."""
    plan, selects, sinks = PhysicalPlan(), [], []
    for op, value in members:
        select = kind(Comparison("v", op, value))
        node = plan.add(select)
        plan.connect_source("s", node)
        sink = CollectingSink()
        plan.connect(node, plan.add(sink))
        selects.append(select)
        sinks.append(sink)
    executor = Executor(plan)
    (targets, serial, _), seen, tid = executor._sites["s"], [], 0

    def read():
        executor.stage_stats()
        seen.append([(s.stats.tuples_in, s.stats.tuples_out, s.stats.sps_in,
                      s.stats.sps_out, s.stats.comparisons, s.tuples_dropped,
                      s.sps_discarded, list(sink.elements))
                     for s, sink in zip(selects, sinks)])

    for step in script:
        if step[0] == "sp":
            executor._push(targets, serial,
                           SecurityPunctuation.grant(["D"], float(tid)))
        elif step[0] == "run":
            run = [DataTuple("s", tid + i, {"w": 0} if value is MISSING
                             else {"v": value}, float(tid + i))
                   for i, value in enumerate(step[1])]
            tid += len(run)
            executor._push(targets, serial,
                           run[0] if len(run) == 1 else TupleBatch(run))
        else:
            read()
    executor._flush()
    read()
    return seen


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(members=members, script=hops)
# ``v > 1`` rejects the first run; the report holds the segment's sp for
# it after a tuple, so the next sp starts a segment and discards it.
@example(members=[(">", 0), (">", 1)],
         script=[("sp",), ("run", [1]), ("report",), ("sp",), ("run", [2])])
def test_any_hop_order_counts_as_each_member_alone(members, script):
    """A group brings a member up to date from its cursor whatever came
    between: sps after a report, sps of segments it never passed, runs
    it rejected before and after the current segment's sps."""
    grouped = hop_counts(Select, members, script)
    alone = hop_counts(Lone, members, script)
    assert grouped == alone
