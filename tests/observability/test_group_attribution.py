"""What a selection group reports about its members.

Sibling selects served by one executor hop are still plan nodes with
their own names and stage lines: each member's counters and latency
histogram are credited as its own ``process``/``process_batch`` would
credit them, and the hop's one clock pair is split evenly across the
members.  A traced hop is one ``op.process`` span for the group, naming
its members; a run no member passes goes on the group's tally, traced
or not.  The ungrouped reference is the same plan with a ``Select``
subclass, which no group takes.
"""

import itertools
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan, SelectGroup
from repro.metrics.reporting import format_table
from repro.observability import AuditLog, Observability, Tracer
from repro.observability.stats import StageStats
from repro.operators.conditions import Comparison
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("v",))
THRESHOLDS = (0, 2, 3, 9)
ELEMENTS = [
    SecurityPunctuation.grant(["D"], 0.0),
    *(DataTuple("s", i, {"v": i}, float(i + 1)) for i in range(5)),
    SecurityPunctuation.grant(["N"], 6.0),
    *(DataTuple("s", i, {"v": i}, float(i + 2)) for i in range(5, 8)),
    DataTuple("s", 8, {"v": None}, 10.0),
]
#: Group hops over ELEMENTS: two sps and two runs (the ``None`` tuple is
#: the second run's last).
HOPS = 4


class Lone(Select):
    """Behaves as a ``Select``; its exact type keeps it out of groups."""


def build(kind, observability):
    plan = PhysicalPlan()
    selects = []
    for value in THRESHOLDS:
        select = kind(Comparison("v", ">", value), name=f"sel>{value}")
        node = plan.add(select)
        plan.connect_source("s", node)
        shield = plan.add(SecurityShield(["D"], name=f"psi>{value}"))
        plan.connect(node, shield)
        plan.connect(shield, plan.add(CollectingSink(name=f"sink>{value}")))
        selects.append(select)
    plan.bind_observability(observability)
    return plan, selects


def execute(kind, observability=None):
    observability = observability or Observability.in_memory()
    plan, selects = build(kind, observability)
    executor = Executor(plan, tracer=observability.tracer,
                        instruments=observability.instruments)
    report = executor.run(segment_feed([ListSource(SCHEMA, ELEMENTS)]))
    return plan, selects, report, observability


def spans_of(observability, names):
    return [span for span in observability.tracer.events("op.process")
            if span.attrs["operator"] in names]


def test_the_reference_is_ungrouped_and_the_plan_grouped():
    grouped, _, _, _ = execute(Select)
    alone, _, _, _ = execute(Lone)
    assert [type(hop) for hop in grouped.push_sites()["s"][0]] == [
        SelectGroup]
    assert not any(type(hop) is SelectGroup
                   for hop in alone.push_sites()["s"][0])


def test_one_span_per_group_hop_naming_its_members():
    plan, selects, _, observability = execute(Select)
    _, lone, _, lone_observability = execute(Lone)
    (group,) = plan.push_sites()["s"][0]
    names = tuple(select.name for select in selects)
    assert group.members == names
    assert not spans_of(observability, set(names))
    spans = spans_of(observability, {group.name})
    assert len(spans) == HOPS
    assert all(span.attrs["members"] == names for span in spans)
    # A hop's rows are those each member of the ungrouped plan took.
    for member in lone:
        assert [span.attrs["rows"] for span in spans] == [
            span.attrs["rows"]
            for span in spans_of(lone_observability, {member.name})]
    # The group span hangs off its element's root, and whatever a
    # member emitted hangs off the group span.
    by_id = {s.span_id: s for s in observability.tracer.events()}
    for span in spans:
        assert by_id[span.parent_id].name == "ingest"
    children = [s for s in observability.tracer.events("op.process")
                if s.attrs["operator"].startswith("psi")]
    assert children and all(
        by_id[s.parent_id].attrs["operator"] == group.name
        for s in children)


def test_latency_counts_and_counters_equal_the_ungrouped_run():
    _, selects, report, _ = execute(Select)
    _, lone, lone_report, _ = execute(Lone)
    for select, reference in zip(selects, lone):
        assert select._m_latency.count == reference._m_latency.count
        assert select._m_latency.count == HOPS
    for stage, reference in zip(report.stages, lone_report.stages):
        assert stage.name == reference.name
        for counter in ("tuples_in", "tuples_out", "sps_in", "sps_out",
                        "drops", "comparisons", "state_ops"):
            assert getattr(stage, counter) == getattr(reference, counter)


def test_members_split_the_hops_measured_time():
    """With a clock that advances one unit per read, every group hop
    measures exactly one unit, and the members' processing times add
    up to the number of hops — each member an equal share."""
    clock = itertools.count()
    with mock.patch("repro.engine.executor.perf_counter",
                    lambda: float(next(clock))):
        _, selects, _, _ = execute(Select, Observability())
    times = [select.stats.processing_time for select in selects]
    assert sum(times) == pytest.approx(HOPS)
    assert times == pytest.approx([HOPS / len(selects)] * len(selects))
    assert all(select.stats.ewma_seconds > 0 for select in selects)


def test_the_stage_table_lists_every_select():
    """``repro stats`` prints ``ExecutionReport.stages``: every member
    keeps its line, with time spent."""
    _, selects, report, _ = execute(Select)
    table = format_table(StageStats.HEADERS,
                         [stage.to_row() for stage in report.stages])
    for select in selects:
        stage = report.stage(select.name)
        assert stage is not None and stage.kind == "Select"
        assert stage.processing_time > 0
        assert select.name in table


def session_dsms(observability):
    dsms = DSMS(observability=observability)
    dsms.register_stream(SCHEMA)
    for value, roles in zip(THRESHOLDS, ({"D"}, {"N"}, {"D"}, {"D", "N"})):
        dsms.register_query(f"q>{value}", ScanExpr("s").select(
            Comparison("v", ">", value)), roles=roles)
    return dsms


def test_a_traced_rejected_tuple_is_tallied_with_one_span():
    """Sampled at 1, every push is traced: a tuple no member passes
    goes on the group's tally all the same, and its hop is one
    ``op.process`` span under the push's root span."""
    dsms = session_dsms(Observability(tracer=Tracer(sample=1.0)))
    pushed = [SecurityPunctuation.grant(["D"], 0.0),
              DataTuple("s", 0, {"v": -1}, 1.0),
              DataTuple("s", 1, {"v": 5}, 2.0),
              DataTuple("s", 2, {"v": -2}, 3.0)]
    tallied = []
    with dsms.open_session() as session:
        (group,) = session._executor._groups
        for element in pushed:
            session.push("s", element)
            tallied.append(group.rejected)
    assert tallied == [0, 1, 0, 1]
    assert group.rejected == 0  # settled by close()
    tracer = dsms.observability.tracer
    by_id = {span.span_id: span for span in tracer.events()}
    spans = [span for span in tracer.events("op.process")
             if span.attrs["operator"] == group.name]
    assert [span.attrs["rows"] for span in spans] == [1] * len(pushed)
    assert all(span.attrs["members"] == ("Select",) * len(THRESHOLDS)
               for span in spans)
    # The entry holds the sp until the first tuple: that push hops twice.
    roots = Counter(span.parent_id for span in spans)
    assert sorted(roots.values()) == [1, 1, 2]
    assert {by_id[root].name for root in roots} == {"session.push"}


def test_a_sampled_session_decides_as_an_untraced_one():
    """Tracing changes spans only: results, counters and the held
    audit decisions (``seq`` aside, which sampled pass records share)
    are those of the same pushes untraced."""
    runs = []
    for observability in (Observability(tracer=Tracer(sample=1.0)),
                          Observability(audit=AuditLog())):
        dsms = session_dsms(observability)
        with dsms.open_session() as session:
            results = [session.push("s", element) for element in ELEMENTS]
            results.append(session.close())
            stages = session.report().stages
        decisions = [replace(event, seq=0) for event in dsms.audit]
        counters = [(stage.name, stage.tuples_in, stage.tuples_out,
                     stage.sps_in, stage.sps_out, stage.drops,
                     stage.comparisons, stage.state_ops)
                    for stage in stages]
        runs.append((results, counters, decisions))
    traced, untraced = runs
    assert traced == untraced
    assert any(traced[0]) and traced[2]
