"""What a selection group reports about its members.

Sibling selects served by one executor hop are still plan nodes with
their own names and stage lines: the hop emits one ``op.process`` span
per member, observes each member's latency histogram as its own
``process``/``process_batch`` would, and splits its one clock pair
evenly across the members.  The ungrouped reference is the same plan
with a ``Select`` subclass, which no group takes.
"""

import itertools
from collections import Counter
from unittest import mock

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan, SelectGroup
from repro.metrics.reporting import format_table
from repro.observability import Observability, Tracer
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


def member_spans(observability, selects):
    names = {select.name for select in selects}
    return [span for span in observability.tracer.events("op.process")
            if span.attrs["operator"] in names]


def test_the_reference_is_ungrouped_and_the_plan_grouped():
    grouped, _, _, _ = execute(Select)
    alone, _, _, _ = execute(Lone)
    assert [type(hop) for hop in grouped.push_sites()["s"][0]] == [
        SelectGroup]
    assert not any(type(hop) is SelectGroup
                   for hop in alone.push_sites()["s"][0])


def test_one_span_per_member_with_its_name_and_rows():
    _, selects, _, observability = execute(Select)
    _, lone, _, lone_observability = execute(Lone)
    spans = member_spans(observability, selects)
    assert len(spans) == HOPS * len(THRESHOLDS)
    rows = Counter((s.attrs["operator"], s.attrs["rows"]) for s in spans)
    assert rows == Counter(
        (s.attrs["operator"], s.attrs["rows"])
        for s in member_spans(lone_observability, lone))
    # Each member span hangs off its element's root, and whatever the
    # member emitted hangs off the member's span.
    by_id = {s.span_id: s for s in observability.tracer.events()}
    for span in spans:
        assert by_id[span.parent_id].name == "ingest"
    children = [s for s in observability.tracer.events("op.process")
                if s.attrs["operator"].startswith("psi")]
    assert children and all(
        by_id[s.parent_id].attrs["operator"].startswith("sel")
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


def test_a_traced_session_spans_every_member_of_a_rejected_tuple():
    """Sampled at 1, every push is traced: a tuple no member passes is
    not tallied, and each member still emits its ``op.process`` span
    under the push's root span."""
    dsms = DSMS(observability=Observability(tracer=Tracer(sample=1.0)))
    dsms.register_stream(SCHEMA)
    for value in THRESHOLDS:
        dsms.register_query(f"q>{value}", ScanExpr("s").select(
            Comparison("v", ">", value)), roles={"D"})
    pushed = [SecurityPunctuation.grant(["D"], 0.0),
              DataTuple("s", 0, {"v": -1}, 1.0),
              DataTuple("s", 1, {"v": 5}, 2.0),
              DataTuple("s", 2, {"v": -2}, 3.0)]
    with dsms.open_session() as session:
        (group,) = session._executor._groups
        for element in pushed:
            session.push("s", element)
            assert group.rejected == 0
    tracer = dsms.observability.tracer
    by_id = {span.span_id: span for span in tracer.events()}
    spans = [span for span in tracer.events("op.process")
             if span.attrs["operator"] == "Select"]
    assert len(spans) == len(pushed) * len(THRESHOLDS)
    # The entry holds the sp until the first tuple: that push hops twice.
    roots = Counter(span.parent_id for span in spans)
    members = len(THRESHOLDS)
    assert sorted(roots.values()) == [members, members, 2 * members]
    assert {by_id[root].name for root in roots} == {"session.push"}
