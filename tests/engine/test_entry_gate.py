"""A stream's entry gate (``repro.engine.plan.EntryGate``).

Every stream entry reads its sps through one tracker: a batch goes on at the first tuple of its segment
as the tracker's pending sps (an incremental batch as its absolute
equivalent, a stale one never), and a segment whose plain grant names
no role of any query reading the stream is dropped there.  Each test
below pins one condition of that rule: it fails when the condition is
taken out.
"""

import pytest

from repro.algebra.expressions import ScanExpr, UnionExpr
from repro.core.patterns import literal
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.engine.plan import PhysicalPlan
from repro.errors import StreamError
from repro.observability import Observability
from repro.operators.conditions import Comparison
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.sink import CollectingSink
from repro.stream.batch import segment_feed
from repro.stream.schema import StreamSchema
from repro.stream.source import ListSource
from repro.stream.tuples import DataTuple

from tests.drive import push_all

SCHEMA = StreamSchema("s", ("v", "w"))
POSITIVE = Comparison("v", ">", 0)


def grant(roles, ts, **kwargs):
    return SecurityPunctuation.grant(roles, ts, **kwargs)


def tup(tid, v, ts, w=0):
    return DataTuple("s", tid, {"v": v, "w": w}, ts)


def tids(result):
    return [item.tid for item in result.tuples]


def make(elements, queries, server=()):
    dsms = DSMS()
    dsms.register_stream(SCHEMA, elements)
    for sp in server:
        dsms.add_server_policy(sp)
    for name, expr, roles in queries:
        dsms.register_query(name, expr, roles=roles)
    return dsms


# -- the widening a select hid: nothing below an entry needs a batch an
# -- operator discarded ---------------------------------------------------

def widening_stream(later):
    """``R@1, t1, X@10, t2 (fails v > 0), later, t3``: the select
    discards the X batch with t2, and ``later`` is read against it."""
    return [grant(["R"], 1.0), tup(1, 10, 2.0), grant(["X"], 10.0),
            tup(2, -1, 11.0), later, tup(3, 10, 13.0, w=1)]


INCREMENTAL = grant(["Y"], 12.0, incremental=True)  # policy {X, Y}
STALE = grant(["R"], 5.0)  # older than X@10: discarded, {X} stays


def widening_queries(other):
    queries = [("q", ScanExpr("s").select(POSITIVE), {"R"})]
    if other:
        # An X reader keeps the X segment past the entry.
        queries.append(("o", ScanExpr("s"), {"X"}))
    return queries


#: The SP Analyzer runs in the entry gate: with no server policy, or
#: refining every batch by a server grant that keeps its roles.
SERVER = pytest.mark.parametrize(
    "server", [(), (grant(["R", "X", "Y"], 0.0),)],
    ids=["analyzed", "grant"])


@pytest.mark.parametrize("other", [False, True], ids=["alone", "with-o"])
@pytest.mark.parametrize("later", [INCREMENTAL, STALE],
                         ids=["incremental", "stale"])
@SERVER
def test_select_discarding_a_batch_widens_nothing_under_run(
        later, other, server):
    dsms = make(widening_stream(later), widening_queries(other), server)
    results = dsms.run()
    assert tids(results["q"]) == [1]
    if other:  # the segment after the stale batch goes on under X
        assert tids(results["o"]) == [2, 3]


@pytest.mark.parametrize("other", [False, True], ids=["alone", "with-o"])
@SERVER
def test_select_discarding_a_batch_widens_nothing_in_a_session(
        other, server):
    dsms = make([], widening_queries(other), server)
    session = dsms.open_session()
    for element in widening_stream(INCREMENTAL):
        session.push("s", element)
    session.close()
    assert [item.tid for item in session.results("q")] == [1]
    if other:
        assert [item.tid for item in session.results("o")] == [2, 3]


def test_a_session_refuses_the_stale_batch():
    dsms = make([], widening_queries(True))
    session = dsms.open_session()
    elements = widening_stream(STALE)
    for element in elements[:4]:
        session.push("s", element)
    with pytest.raises(StreamError, match="out-of-order"):
        session.push("s", elements[4])


@pytest.mark.parametrize("later", [INCREMENTAL, STALE],
                         ids=["incremental", "stale"])
def test_an_ungated_entry_still_normalises(later):
    """δ above the select: the stream is not gated, and its entry still
    hands on the incremental batch as {X, Y} and the stale one never."""
    dsms = make(widening_stream(later), [
        ("q", ScanExpr("s").select(POSITIVE).distinct(100.0), {"R"})])
    assert not dsms.build_plan()[0].entry_gates()["s"].outlets
    assert tids(dsms.run()["q"]) == [1]


# -- when an entry drops --------------------------------------------------

def test_a_segment_no_query_may_see_never_reaches_an_operator():
    dsms = make([grant(["R"], 1.0), tup(1, 1, 2.0), tup(2, 1, 3.0),
                 grant(["X"], 4.0), tup(3, 1, 5.0), tup(4, 1, 6.0)],
                [("q", ScanExpr("s").select(POSITIVE), {"R"})])
    assert tids(dsms.run()["q"]) == [1, 2]
    (select,) = dsms._live_plan.find_operators(Select)
    assert (select.stats.tuples_in, select.stats.sps_in) == (2, 1)
    assert dsms.last_report.entry_drops == 2


def test_an_attribute_scoped_grant_keeps_its_tuple_for_a_projection():
    """π_w may deliver the attribute a grant names, so an
    attribute-scoped batch is never dropped at the entry — not even
    one whose roles miss every query's."""
    elements = [
        grant(["R"], 1.0, attribute=literal("w")),
        grant(["X"], 1.0, attribute=literal("v")),
        tup(1, 5, 2.0, w=7),
        grant(["X"], 3.0, attribute=literal("v")),
        tup(2, 5, 4.0, w=8),
    ]
    dsms = make(elements, [("q", ScanExpr("s").project(("w",)), {"R"})])
    result = dsms.run()["q"]
    assert [(item.tid, item.values) for item in result.tuples] == [
        (1, {"w": 7})]
    (project,) = dsms._live_plan.find_operators(Project)
    assert project.stats.tuples_in == 2
    assert dsms.last_report.entry_drops == 0


def test_negative_and_incremental_batches_are_never_dropped():
    elements = [
        grant(["X", "Z"], 1.0), SecurityPunctuation.deny(["Z"], 1.0),
        tup(1, 1, 2.0),
        grant(["Z"], 3.0, incremental=True), tup(2, 1, 4.0),
        grant(["X"], 5.0), tup(3, 1, 6.0),
    ]
    dsms = make(elements, [("q", ScanExpr("s").select(POSITIVE), {"R"})])
    assert tids(dsms.run()["q"]) == []
    (select,) = dsms._live_plan.find_operators(Select)
    assert select.stats.tuples_in == 2
    assert dsms.last_report.entry_drops == 1


def test_a_stream_feeding_a_group_by_is_not_gated():
    """A G subgroup's policy is the union of its members': the {X}
    tuple joins the {R, X} subgroup and R reads a count of 2."""
    elements = [grant(["R", "X"], 1.0), tup(1, 1, 2.0),
                grant(["X"], 3.0), tup(2, 1, 4.0)]
    dsms = make(elements, [
        ("q", ScanExpr("s").group_by(None, "count", "v", 100.0), {"R"})])
    counts = [item.values["count(v)"] for item in dsms.run()["q"].tuples]
    assert counts == [1, 2]
    assert dsms.last_report.entry_drops == 0


def test_a_widening_rebind_delivers_from_the_next_element():
    dsms = make([], [("q", ScanExpr("s"), {"R"})])
    session = dsms.open_session()
    session.push("s", grant(["X"], 1.0))
    assert "q" not in session.push("s", tup(1, 1, 2.0))
    dsms.update_query_roles("q", {"X"})
    got = session.push("s", tup(2, 1, 3.0))["q"]
    assert [item.tid for item in got if isinstance(item, DataTuple)] == [2]
    session.close()
    assert session.report().entry_drops == 1


def test_a_hand_built_plan_drops_nothing():
    elements = [grant(["X"], 1.0), tup(1, 1, 2.0), tup(2, 1, 3.0)]
    plan = PhysicalPlan()
    sink = plan.compile_chain(ScanExpr("s").select(POSITIVE),
                              [CollectingSink()])[-1].operator
    Executor(plan).run(segment_feed([ListSource(SCHEMA, elements)]))
    assert [item.tid for item in sink.tuples()] == [1, 2]


def test_a_hand_attached_reader_keeps_a_compiled_stream_ungated():
    elements = [grant(["X"], 1.0), tup(1, 1, 2.0), tup(2, 1, 3.0)]
    plan = PhysicalPlan()
    sink = plan.compile_chain(ScanExpr("s"), [CollectingSink()])[-1].operator
    sinks = plan.compile_queries([("q", ScanExpr("s"), {"R"})])
    Executor(plan).run(segment_feed([ListSource(SCHEMA, elements)]))
    assert [item.tid for item in sink.tuples()] == [1, 2]
    assert sinks["q"].tuples() == []


def test_entry_drop_records_in_every_mode():
    """Audited and traced, the entry drops what it drops untraced, and
    records one ``entry.drop`` decision per tuple on both paths."""
    elements = [grant(["R"], 1.0), tup(1, 1, 2.0),
                grant(["X"], 3.0), tup(2, 1, 4.0), tup(3, 1, 5.0)]
    for drive, held in ((DSMS.run, 1), (push_all, 2)):
        dsms = DSMS(observability=Observability.in_memory())
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", ScanExpr("s").select(POSITIVE),
                            roles={"R"})
        assert tids(drive(dsms)["q"]) == [1]
        events = dsms.audit.events(kind="entry.drop")
        assert [(e.tid, e.operator, e.predicate, e.policy) for e in events] \
            == [(2, "entry:s", ("R",), ("X",)), (3, "entry:s", ("R",), ("X",))]
        assert all(e.detail["queries"] == ("q",) and "| X |" in e.sp
                   for e in events)
        assert len([r for r in dsms.audit._records
                    if r.kind == "entry.drop"]) == held


# -- the SP Analyzer runs in the gate, once per sp-batch -------------------

def test_run_and_a_session_report_the_same_input():
    """The analyzer merges the R and X sps of one batch; both drivers
    count the elements the stream carried."""
    elements = [grant(["R"], 1.0), grant(["X"], 1.0), tup(1, 1, 2.0),
                tup(2, 1, 3.0), grant(["R"], 4.0), tup(3, 1, 5.0)]
    for drive in (DSMS.run, push_all):
        dsms = make(elements, [("q", ScanExpr("s"), {"R"})])
        assert tids(drive(dsms)["q"]) == [1, 2, 3]
        report = dsms.last_report
        assert (report.elements_in, report.tuples_in, report.sps_in) \
            == (6, 3, 3)
        assert (dsms.analyzer.sps_in, dsms.analyzer.sps_out) == (3, 2)


A = StreamSchema("a", ("k",))
B = StreamSchema("b", ("k",))
#: Stream a's batches: {A, B} + {C} (narrowed to {A}, C refined away),
#: {B} (refined away: deny-all), a trailing {A}.
A_ELEMENTS = [grant(["A", "B"], 1.0), grant(["C"], 1.0),
              DataTuple("a", 1, {"k": 1}, 2.0), grant(["B"], 3.0),
              DataTuple("a", 2, {"k": 2}, 4.0), grant(["A"], 5.0)]
B_ELEMENTS = [grant(["A", "B"], 1.5), DataTuple("b", 1, {"k": 1}, 2.5),
              DataTuple("b", 2, {"k": 2}, 4.5)]


def narrowed(shape):
    """A server grant of {A} over one stream (a scan per role) or two
    (an IndexSAJoin per role)."""
    dsms = DSMS(observability=Observability.in_memory())
    dsms.add_server_policy(grant(["A"], 0.0))
    dsms.register_stream(A, A_ELEMENTS)
    expr = ScanExpr("a")
    if shape == "two-streams":
        dsms.register_stream(B, B_ELEMENTS)
        expr = expr.join(ScanExpr("b"), "k", "k", 100.0)
    for role in ("A", "B"):
        dsms.register_query(f"q{role}", expr, roles={role})
    return dsms


@pytest.mark.parametrize("shape", ["one-stream", "two-streams"])
def test_every_driver_analyses_each_sp_batch_once(shape):
    seen = []
    for drive in (DSMS.run, push_all):
        dsms = narrowed(shape)
        results = drive(dsms)
        seen.append((
            {name: [item.values for item in result.tuples]
             for name, result in results.items()},
            dsms.analyzer.sps_in, dsms.analyzer.sps_out,
            len(dsms.audit.events(kind="analyzer.refine"))))
    assert seen[0] == seen[1]
    delivered, sps_in, sps_out, refines = seen[0]
    assert len(delivered["qA"]) == 1 and delivered["qB"] == []
    if shape == "one-stream":
        assert (sps_in, sps_out, refines) == (4, 3, 3)
    else:  # b's grant is narrowed too
        assert (sps_in, sps_out, refines) == (5, 4, 4)


# -- a gated entry under ∪ -------------------------------------------------

S0 = StreamSchema("s0", ("v",))
S1 = StreamSchema("s1", ("v",))
#: s0: R segment (tid 0), X segment (1, 2); s1: X segment (10), R (11).
UNION_ELEMENTS = {
    S0: [grant(["R"], 1.0), DataTuple("s0", 0, {"v": 1}, 2.0),
         grant(["X"], 3.0), DataTuple("s0", 1, {"v": 1}, 4.0),
         DataTuple("s0", 2, {"v": 1}, 5.0)],
    S1: [grant(["X"], 1.5), DataTuple("s1", 10, {"v": 1}, 2.5),
         grant(["R"], 3.5), DataTuple("s1", 11, {"v": 1}, 5.5)],
}


@pytest.mark.parametrize("drive, records", [(DSMS.run, 2), (push_all, 3)],
                         ids=["run", "session"])
def test_a_union_of_two_gated_streams(drive, records):
    """q = s0 ∪ s1 for {R}: each stream's entry drops its X segment
    (one ``entry.drop`` record per run) and the R segments of both
    streams are delivered through ∪."""
    dsms = DSMS(observability=Observability.in_memory())
    for schema, elements in UNION_ELEMENTS.items():
        dsms.register_stream(schema, elements)
    dsms.register_query("q", UnionExpr(ScanExpr("s0"), ScanExpr("s1")),
                        roles={"R"})
    gates = dsms.build_plan()[0].entry_gates()
    assert all(gate.outlets for gate in gates.values())
    delivered = drive(dsms)["q"].tuples
    assert [(item.sid, item.tid) for item in delivered] == [
        ("s0", 0), ("s1", 11)]
    assert dsms.last_report.entry_drops == 3
    events = dsms.audit.events(kind="entry.drop")
    assert [(e.operator, e.tid) for e in events] == [
        ("entry:s1", 10), ("entry:s0", 1), ("entry:s0", 2)]
    assert all(e.policy == ("X",) and e.detail["queries"] == ("q",)
               for e in events)
    assert len([r for r in dsms.audit._records
                if r.kind == "entry.drop"]) == records
