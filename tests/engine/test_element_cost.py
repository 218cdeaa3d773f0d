"""What an element costs a query: a grouped select's emit step,
nothing in the executor for a hop that emits nothing, no grouped
select a policy switch does not pass —
and every counter of the engine that pays more.  No clock here: frames
are counted with ``sys.setprofile``, counters against literals."""

import contextlib
import sys
from unittest import mock

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import Executor
from repro.operators.conditions import Comparison
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.operators.sink import CollectingSink
from repro.stream.schema import StreamSchema
from repro.stream.source import merge_sources

from tests.engine.test_batch_equivalence import (LEFT_SCHEMA, RIGHT_SCHEMA,
                                                 join_streams)
from tests.engine.test_segment_cost import SCHEMA, fan_out, segments, tup


def profile_push(session, element):
    """``(python calls, C calls, appends made by Executor._push)`` of
    one push."""
    calls = c_calls = appends = 0
    push_code = Executor._push.__code__

    def profiler(frame, event, arg):
        nonlocal calls, c_calls, appends
        if event == "call":
            calls += 1
        elif event == "c_call":
            c_calls += 1
            if frame.f_code is push_code and arg.__name__ == "append":
                appends += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        session.push("s", element)
    finally:
        sys.setprofile(previous)
    return calls, c_calls, appends


def warm_session(queries):
    """A fan-out session past its first segment boundary, so a pushed
    tuple releases no sp and refreshes no decision."""
    session = fan_out(queries=queries).open_session()
    session.push("s", SecurityPunctuation.grant(["D", "N", "C"], 0.0))
    names = [f"q{i}" for i in range(queries)]
    assert list(session.push("s", tup(99, 1.0))) == names
    return session


def one_reader(queries):
    """A warm session where ``q0`` alone reads stream ``s``; the other
    ``queries - 1`` read stream ``t``."""
    dsms = DSMS()
    dsms.register_stream(SCHEMA)
    dsms.register_stream(StreamSchema("t", ("v",)))
    dsms.register_query("q0", ScanExpr("s"), roles={"D"})
    for i in range(1, queries):
        dsms.register_query(f"q{i}", ScanExpr("t").select(
            Comparison("v", ">", i / 8)), roles={"D"})
    session = dsms.open_session()
    sp = SecurityPunctuation.grant(["D"], 0.0)
    assert session.push("s", sp) == {}
    assert session.push("s", tup(1, 1.0)) == {"q0": [sp, tup(1, 1.0)]}
    return session


class TestRunOfOnePath:
    def test_a_rejected_tuple_costs_one_frame_per_query(self):
        """The fan-out's selects are one selection group: per member,
        its ``emit`` step (one ``credit`` call serves them all) — the
        slope of the call count over the fan-out.  A lone select pays
        ``Operator.process`` → ``Select._process`` → the condition →
        ``emit``."""
        rejected = {}
        for queries in (4, 32):
            session = warm_session(queries)
            calls, _, _ = profile_push(session, tup(-1, 2.0))
            assert session.push("s", tup(-2, 3.0)) == {}
            rejected[queries] = calls
        assert (rejected[32] - rejected[4]) / 28 <= 1

    def test_a_rejected_tuple_costs_the_same_calls_at_any_group_size(self):
        """A tuple no grouped select passes calls no member: the group
        tallies it, so its Python calls do not grow with the queries."""
        rejected = {}
        for queries in (4, 32):
            session = warm_session(queries)
            rejected[queries], _, _ = profile_push(session, tup(-1, 2.0))
            assert session.push("s", tup(-2, 3.0)) == {}
        assert rejected[4] == rejected[32]

    def test_a_push_costs_the_queries_it_reaches(self):
        """The session drains only the sinks a push reached: a rejected
        push costs the same Python *and* C calls at 4 and at 32 queries,
        and a push that delivers to one query of 32 costs what it does
        at 4 (a walk over every query shows as C calls per query)."""
        rejected, one = {}, {}
        for queries in (4, 32):
            session = warm_session(queries)
            rejected[queries] = profile_push(session, tup(-1, 2.0))[:2]
            assert session.push("s", tup(-2, 3.0)) == {}
            session = one_reader(queries)
            one[queries] = profile_push(session, tup(2, 2.0))[:2]
            assert session.push("s", tup(3, 3.0)) == {"q0": [tup(3, 3.0)]}
        assert rejected[4] == rejected[32]
        assert one[4] == one[32]

    def test_no_work_stack_below_a_hop_that_emits_nothing(self):
        session = warm_session(4)
        assert profile_push(session, tup(-1, 2.0))[2] == 0
        # The spy does see a stack: a delivered tuple goes two hops down,
        # select → delivery:q<i> → sink.
        assert profile_push(session, tup(50, 3.0))[2] == 2 * 4

    @pytest.mark.parametrize("drive", ["session", "run"])
    def test_fan_out_is_delivered_depth_first(self, drive):
        """Query 0's sp and tuple reach its sink before anything query
        1's select emitted moves on (the selects' one group hop has
        decided for all of them)."""
        sp, item = SecurityPunctuation.grant(["D", "N", "C"], 0.0), tup(9, 1.0)
        dsms = fan_out([sp, item], queries=3)
        seen = []
        collect = CollectingSink._process

        def recorder(sink, element, port):
            seen.append((sink.name, element))
            return collect(sink, element, port)

        with mock.patch.object(CollectingSink, "_process", recorder):
            if drive == "run":
                dsms.run()
            else:
                with dsms.open_session() as session:
                    session.push("s", sp)
                    session.push("s", item)
        assert seen == [(f"sink:q{i}", element)
                        for i in range(3) for element in (sp, item)]


def select_calls(action, names=("hold", "emit")) -> tuple[int, ...]:
    """How often ``action()`` called each of the ``Select`` methods
    ``names`` (by default ``(hold calls, emit calls)``)."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        method = getattr(Select, name)

        def counted(self, *args):
            calls[name] += 1
            return method(self, *args)
        return counted

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(
                mock.patch.object(Select, name, counting(name)))
        action()
    return tuple(calls[name] for name in names)


class TestSwitchCost:
    """A policy switch costs the 32-member group O(1): an sp hop and a
    run no member passes call no member; a passing run calls only its
    passers, replaying nothing they missed; a report brings every member
    level."""

    def test_a_switch_no_member_passes_calls_no_member(self):
        session = warm_session(32)
        sp = SecurityPunctuation.grant(["D", "N", "C"], 2.0)
        assert select_calls(lambda: session.push("s", sp)) == (0, 0)
        # The entry hands the sp on ahead of the tuple: an sp hop and a
        # rejected run.
        assert select_calls(lambda: session.push("s", tup(-1, 3.0))) == (0, 0)

    def test_a_passing_push_calls_only_its_passers(self):
        session = warm_session(32)
        session.push("s", SecurityPunctuation.grant(["D", "N", "C"], 2.0))
        session.push("s", tup(-1, 3.0))
        # v = 1 passes q0..q7 (v > i/8): each holds the new sp, then
        # emits its own run.
        assert select_calls(lambda: session.push("s", tup(1, 4.0))) == (
            8, 8)

    @pytest.mark.parametrize("rejected", [1, 4])
    def test_a_passer_holds_once_a_segment_and_replays_nothing(
            self, rejected):
        """After ``rejected`` pushes no member passes, a passing push
        calls each passer's ``hold`` once (the segment is new to it) and
        ``emit`` once, and no ``discard``; the next passing push of the
        segment calls only ``emit``."""
        counted = ("hold", "emit", "discard")
        session = warm_session(32)
        session.push("s", SecurityPunctuation.grant(["D", "N", "C"], 2.0))
        for i in range(rejected):
            session.push("s", tup(-1, 3.0 + i))
        assert select_calls(lambda: session.push("s", tup(1, 10.0)),
                            counted) == (8, 8, 0)
        assert select_calls(lambda: session.push("s", tup(1, 11.0)),
                            counted) == (0, 8, 0)

    def test_a_report_brings_every_member_level(self):
        session = warm_session(32)
        session.push("s", SecurityPunctuation.grant(["D", "N", "C"], 2.0))
        session.push("s", tup(-1, 3.0))
        session.push("s", tup(1, 4.0))
        # One emit per member of the tuples it was not emitted: both for
        # the 24 members the run missed, the rejected one for its 8
        # passers.  The 24 hold the sp they never took no more: it is
        # theirs to discard when its segment ends (here, at close).
        assert select_calls(session.report) == (0, 32)
        assert select_calls(session.report) == (0, 0)
        selects = [node.operator for node in session._plan.nodes
                   if type(node.operator) is Select]
        assert len(selects) == 32
        for i, select in enumerate(selects):
            stats, passed = select.stats, i < 8
            assert (stats.tuples_in, stats.sps_in, stats.comparisons) == (
                3, 2, 3)
            assert (stats.tuples_out, stats.sps_out) == (
                (2, 2) if passed else (1, 1))
            assert select.tuples_dropped == (1 if passed else 2)
        session.close()
        assert [select.sps_discarded for select in selects] == [0] * 8 + [
            1] * 24

    @staticmethod
    def switch_calls(session, roles):
        """``profile_push`` of a switch: the tuple after a lone grant of
        ``roles`` (already registered), whose entry closes the batch."""
        session.push("s", SecurityPunctuation.grant(roles, 2.0))
        session.push("s", tup(-1, 3.0))
        session.push("s", SecurityPunctuation.grant(roles, 4.0))
        return profile_push(session, tup(-1, 5.0))

    # The entry closes the held batch in one walk: the analyzer enters no
    # stage with nothing to do, and one read of each sp serves both the
    # install and the drop decision (docs/PERFORMANCE.md, What closing
    # an sp-batch costs).

    def test_a_switch_the_entry_drops(self):
        calls, _, _ = self.switch_calls(warm_session(32), ["X"])
        assert calls <= 10

    def test_a_switch_the_entry_passes(self):
        calls, _, _ = self.switch_calls(warm_session(32), ["D", "N", "C"])
        assert calls <= 16

    def test_a_switch_under_a_server_policy(self):
        dsms = fan_out(queries=32)
        dsms.add_server_policy(SecurityPunctuation.grant(["D", "N"], 0.0))
        session = dsms.open_session()
        session.push("s", SecurityPunctuation.grant(["D", "N", "C"], 0.0))
        session.push("s", tup(99, 1.0))
        calls, _, _ = self.switch_calls(session, ["D", "N", "C"])
        assert calls <= 49


def pushed_counters(dsms):
    """Push every source element one at a time; per operator in plan
    order ``(name, tuples_in, tuples_out, sps_in, sps_out, comparisons,
    state_ops)`` plus a select's ``(tuples_dropped, sps_discarded)`` or
    a shield's ``(tuples_blocked, sps_blocked)``."""
    session = dsms.open_session()
    for stream_id, element in merge_sources(dsms.catalog.sources()):
        session.push(stream_id, element)
    session.close()
    rows = []
    for node in session._plan.nodes:
        op, stats = node.operator, node.operator.stats
        row = (op.name, stats.tuples_in, stats.tuples_out, stats.sps_in,
               stats.sps_out, stats.comparisons, stats.state_ops)
        if isinstance(op, Select):
            row += (op.tuples_dropped, op.sps_discarded)
        elif isinstance(op, SecurityShield):
            row += (op.tuples_blocked, op.sps_blocked)
        rows.append(row)
    return rows


class TestCountersAreNotPartOfTheSaving:
    """Literals computed once at the parent of the run-of-one change:
    the path got cheaper by frames and allocations, not by counting
    less."""

    def test_select_shield_fan_out(self):
        # Six segments of five tuples (v = 1..35) under [D|N|C, X], a
        # trailing tuple-less sp and a tuple every select rejects;
        # q0/q1/q2 hold D/N/C and select v > 0, 8, 20.
        dsms = DSMS()
        dsms.register_stream(SCHEMA, segments() + [
            SecurityPunctuation.grant(["D"], 36.0), tup(-1, 37.0)])
        for i, role in enumerate("DNC"):
            dsms.register_query(
                f"q{i}", ScanExpr("s").select(
                    Comparison("v", ">", (0, 8, 20)[i])), roles={role})
        assert pushed_counters(dsms) == EXPECTED_FAN_OUT

    def test_join_plan(self):
        left, right = join_streams(run_len=1)
        dsms = DSMS()
        dsms.register_stream(LEFT_SCHEMA, left)
        dsms.register_stream(RIGHT_SCHEMA, right)
        dsms.register_query("q", ScanExpr("left").join(
            ScanExpr("right"), "k", "k", 30.0), roles={"D"})
        assert pushed_counters(dsms) == EXPECTED_JOIN


# (name, tuples_in, tuples_out, sps_in, sps_out, comparisons, state_ops
#  [, dropped/blocked tuples, discarded/blocked sps]) in plan order.  Each
# query's one shield is its "delivery:<q>" outlet, added to the plan
# ahead of the query's expression.
EXPECTED_FAN_OUT = [
    ("delivery:q0", 30, 10, 6, 2, 12, 0, 20, 4),
    ("sink:q0", 10, 0, 2, 0, 0, 0),
    ("Select", 31, 30, 7, 6, 31, 0, 1, 1),
    ("delivery:q1", 23, 8, 5, 2, 10, 0, 15, 3),
    ("sink:q1", 8, 0, 2, 0, 0, 0),
    ("Select", 31, 23, 7, 5, 31, 0, 8, 2),
    ("delivery:q2", 13, 5, 3, 1, 6, 0, 8, 2),
    ("sink:q2", 5, 0, 1, 0, 0, 0),
    ("Select", 31, 13, 7, 3, 31, 0, 18, 4),
]
# The join's 12 tuples and 3 sps of the segments no role of q may see
# are dropped at their stream's entry (they were 48 tuples, 12 sps and
# 45 state operations in).
EXPECTED_JOIN = [
    ("delivery:q", 88, 88, 1, 1, 1, 0, 0, 0),
    ("sink:q", 88, 0, 1, 0, 0, 0),
    ("IndexSAJoin", 36, 88, 9, 1, 88, 33),
]
