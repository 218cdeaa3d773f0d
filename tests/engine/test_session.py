"""Tests for the online streaming session API."""

import math
from unittest import mock

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.errors import QueryError, StreamError
from repro.operators.conditions import Comparison
from repro.operators.sink import CollectingSink
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s", ("v",))


def grant(roles, ts):
    return SecurityPunctuation.grant(roles, ts, provider="p")


def tup(tid, ts):
    return DataTuple("s", tid, {"v": tid}, ts)


@pytest.fixture
def dsms():
    instance = DSMS()
    instance.register_stream(SCHEMA)  # no pre-materialized source
    instance.register_query("q", ScanExpr("s"), roles={"D"})
    return instance


class TestPushPull:
    def test_results_arrive_per_push(self, dsms):
        with dsms.open_session() as session:
            assert session.push("s", grant(["D"], 0.0)) == {}
            out = session.push("s", tup(1, 1.0))
            tids = [e.tid for e in out["q"] if isinstance(e, DataTuple)]
            assert tids == [1]

    def test_policy_change_effective_immediately(self, dsms):
        with dsms.open_session() as session:
            session.push("s", grant(["D"], 0.0))
            assert session.push("s", tup(1, 1.0))["q"]
            session.push("s", grant(["C"], 2.0))
            assert "q" not in session.push("s", tup(2, 3.0))
            session.push("s", grant(["D"], 4.0))
            assert session.push("s", tup(3, 5.0))["q"]
            assert [t.tid for t in session.results("q")] == [1, 3]

    def test_sp_batch_buffered_until_released(self, dsms):
        """Two same-ts sps are one batch: union takes effect together."""
        with dsms.open_session() as session:
            session.push("s", grant(["X"], 0.0))
            session.push("s", grant(["D"], 0.0))
            out = session.push("s", tup(1, 1.0))
            assert [e.tid for e in out["q"]
                    if isinstance(e, DataTuple)] == [1]

    def test_push_many(self, dsms):
        session = dsms.open_session()
        out = session.push_many("s", [grant(["D"], 0.0), tup(1, 1.0),
                                      tup(2, 2.0)])
        assert len([e for e in out["q"]
                    if isinstance(e, DataTuple)]) == 2

    def test_server_policy_applies_to_pushed_sps(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA)
        dsms.add_server_policy(SecurityPunctuation.grant(["C"], ts=0.0))
        dsms.register_query("q", ScanExpr("s"), roles={"D"})
        with dsms.open_session() as session:
            session.push("s", grant(["D"], 0.0))  # refined to ∅ → dropped
            assert "q" not in session.push("s", tup(1, 1.0))


class TestFanOutCollection:
    """A push drains only the sinks it reached and returns only their
    queries, in registration order; the order it calls back in does not
    depend on which sinks it reached."""

    ROLES = ("D", "N", "X")
    FEED = [grant(["D"], 0.0), tup(1, 1.0), tup(5, 2.0), grant(["N"], 3.0),
            tup(6, 4.0), grant(["Z"], 5.0), tup(7, 6.0),
            grant(["D", "X"], 7.0), tup(8, 8.0), tup(0, 9.0)]

    @pytest.mark.parametrize("queries", [1, 4, 32])
    def test_return_value_and_callback_order(self, queries):
        dsms = DSMS()
        dsms.register_stream(SCHEMA)
        names = [f"q{i}" for i in range(queries)]
        for i, name in enumerate(names):
            dsms.register_query(
                name, ScanExpr("s").select(Comparison("v", ">", i / 8)),
                roles={self.ROLES[i % 3]})
        subscribed = names[::2]
        log = []
        granted: set = set()
        with dsms.open_session() as session:
            for name in subscribed:
                session.subscribe(
                    name, lambda e, name=name: log.append((name, e)))
            for element in self.FEED:
                seen = len(log)
                out = session.push("s", element)
                # Every query that got something has its own fresh list.
                assert len({id(new) for new in out.values()}) == len(out)
                assert log[seen:] == [(name, e) for name in subscribed
                                      for e in out.get(name, ())]
                if isinstance(element, SecurityPunctuation):
                    granted = element.roles()
                    assert out == {}
                    continue
                expected = {name: [element.tid]
                            for i, name in enumerate(names)
                            if self.ROLES[i % 3] in granted
                            and element.tid > i / 8}
                assert list(out) == list(expected)
                assert {name: [e.tid for e in items
                               if isinstance(e, DataTuple)]
                        for name, items in out.items()} == expected
            assert session.close() == {}

    def test_registration_order_when_the_plan_reaches_sinks_out_of_it(
            self):
        """q0 and q2 are one selection group in q0's entry slot, so a
        tuple reaches the sinks as q0, q2, q1; keys and callbacks still
        come in registration order."""
        dsms = DSMS()
        dsms.register_stream(SCHEMA)
        dsms.register_query("q0", ScanExpr("s").select(
            Comparison("v", ">", 1)), roles={"D"})
        dsms.register_query("q1", ScanExpr("s"), roles={"D"})
        dsms.register_query("q2", ScanExpr("s").select(
            Comparison("v", ">", 2)), roles={"D"})
        reached, log = [], []
        collect = CollectingSink._process

        def recorder(sink, element, port):
            reached.append(sink.name)
            return collect(sink, element, port)

        sp, item = grant(["D"], 0.0), tup(9, 1.0)
        with mock.patch.object(CollectingSink, "_process", recorder), \
                dsms.open_session() as session:
            for name in ("q2", "q0", "q1"):
                session.subscribe(
                    name, lambda e, name=name: log.append((name, e)))
            assert session.push("s", sp) == {}
            out = session.push("s", item)
        assert reached == ["sink:q0", "sink:q0", "sink:q2", "sink:q2",
                           "sink:q1", "sink:q1"]
        assert out == {name: [sp, item] for name in ("q0", "q1", "q2")}
        assert list(out) == ["q0", "q1", "q2"]
        assert log == [(name, e) for name in ("q0", "q1", "q2")
                       for e in (sp, item)]


class TestSubscriptions:
    def test_callback_receives_results(self, dsms):
        got = []
        with dsms.open_session() as session:
            session.subscribe("q", got.append)
            session.push("s", grant(["D"], 0.0))
            session.push("s", tup(1, 1.0))
        tids = [e.tid for e in got if isinstance(e, DataTuple)]
        assert tids == [1]

    def test_raising_subscriber_loses_no_result(self, dsms):
        """A callback that raises has had its element (at most once);
        what the same push put behind it is delivered by the next push,
        and a query drained after the raiser loses nothing either."""
        dsms.register_query("r", ScanExpr("s"), roles={"D"})
        sp, t1, t2 = grant(["D"], 0.0), tup(1, 1.0), tup(2, 2.0)
        got_q, got_r = [], []

        def fragile(element):
            if isinstance(element, SecurityPunctuation):
                raise RuntimeError("subscriber down")
            got_q.append(element)

        session = dsms.open_session()
        session.subscribe("q", fragile)
        session.subscribe("r", got_r.append)
        assert session.push("s", sp) == {}
        with pytest.raises(RuntimeError):
            session.push("s", t1)  # releases the sp, then t1, to q and r
        assert got_q == [] and got_r == []
        assert session.push("s", t2) == {"q": [t1, t2], "r": [sp, t1, t2]}
        assert got_q == [t1, t2] and got_r == [sp, t1, t2]
        assert session.close() == {}
        assert session.results("q") == session.results("r") == [t1, t2]

    def test_unknown_query_rejected(self, dsms):
        session = dsms.open_session()
        with pytest.raises(QueryError):
            session.subscribe("ghost", lambda e: None)
        with pytest.raises(QueryError):
            session.results("ghost")


class TestLifecycle:
    def test_out_of_order_push_rejected(self, dsms):
        session = dsms.open_session()
        session.push("s", tup(1, 5.0))
        with pytest.raises(StreamError):
            session.push("s", tup(2, 4.0))

    def test_a_nan_timestamp_is_refused(self, dsms):
        """NaN fails every comparison: it must neither pass the ordering
        check nor switch it off for the elements after it."""
        session = dsms.open_session()
        session.push("s", tup(1, 10.0))
        with pytest.raises(StreamError, match="out-of-order"):
            session.push("s", tup(2, math.nan))
        with pytest.raises(StreamError, match="out-of-order"):
            session.push("s", tup(3, 1.0))
        fresh = dsms.open_session()
        with pytest.raises(StreamError, match="out-of-order"):
            fresh.push("s", tup(4, math.nan))
        assert fresh.push("s", tup(5, -math.inf)) == {}

    def test_unknown_stream_rejected(self, dsms):
        session = dsms.open_session()
        with pytest.raises(StreamError):
            session.push("nope", tup(1, 1.0))

    def test_closed_session_rejects_pushes(self, dsms):
        session = dsms.open_session()
        session.close()
        with pytest.raises(StreamError):
            session.push("s", tup(1, 1.0))

    def test_close_flushes_select_state(self):
        dsms = DSMS()
        dsms.register_stream(SCHEMA)
        dsms.register_query(
            "q", ScanExpr("s").select(Comparison("v", ">", 0)),
            roles={"D"})
        session = dsms.open_session()
        session.push("s", grant(["D"], 0.0))
        session.push("s", tup(1, 1.0))
        final = session.close()
        total = session.results("q")
        assert [t.tid for t in total] == [1]
        assert isinstance(final, dict)

    def test_counts(self, dsms):
        session = dsms.open_session()
        session.push("s", grant(["D"], 0.0))
        session.push("s", tup(1, 1.0))
        assert session.elements_pushed == 2
