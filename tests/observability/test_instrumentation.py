"""Engine instrumentation: what the metric families record end to end.

The tentpole behaviors, measured on real runs and sessions:

* policy-propagation lag observed between an sp's arrival at a shield
  and the first enforcement decision taken under it (scripted
  sp → tuple pushes through a live session);
* end-to-end tuple latency from ``push()`` to sink emission;
* shield pass/drop/denial counters matching delivered results;
* segment-size and sp-batch-size distributions;
* SPIndex scanned/skipped pull-gauges (the Lemma 5.1 hit rate);
* zero-cost-when-off: a disabled DSMS constructs no instruments.
"""

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("s1", ("v",))


def reading(tid: int, ts: float) -> DataTuple:
    return DataTuple("s1", tid, {"v": float(tid)}, ts)


def make_dsms(observability: Observability) -> DSMS:
    dsms = DSMS(observability=observability)
    dsms.register_stream(SCHEMA, [])
    dsms.register_query("q", ScanExpr("s1"), roles={"D"})
    return dsms


def get_series(instruments, family_name: str) -> dict:
    family = instruments.registry.get(family_name)
    assert family is not None
    return {values: child for values, child in family.series()}


class TestPropagationLag:
    def test_sp_then_tuple_observes_lag(self):
        """The scripted sp→tuple session: lag measured at the shield."""
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            session.push("s1", SecurityPunctuation.grant(["D"], 1.0))
            session.push("s1", reading(0, 2.0))
            session.push("s1", reading(1, 3.0))
        series = get_series(instruments,
                            "repro_policy_propagation_seconds")
        shield_hist = series[("delivery:q", "q")]
        # One sp-batch -> exactly one propagation observation, taken
        # at the first decision under the new policy.
        assert shield_hist.count == 1
        assert 0.0 < shield_hist.sum < 1.0

    def test_one_observation_per_sp_batch(self):
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            for segment in range(5):
                ts = segment * 10.0
                session.push("s1", SecurityPunctuation.grant(
                    ["D"], ts + 1.0))
                session.push("s1", reading(segment * 2, ts + 2.0))
                session.push("s1", reading(segment * 2 + 1, ts + 3.0))
        series = get_series(instruments,
                            "repro_policy_propagation_seconds")
        assert series[("delivery:q", "q")].count == 5

    def test_sp_with_no_following_tuple_is_not_observed(self):
        """Lag is sp -> first decision; with no decision, no sample."""
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            session.push("s1", SecurityPunctuation.grant(["D"], 1.0))
        series = get_series(instruments,
                            "repro_policy_propagation_seconds")
        shield_hist = series.get(("delivery:q", "q"))
        assert shield_hist is None or shield_hist.count == 0


class TestTupleLatency:
    def test_each_delivered_tuple_observed(self):
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            session.push("s1", SecurityPunctuation.grant(["D"], 1.0))
            for tid in range(4):
                session.push("s1", reading(tid, 2.0 + tid))
            delivered = len(session.results("q"))
        series = get_series(instruments, "repro_tuple_latency_seconds")
        hist = series[("q",)]
        assert delivered == 4
        assert hist.count == 4
        assert hist.max < 1.0  # sub-second in-process delivery

    def test_dropped_tuples_are_not_observed(self):
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            session.push("s1", SecurityPunctuation.grant(["N"], 1.0))
            session.push("s1", reading(0, 2.0))
        series = get_series(instruments, "repro_tuple_latency_seconds")
        assert ("q",) not in series or series[("q",)].count == 0


class TestShieldCounters:
    def test_pass_drop_and_denial_counts(self):
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            # Denial-by-default prefix: no policy yet.
            session.push("s1", reading(0, 1.0))
            session.push("s1", reading(1, 2.0))
            # Granted segment.
            session.push("s1", SecurityPunctuation.grant(["D"], 3.0))
            session.push("s1", reading(2, 4.0))
            # Revoked segment.
            session.push("s1", SecurityPunctuation.grant(["N"], 5.0))
            session.push("s1", reading(3, 6.0))
            delivered = len(session.results("q"))
        assert delivered == 1
        shields = get_series(instruments, "repro_shield_tuples_total")
        by_verdict = {values[-1]: child.current()
                      for values, child in shields.items()
                      if values[0] == "delivery:q"}
        # Tuple 3's {N} segment is dropped at the stream's entry (was
        # drop 3.0 at the shield).
        assert by_verdict == {"drop": 2.0, "pass": 1.0}
        denials = get_series(instruments,
                             "repro_denial_by_default_drops_total")
        assert denials[("delivery:q", "q")].current() == 2.0

    def test_counters_match_batched_run(self):
        elements = [reading(0, 1.0),
                    SecurityPunctuation.grant(["D"], 2.0),
                    reading(1, 3.0), reading(2, 4.0),
                    SecurityPunctuation.grant(["N"], 5.0),
                    reading(3, 6.0)]
        dsms = DSMS(observability=Observability(metrics=MetricsRegistry()))
        dsms.register_stream(SCHEMA, elements)
        dsms.register_query("q", ScanExpr("s1"), roles={"D"})
        results = dsms.run()
        assert len(results["q"].tuples) == 2
        instruments = dsms.observability.instruments
        shields = get_series(instruments, "repro_shield_tuples_total")
        by_verdict = {values[-1]: child.current()
                      for values, child in shields.items()
                      if values[0] == "delivery:q"}
        # Tuple 3's {N} segment is dropped at the stream's entry (was
        # drop 2.0 at the shield).
        assert by_verdict == {"drop": 1.0, "pass": 2.0}
        denials = get_series(instruments,
                             "repro_denial_by_default_drops_total")
        assert denials[("delivery:q", "q")].current() == 1.0


class TestDistributions:
    def test_segment_and_batch_sizes(self):
        dsms = make_dsms(Observability(metrics=MetricsRegistry()))
        instruments = dsms.observability.instruments
        with dsms.open_session() as session:
            for segment in range(3):
                ts = segment * 10.0
                session.push("s1", SecurityPunctuation.grant(
                    ["D"], ts + 1.0))
                for k in range(segment + 1):  # sizes 1, 2, 3
                    session.push("s1", reading(segment * 4 + k,
                                               ts + 2.0 + k))
        segments = get_series(instruments, "repro_segment_size_tuples")
        shield_hist = segments[("delivery:q",)]
        assert shield_hist.count == 3
        assert shield_hist.sum == pytest.approx(6.0)
        assert shield_hist.max == pytest.approx(3.0)
        batches = get_series(instruments, "repro_sp_batch_size_sps")
        assert batches[()].count == 3
        assert batches[()].max == pytest.approx(1.0)


class TestSPIndexGauges:
    def test_scanned_and_skipped_pull_gauges(self):
        left_schema = StreamSchema("left", ("k", "a"))
        right_schema = StreamSchema("right", ("k", "b"))
        left, right = [], []
        ts = 0.0
        for segment in range(4):
            ts += 1.0
            left.append(SecurityPunctuation.grant(
                ["D"], ts, provider="l"))
            right.append(SecurityPunctuation.grant(
                ["D"] if segment % 2 else ["N"], ts + 0.25,
                provider="r"))
            for k in range(3):
                ts += 1.0
                tid = segment * 3 + k
                left.append(DataTuple("left", tid,
                                      {"k": k, "a": tid}, ts))
                right.append(DataTuple("right", tid,
                                       {"k": k, "b": tid}, ts + 0.25))
        dsms = DSMS(observability=Observability(metrics=MetricsRegistry()))
        dsms.register_stream(left_schema, left)
        dsms.register_stream(right_schema, right)
        expr = ScanExpr("left").join(ScanExpr("right"), "k", "k", 30.0,
                                     variant="index")
        dsms.register_query("q", expr, roles={"D"})
        dsms.run()
        instruments = dsms.observability.instruments
        series = get_series(instruments, "repro_spindex_entries_total")
        sides = {values[1] for values in series}
        assert sides == {"left", "right"}
        scanned = sum(child.current() for values, child in series.items()
                      if values[2] == "scanned")
        assert scanned > 0


class TestExemplars:
    def test_latency_exemplars_point_at_sampled_traces(self):
        from repro.observability.export import render_json
        import json

        from repro.observability.provenance import Tracer

        tracer = Tracer(sample=1.0)
        dsms = DSMS(observability=Observability(
            tracer=tracer, metrics=MetricsRegistry()))
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], 0.0, provider="p"),
            reading(1, 1.0), reading(2, 2.0),
        ])
        dsms.register_query("q", ScanExpr("s1"), roles={"D"})
        dsms.run()
        instruments = dsms.observability.instruments
        latency = get_series(instruments, "repro_operator_latency_seconds")
        tagged = [child for child in latency.values() if child.exemplars]
        assert tagged, "no latency bucket carries an exemplar"
        trace_ids = {trace_id for child in tagged
                     for _, trace_id, _ in child.exemplars.values()}
        assert trace_ids <= set(range(1, tracer.traces + 1))
        # exemplars surface in the JSON exposition
        snapshot = json.loads(render_json(
            dsms.observability.metrics))
        entries = snapshot["repro_operator_latency_seconds"]["series"]
        assert any("exemplars" in entry for entry in entries)

    def test_unsampled_traces_leave_no_exemplars(self):
        from repro.observability.provenance import Tracer

        dsms = DSMS(observability=Observability(
            tracer=Tracer(sample=0.0), metrics=MetricsRegistry()))
        dsms.register_stream(SCHEMA, [
            SecurityPunctuation.grant(["D"], 0.0, provider="p"),
            reading(1, 1.0),
        ])
        dsms.register_query("q", ScanExpr("s1"), roles={"D"})
        dsms.run()
        latency = get_series(dsms.observability.instruments,
                             "repro_operator_latency_seconds")
        assert all(child.exemplars is None
                   for child in latency.values())


class TestZeroCostWhenOff:
    def test_disabled_dsms_has_no_instruments(self):
        dsms = make_dsms(Observability())
        assert dsms.observability.instruments is None
        plan, _sinks = dsms.build_plan()
        for operator in plan.operators():
            assert operator._m_latency is None  # noqa: SLF001

    def test_run_and_session_work_without_metrics(self):
        dsms = make_dsms(Observability())
        with dsms.open_session() as session:
            session.push("s1", SecurityPunctuation.grant(["D"], 1.0))
            session.push("s1", reading(0, 2.0))
            assert len(session.results("q")) == 1
