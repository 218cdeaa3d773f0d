"""Tests for the tracer's ring, the JSONL sink and engine emission
sites."""

import io
import json

import pytest

from repro.algebra.expressions import ScanExpr
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.observability import (DEFAULT_SAMPLE_RATE, JsonlTraceSink,
                                 Observability, Tracer)
from repro.stream.schema import StreamSchema
from repro.stream.tuples import DataTuple

SCHEMA = StreamSchema("hr", ("patient", "bpm"), key="patient")


def elements():
    return [
        SecurityPunctuation.grant(["D"], 0.0, provider="p"),
        DataTuple("hr", 1, {"patient": 1, "bpm": 70}, 1.0),
    ]


def traced_dsms(tracer, stream=None):
    dsms = DSMS(observability=Observability(tracer=tracer))
    dsms.register_stream(SCHEMA, elements() if stream is None else stream)
    dsms.register_query("doc", ScanExpr("hr"), roles={"D"})
    return dsms


class TestEngineSpans:
    def test_run_emits_executor_and_analyzer_spans(self):
        sink = Tracer(sample=1.0)
        dsms = traced_dsms(sink)
        dsms.run()
        names = [e.name for e in sink.events()]
        assert names.count("executor.run.start") == 1
        assert names.count("executor.run.end") == 1
        assert names.index("executor.run.start") < names.index(
            "executor.run.end")
        assert "analyzer.batch" in names
        batch = sink.events("analyzer.batch")[0]
        assert batch.attrs["sps_in"] == 1
        end = sink.events("executor.run.end")[0]
        assert end.attrs["elements_in"] == 2

    def test_session_lifecycle_spans(self):
        sink = Tracer(sample=1.0)
        dsms = traced_dsms(sink, stream=[])
        with dsms.open_session() as session:
            for element in elements():
                session.push("hr", element)
        opens = sink.events("session.open")
        assert len(opens) == 1
        assert opens[0].attrs["queries"] == ["doc"]
        # exactly one span per push, each the root of its own trace
        pushes = sink.events("session.push")
        assert [e.attrs["kind"] for e in pushes] == ["sp", "tuple"]
        assert [e.trace_id for e in pushes] == [1, 2]
        assert all(e.parent_id is None and e.span_id for e in pushes)
        closes = sink.events("session.close")
        assert len(closes) == 1
        assert closes[0].attrs["elements_pushed"] == 2

    def test_lifecycle_spans_survive_default_sampling(self):
        """Once-per-run and once-per-session control points are not
        sampled: at the default 1/64 rate each is there exactly once."""
        stream = elements() + [
            DataTuple("hr", i, {"patient": 1, "bpm": 70}, float(i))
            for i in range(2, 200)]
        tracer = Tracer()
        assert tracer.sample == DEFAULT_SAMPLE_RATE
        traced_dsms(tracer, stream).run()
        for name in ("executor.run.start", "executor.run.end",
                     "executor.flush"):
            assert len(tracer.events(name)) == 1, name
        tracer = Tracer()
        with traced_dsms(tracer, stream=[]).open_session() as session:
            for element in stream:
                session.push("hr", element)
        assert len(tracer.events("session.open")) == 1
        assert len(tracer.events("session.close")) == 1
        # per-element spans stay head-sampled
        assert 0 < len(tracer.events("session.push")) \
            == tracer.sampled_traces < len(stream) // 8

    def test_default_sink_is_silent_null(self):
        """Tracing off is ``None``, not a null object."""
        assert DSMS().observability.tracer is None

    def test_hub_rejects_a_tracer_that_is_not_a_tracer(self, tmp_path):
        with pytest.raises(TypeError):
            Observability(tracer=object())
        with JsonlTraceSink(str(tmp_path / "t.jsonl")) as sink:
            with pytest.raises(TypeError, match="Tracer"):
                Observability(tracer=sink)


class TestRingBufferTraceSink:
    """The tracer's own ring: every kept span, flat or causal."""

    def test_bounded(self):
        sink = Tracer(recorder_capacity=3)
        for i in range(10):
            sink.span("tick", i=i)
        assert len(sink) == 3
        assert [e.attrs["i"] for e in sink.events()] == [7, 8, 9]
        sink.clear()
        assert len(sink) == 0

    def test_filter_by_name(self):
        sink = Tracer()
        sink.span("a")
        sink.span("b")
        sink.span("a")
        assert len(sink.events("a")) == 2
        assert len(sink.events()) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            Tracer(recorder_capacity=0)

    def test_flat_and_causal_events_share_one_ring_in_order(self):
        tracer = Tracer(sample=1.0)
        tracer.span("run.start")
        tracer.begin("tuple")
        tracer.op_span("op.process", 1, 10, operator="psi", rows=1)
        tracer.op_span("op.process", 2, 10, operator="sink", rows=1)
        tracer.span("run.end")
        events = tracer.events()
        assert [e.name for e in events] == [
            "run.start", "ingest", "op.process", "op.process", "run.end"]
        assert [e.trace_id for e in events] == [None, 1, 1, 1, None]
        monos = [e.mono for e in events]
        assert monos == sorted(monos)


class TestRingRoundTrip:
    """The ring keeps plain rows; every reader builds the same spans."""

    @staticmethod
    def as_json(record):
        return json.loads(json.dumps(record, default=str))

    def test_every_reader_gives_the_same_fields(self, tmp_path):
        streamed = io.StringIO()
        tracer = Tracer(JsonlTraceSink(streamed), sample=1.0)
        stream = elements() + [
            DataTuple("hr", i, {"patient": 1, "bpm": 60 + i}, float(i))
            for i in range(2, 6)]
        dsms = traced_dsms(tracer, stream=[])
        with dsms.open_session() as session:
            for element in stream:
                session.push("hr", element)
        tracer.span("note", x=1)
        events = tracer.events()
        assert len(events) == len(tracer) > len(stream)
        records = [self.as_json(event.to_dict()) for event in events]
        assert [json.loads(line) for line in
                streamed.getvalue().splitlines()] == records
        for name in {event.name for event in events}:
            assert tracer.events(name) == [
                event for event in events if event.name == name]
        path = tmp_path / "ring.jsonl"
        written = tracer.dump_jsonl(str(path))
        assert written == len(records)
        assert [json.loads(line)
                for line in path.read_text().splitlines()] == records


class TestJsonlTraceSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            dsms = traced_dsms(Tracer(sink, sample=1.0))
            dsms.run()
            assert sink.emitted > 0
        lines = path.read_text().splitlines()
        assert len(lines) == sink.emitted
        records = [json.loads(line) for line in lines]
        assert any(r["name"] == "executor.run.end" for r in records)
        assert all("wall" in r for r in records)

    def test_file_object_target_left_open(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer)
        Tracer(sink).span("x", n=1)
        sink.close()
        assert not buffer.closed
        assert json.loads(buffer.getvalue())["n"] == 1

    def test_events_carry_monotonic_stamps(self):
        buffer = io.StringIO()
        tracer = Tracer(JsonlTraceSink(buffer))
        tracer.span("a")
        tracer.span("b")
        monos = [json.loads(line)["mono"]
                 for line in buffer.getvalue().splitlines()]
        assert all(isinstance(m, int) for m in monos)
        assert monos[0] <= monos[1]

    def test_max_bytes_rotation(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path), max_bytes=400)
        tracer = Tracer(sink)
        for i in range(100):
            tracer.span("tick", i=i)
        tracer.close()
        assert sink.rotations >= 1
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        assert rotated.stat().st_size <= 400
        assert path.stat().st_size <= 400
        # the live file continues the stream the rotation cut
        last_rotated = json.loads(
            rotated.read_text().splitlines()[-1])["i"]
        first_current = json.loads(
            path.read_text().splitlines()[0])["i"]
        assert first_current == last_rotated + 1
        assert json.loads(path.read_text().splitlines()[-1])["i"] == 99

    def test_rotation_never_touches_caller_owned_files(self):
        buffer = io.StringIO()
        sink = JsonlTraceSink(buffer, max_bytes=10)
        tracer = Tracer(sink)
        for i in range(20):
            tracer.span("tick", i=i)
        assert sink.rotations == 0
        assert len(buffer.getvalue().splitlines()) == 20

    def test_closed_sink_reads_as_disabled(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        tracer = Tracer(sink, sample=1.0)
        tracer.begin("tuple")
        sink.close()
        assert sink.closed
        # a late control span (e.g. a session closed after its sink)
        # skips the sink and still reaches the ring
        tracer.span("session.close", elements_pushed=1)
        (span,) = tracer.events("session.close")
        assert span.attrs["elements_pushed"] == 1
        assert sink.emitted == 1 == len(path.read_text().splitlines())

    def test_rejects_nonpositive_max_bytes(self):
        with pytest.raises(ValueError):
            JsonlTraceSink(io.StringIO(), max_bytes=0)

    def test_context_manager_flushes_on_error_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlTraceSink(str(path)) as sink:
                Tracer(sink).span("before.crash", n=1)
                raise RuntimeError("traced run crashed")
        # __exit__ closed (hence flushed) the file despite the error
        record = json.loads(path.read_text().splitlines()[0])
        assert record["name"] == "before.crash"
        with pytest.raises(ValueError):
            sink._fp.write("x")  # file is really closed
        sink.close()  # idempotent on a closed sink
