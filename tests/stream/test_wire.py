"""Tests for the JSON-lines wire format."""

import importlib
import io
import json
import json.encoder
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DSMS, ScanExpr, StreamSchema
from repro.core.patterns import literal, numeric_range
from repro.core.punctuation import (SecurityPunctuation, SecurityRestriction,
                                    Sign)
from repro.errors import PatternError, PunctuationError, StreamError
from repro.stream import wire
from repro.stream.tuples import DataTuple
from repro.stream.wire import (decode_element, dump_stream, encode_element,
                               load_stream)

from tests.drive import fresh_line
from tests.properties.strategies import punctuated_streams


class TestRoundTrips:
    def test_tuple_round_trip(self):
        t = DataTuple("s1", 120, {"x": 1.5, "name": "abc", "n": 7}, 3.25)
        back = decode_element(encode_element(t))
        assert back == t

    def test_tuple_pair_tid(self):
        t = DataTuple("joined", (1, 2), {"v": 0}, 1.0)
        back = decode_element(encode_element(t))
        assert back.tid == (1, 2)

    @pytest.mark.parametrize("tid", [
        (1, (2, 3)), ((1, 2), (3, (4, "p"))), ((), 1)])
    def test_nested_pair_tids_round_trip(self, tid):
        # A join of joins nests its pair tids; JSON arrays must come
        # back as tuples at every depth (equal, and hashable).
        t = DataTuple("joined", tid, {"v": 0}, 1.0)
        back = decode_element(encode_element(t))
        assert back.tid == tid
        assert back == t and hash(back) == hash(t)

    def test_sp_round_trip(self):
        sp = SecurityPunctuation.deny(
            ["C", "D"], ts=9.5, stream=literal("HeartRate"),
            tuple_id=numeric_range(120, 133), immutable=True,
            provider="patient120")
        back = decode_element(encode_element(sp))
        assert back.roles() == sp.roles()
        assert back.sign is Sign.NEGATIVE
        assert back.immutable
        assert back.ts == 9.5
        assert back.provider == "patient120"
        assert back.describes("HeartRate", 125)
        assert not back.describes("HeartRate", 200)

    def test_stream_dump_load(self):
        elements = [
            SecurityPunctuation.grant(["D"], ts=0.0, provider="p"),
            DataTuple("s", 1, {"v": 1}, 1.0),
            DataTuple("s", 2, {"v": 2}, 2.0),
        ]
        buffer = io.StringIO()
        assert dump_stream(elements, buffer) == 3
        buffer.seek(0)
        loaded = list(load_stream(buffer))
        assert len(loaded) == 3
        assert isinstance(loaded[0], SecurityPunctuation)
        assert [e.tid for e in loaded[1:]] == [1, 2]

    def test_blank_lines_skipped(self):
        lines = ["", "  ", encode_element(DataTuple("s", 1, {"v": 1}, 1.0))]
        assert len(list(load_stream(lines))) == 1


class TestEncodeOnce:
    def test_line_is_memoised_on_the_element(self):
        t = DataTuple("s", 1, {"v": 1}, 1.0)
        sp = SecurityPunctuation.grant(["D"], ts=0.0, provider="p")
        assert encode_element(t) is encode_element(t)
        assert encode_element(sp) is encode_element(sp)

    def test_derived_tuples_do_not_carry_the_line(self):
        t = DataTuple("s", 1, {"a": 1, "b": 2}, 1.0)
        other = DataTuple("r", 2, {"a": 3}, 2.0)
        encode_element(t)
        encode_element(other)
        derived = [t.project(["a"]), t.merge(other, "out"),
                   other.merge(t, "out"), pickle.loads(pickle.dumps(t))]
        for d in derived:
            assert d._line is None
            assert encode_element(d) == fresh_line(d)

    def test_derived_sps_do_not_carry_the_line(self):
        sp = SecurityPunctuation.grant(["C", "D"], ts=1.0, provider="p")
        line = encode_element(sp)
        for d in (sp.with_ts(2.0), sp.with_sign(Sign.NEGATIVE),
                  sp.with_roles(["E"])):
            assert encode_element(d) == fresh_line(d) != line
        assert encode_element(sp) is line

    def test_decoded_tuple_adopts_values_and_stays_a_value(self):
        line = encode_element(DataTuple("s", 1, {"v": [1, 2]}, 1.0))
        a, b = decode_element(line), decode_element(line)
        assert a == b and a.values is not b.values
        assert encode_element(a) == line

    @given(punctuated_streams())
    @settings(max_examples=40, deadline=None)
    def test_memoised_line_is_the_plain_json_dumps(self, elements):
        for element in elements:
            assert encode_element(element) == fresh_line(element)
            assert encode_element(element) == fresh_line(element)


#: Text the tuple line writes escaped: quotes, backslashes, control
#: characters, non-ASCII and astral code points.
hostile_text = st.text(st.sampled_from(
    ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f",
     "\x7f", "\u00e9", "\u20ac", "\u2028", "\U0001f600"]), max_size=8)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), hostile_text)
json_keys = st.one_of(hostile_text, st.integers(), st.floats(),
                      st.booleans(), st.none())
nested_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(json_keys, inner, max_size=3)),
    max_leaves=8)
tids = st.recursive(
    st.one_of(st.integers(), st.just(True), st.none(), st.floats(),
              hostile_text),
    lambda inner: st.tuples(inner, inner), max_leaves=4)
timestamps = st.one_of(
    st.floats(), st.integers(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))


def record_line(sid, tid, values, ts) -> str:
    """What the wire wrote before tuple lines were built field by
    field: the record dict through a plain ``JSONEncoder``."""
    return json.JSONEncoder(separators=(",", ":")).encode(
        {"k": "t", "sid": sid, "tid": tid, "v": values, "ts": ts})


class TestTupleLineBytes:
    @given(st.one_of(hostile_text, st.integers()), tids,
           st.dictionaries(json_keys, nested_values, max_size=4),
           timestamps)
    @settings(max_examples=300, deadline=None)
    def test_line_is_the_record_dict_encoding(self, sid, tid, values, ts):
        t = DataTuple(sid, tid, values, ts)
        assert encode_element(t) == record_line(sid, tid, values, ts)

    @pytest.mark.parametrize("sid, tid, values", [
        ("s", 1, {"v": object()}),
        ("s", 1, {"v": [1, {2: {3}}]}),
        (object(), 1, {"v": 1}),
        ("s", (1, (2, b"x")), {"v": 1}),
        ("s", 1, {(1, 2): 1}),
    ])
    def test_an_unserialisable_tuple_raises_and_memoises_nothing(
            self, sid, tid, values):
        t = DataTuple(sid, tid, values, 1.0)
        with pytest.raises(TypeError) as expected:
            record_line(sid, tid, values, 1.0)
        for _ in range(2):  # the second try fails the same way
            with pytest.raises(TypeError) as raised:
                encode_element(t)
            assert str(raised.value) == str(expected.value)
            assert t._line is None
        ok = DataTuple("s", 2, {"v": [1, {"w": 2}]}, 2.0)
        assert encode_element(ok) == fresh_line(ok)

    def test_without_the_c_accelerator_the_line_is_the_same(
            self, monkeypatch):
        t = DataTuple("sé", (1, True), {"v": [1.5, None], 2: "x"},
                      math.inf)
        expected = record_line(t.sid, t.tid, t.values, t.ts)
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        try:
            importlib.reload(wire)
            assert wire._value is wire._encode
            assert wire.encode_element(t) == expected
        finally:
            monkeypatch.undo()
            importlib.reload(wire)

    def test_a_circular_value_raises_as_the_record_dict_did(self):
        inner: list = []
        inner.append(inner)
        t = DataTuple("s", 1, {"v": inner}, 1.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="Circular reference"):
                encode_element(t)
            assert t._line is None


class TestSpLineBytes:
    @pytest.mark.parametrize("provider", [None, "synth", "prov\u00e9-\u20ac"])
    def test_line_is_the_compact_json_dumps_and_round_trips(self, provider):
        sp = SecurityPunctuation.grant(["C", "D"], ts=3.5, provider=provider)
        record = {"k": "sp", "sp": sp.to_text()}
        if provider is not None:
            record["p"] = provider
        line = encode_element(sp)
        assert line == json.dumps(record, separators=(",", ":"))
        back = decode_element(line)
        assert back == sp and back.provider == provider
        assert encode_element(back) == line


class TestErrors:
    def test_malformed_json(self):
        with pytest.raises(StreamError):
            decode_element("{not json")

    def test_surrounding_whitespace_is_not_garbage(self):
        line = encode_element(DataTuple("s", 1, {"v": 1}, 1.0))
        assert decode_element(f"  {line}\r\n").tid == 1

    def test_a_nan_tuple_timestamp_is_not_a_number(self):
        """NaN is in no timestamp order; ±inf are, as for sps."""
        line = '{"k":"t","sid":"s","tid":1,"v":{},"ts":%s}'
        with pytest.raises(StreamError, match='"ts" is not a number'):
            decode_element(line % "NaN")
        assert decode_element(line % "Infinity").ts == math.inf
        assert decode_element(line % "-Infinity").ts == -math.inf

    @pytest.mark.parametrize("line", [
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":1} {"k":"t"}',
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":1}]',
        "[1,2]", '"t"', "7", "null",
        '{"k":"t"}',
        '{"k":"t","tid":1,"v":{},"ts":1}',
        '{"k":"t","sid":"s","v":{},"ts":1}',
        '{"k":"t","sid":"s","tid":1,"ts":1}',
        '{"k":"t","sid":"s","tid":1,"v":{}}',
        '{"k":"t","sid":"s","tid":1,"v":[1],"ts":1}',
        '{"k":"t","sid":"s","tid":1,"v":null,"ts":1}',
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":null}',
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":"soon"}',
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":[1]}',
        '{"k":"t","sid":"s","tid":1,"v":{},"ts":1%s}' % ("0" * 400),
        '{"k":"t","sid":"s","tid":{},"v":{},"ts":1}',
        '{"k":"t","sid":"s","tid":[1,[2,{}]],"v":{},"ts":1}',
        '{"k":"sp"}',
        '{"k":"sp","sp":5}',
    ])
    def test_valid_json_but_not_a_record(self, line):
        # A hostile provider gets a StreamError (a ReproError, which
        # the CLI reports as ``error: ...``), never a bare
        # AttributeError / KeyError / TypeError / ValueError.
        with pytest.raises(StreamError, match="malformed wire line"):
            decode_element(line)

    @pytest.mark.parametrize("body, error", [
        ("not an sp", PunctuationError),
        ("<*, *, * | {a} | ? | F | 1.0>", PunctuationError),
        ("<*, *, * | {} | + | F | 1.0>", PatternError),
    ])
    def test_malformed_sp_body_keeps_its_own_error(self, body, error):
        with pytest.raises(error):
            decode_element('{"k":"sp","sp":"%s"}' % body)

    def test_unknown_kind(self):
        with pytest.raises(StreamError):
            decode_element('{"k": "mystery"}')

    def test_non_element_rejected(self):
        with pytest.raises(StreamError):
            encode_element("a plain string")


class TestRoleNamesAreNames:
    """A role token on the wire is a name, never a number: ``1_0`` is
    not ``10``, so the wire cannot hand a segment to another role."""

    @staticmethod
    def deliveries(elements) -> dict[str, list]:
        dsms = DSMS()
        dsms.register_stream(StreamSchema("s", ("a",)), elements)
        dsms.register_query("ten", ScanExpr("s"), roles={"10"})
        dsms.register_query("one_zero", ScanExpr("s"), roles={"1_0"})
        return {name: [t.tid for t in result.tuples]
                for name, result in dsms.run().items()}

    def test_wire_lines_deliver_what_the_objects_deliver(self):
        elements = [SecurityPunctuation.grant(["1_0"], 1.0),
                    DataTuple("s", 1, {"a": 1}, 2.0)]
        wire = [encode_element(e) for e in elements]
        expected = {"ten": [], "one_zero": [1]}
        assert self.deliveries(elements) == expected
        assert self.deliveries(list(load_stream(wire))) == expected

    @pytest.mark.parametrize("text, names", [
        ("{007, x}", {"007", "x"}),
        ("1_0", {"1_0"}),
        ("{1e3, 1_0, 007}", {"1e3", "1_0", "007"}),
        ("{007, x}|1e3", {"007", "x", "1e3"}),
    ])
    def test_role_tokens_keep_their_spelling(self, text, names):
        assert SecurityRestriction.parse(text).concrete_roles() == names

    def test_union_with_a_regex_part_keeps_the_names(self):
        srp = SecurityRestriction.parse("{007, x}|/r[0-9]/")
        assert srp.concrete_roles() is None
        assert srp.resolve(["007", "7", "x", "r1", "r10"]) == {
            "007", "x", "r1"}


class TestPropertyRoundTrip:
    @given(punctuated_streams())
    @settings(max_examples=40, deadline=None)
    def test_any_stream_round_trips(self, elements):
        buffer = io.StringIO()
        dump_stream(elements, buffer)
        buffer.seek(0)
        loaded = list(load_stream(buffer))
        assert len(loaded) == len(elements)
        for original, back in zip(elements, loaded):
            assert type(original) is type(back)
            assert original.ts == back.ts
            if isinstance(original, SecurityPunctuation):
                assert original.roles() == back.roles()
            else:
                assert original == back
