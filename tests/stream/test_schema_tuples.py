"""Tests for stream schemas and data tuples."""

import pytest

from repro.errors import SchemaError, StreamError
from repro.stream.schema import StreamSchema
from repro.stream.stream import Stream
from repro.stream.tuples import DataTuple
from repro.stream.wire import encode_element
from repro.core.punctuation import SecurityPunctuation


class TestSchema:
    def test_attributes_and_key(self):
        schema = StreamSchema("s", ("a", "b"), key="a")
        assert schema.attributes == ("a", "b")
        assert schema.key == "a"
        assert "a" in schema and "c" not in schema
        assert len(schema) == 2

    def test_position(self):
        schema = StreamSchema("s", ("a", "b"))
        assert schema.position("b") == 1
        with pytest.raises(SchemaError):
            schema.position("zzz")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            StreamSchema("s", ("a", "a"))

    def test_key_must_be_attribute(self):
        with pytest.raises(SchemaError):
            StreamSchema("s", ("a",), key="b")

    def test_validate(self):
        schema = StreamSchema("s", ("a", "b"))
        schema.validate({"a": 1, "b": 2})
        with pytest.raises(SchemaError):
            schema.validate({"a": 1})
        with pytest.raises(SchemaError):
            schema.validate({"a": 1, "b": 2, "c": 3})

    def test_project(self):
        schema = StreamSchema("s", ("a", "b", "c"), key="a")
        projected = schema.project(["c", "a"])
        assert projected.attributes == ("a", "c")  # schema order kept
        assert projected.key == "a"
        dropped_key = schema.project(["b"])
        assert dropped_key.key is None

    def test_project_unknown_rejected(self):
        with pytest.raises(SchemaError):
            StreamSchema("s", ("a",)).project(["b"])

    def test_join_prefixes_clashes(self):
        left = StreamSchema("l", ("k", "x"))
        right = StreamSchema("r", ("k", "y"))
        joined = left.join(right, "out")
        assert joined.attributes == ("k", "x", "r.k", "y")


class TestDataTuple:
    def test_field_access(self):
        t = DataTuple("s", 1, {"a": 10, "b": 20}, 5.0)
        assert t["a"] == 10
        assert t.get("missing", -1) == -1
        assert "b" in t
        assert t.attributes() == ("a", "b")

    def test_project_keeps_identity(self):
        t = DataTuple("s", 1, {"a": 10, "b": 20}, 5.0)
        p = t.project(["a"])
        assert p.values == {"a": 10}
        assert (p.sid, p.tid, p.ts) == ("s", 1, 5.0)

    def test_merge_joins_values(self):
        left = DataTuple("l", 1, {"k": 7, "x": 1}, 1.0)
        right = DataTuple("r", 2, {"k": 7, "y": 2}, 3.0)
        merged = left.merge(right, "out")
        assert merged.sid == "out"
        assert merged.tid == (1, 2)
        assert merged.ts == 3.0  # max of inputs
        assert merged.values == {"k": 7, "x": 1, "r.k": 7, "y": 2}

    def test_equality_and_hash(self):
        a = DataTuple("s", 1, {"v": 1}, 1.0)
        b = DataTuple("s", 1, {"v": 1}, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != DataTuple("s", 1, {"v": 2}, 1.0)

    def test_wire_line_memo_is_not_part_of_the_value(self):
        a = DataTuple("s", 1, {"v": 1}, 1.0)
        b = DataTuple("s", 1, {"v": 1}, 1.0)
        before = hash(a), repr(a)
        encode_element(a)
        assert a._line is not None and b._line is None
        assert a == b and hash(a) == hash(b)
        assert (hash(a), repr(a)) == before
        assert a.__reduce__() == b.__reduce__()


class TestStreamContainer:
    def test_schema_enforced(self):
        stream = Stream(StreamSchema("s", ("a",)))
        stream.append(DataTuple("s", 1, {"a": 1}, 1.0))
        with pytest.raises(StreamError):
            stream.append(DataTuple("other", 1, {"a": 1}, 1.0))
        with pytest.raises(SchemaError):
            stream.append(DataTuple("s", 1, {"wrong": 1}, 1.0))

    def test_sps_always_allowed(self):
        stream = Stream(StreamSchema("s", ("a",)))
        stream.append(SecurityPunctuation.grant(["D"], ts=0.0))
        assert stream.sp_count() == 1

    def test_counts_and_access(self):
        stream = Stream(StreamSchema("s", ("a",)), [
            SecurityPunctuation.grant(["D"], ts=0.0),
            DataTuple("s", 1, {"a": 1}, 1.0),
            DataTuple("s", 2, {"a": 2}, 2.0),
        ])
        assert stream.tuple_count() == 2
        assert stream.sp_count() == 1
        assert len(stream) == 3
        assert stream[1].tid == 1
        assert [t.tid for t in stream.tuples()] == [1, 2]

    def test_unvalidated_mode(self):
        stream = Stream(StreamSchema("s", ("a",)), validate=False)
        stream.append(DataTuple("whatever", 1, {"x": 1}, 1.0))
        assert stream.tuple_count() == 1
