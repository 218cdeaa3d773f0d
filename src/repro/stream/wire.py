"""Wire format for punctuated streams.

Data providers transmit tuples and sps to the DSMS over a network; the
paper notes sps "can be encoded into a compact format, and in most
cases can be included into the same network message with the data".
This module provides a JSON-lines wire format for both element kinds,
with loss-less round-tripping of everything the engine uses:

* tuples: ``{"k":"t","sid":...,"tid":...,"v":{...},"ts":...}``
* sps: ``{"k":"sp","sp":"<ddp | srp | sign | imm | ts>","p":provider}``
  — the sp body reuses the paper's alphanumeric format via
  :meth:`SecurityPunctuation.to_text`.  An sp whose DDP or SRP spells
  a ``|`` of its own (a pattern union, a regex alternation) has no
  wire line: ``|`` separates the body's fields, so ``encode_element``
  refuses it with a :class:`StreamError`.

Each piece of serialisation work is done once.  Stream elements are
value objects (a :class:`DataTuple`'s fields are never assigned after
construction, a :class:`SecurityPunctuation` is frozen), so
``encode_element`` memoises the line on the element: a tuple delivered
to thirty-two queries is serialised once and the result lists share
one ``str``.  A tuple's line is written field by field around its
JSON-encoded values, with no record dict; the bytes are exactly those
a compact ``JSONEncoder`` writes for the record dict.
``decode_element`` adopts the ``"v"`` dict the JSON parser just built
instead of copying it.  A line that is not a well-formed record is a
:class:`StreamError`; a malformed sp *body* is the
:class:`PunctuationError`/:class:`PatternError` its parser raises.

``dump_stream``/``load_stream`` handle files or iterables of lines, so
a provider process can pipe its punctuated stream into the server with
nothing but line-buffered text.
"""

from __future__ import annotations

import json
from json.encoder import (  # type: ignore[attr-defined]
    c_make_encoder, encode_basestring_ascii)
from typing import IO, Callable, Iterable, Iterator

from repro.core.punctuation import SecurityPunctuation
from repro.errors import StreamError
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple, _rebuild

__all__ = ["encode_element", "decode_element", "dump_stream", "load_stream"]

# One encoder and one decoder for the module: the ``json`` module's
# ``dumps`` with ``separators=`` constructs a fresh ``JSONEncoder`` per
# call, and its ``loads`` runs two whitespace regexes around
# ``raw_decode`` (``scripts/check.sh`` keeps both out of this file).
_encode = json.JSONEncoder(separators=(",", ":")).encode
_raw_decode = json.JSONDecoder().raw_decode
_JSON_WHITESPACE = " \t\n\r"

if c_make_encoder is None:  # no ``_json`` accelerator
    _value: Callable[[object], str] = _encode
else:
    # ``_encode`` builds a fresh C encoder on every call; this is the
    # one it would build, built once.
    _markers: dict = {}
    _iterencode = c_make_encoder(
        _markers, json.JSONEncoder().default, encode_basestring_ascii,
        None, ":", ",", False, False, True)

    def _c_value(obj: object) -> str:
        """``_encode(obj)``: the same bytes, the same errors."""
        try:
            return "".join(_iterencode(obj, 0))
        except BaseException:
            # A failed call leaves its open containers in the markers,
            # so encoding them again would report a circular reference.
            _markers.clear()
            raise

    _value = _c_value


def encode_element(element: StreamElement) -> str:
    """One wire line for one stream element, built once per element."""
    if isinstance(element, DataTuple):
        line = element._line
        if line is None:
            sid, tid, ts = element.sid, element.tid, element.ts
            sid_text = (encode_basestring_ascii(sid) if type(sid) is str
                        else _value(sid))
            tid_text = str(tid) if type(tid) is int else _value(tid)
            # ``ts - ts`` is NaN for NaN and ±inf, 0.0 for a finite ts.
            ts_text = (repr(ts) if type(ts) is float and ts - ts == 0.0
                       else _value(ts))
            line = element._line = (
                f'{{"k":"t","sid":{sid_text},"tid":{tid_text},'
                f'"v":{_value(element.values)},"ts":{ts_text}}}')
        return line
    if isinstance(element, SecurityPunctuation):
        line = getattr(element, "_line_cache", None)
        if line is None:
            text = element.to_text()
            if text.count("|") != (5 if element.incremental else 4):
                raise StreamError(
                    f"sp {element.sp_id} has no wire spelling: its DDP or "
                    f"SRP contains '|', the sp field separator: {text!r}")
            record = {"k": "sp", "sp": text}
            if element.provider is not None:
                record["p"] = element.provider
            line = _value(record)
            object.__setattr__(element, "_line_cache", line)
        return line
    raise StreamError(f"not a stream element: {element!r}")


def _malformed(line: str, why: str) -> StreamError:
    return StreamError(f"malformed wire line: {why}: {line!r}")


def _as_tid(tid: object, line: str) -> object:
    """Pair tids (nested for a join of joins) travel as JSON arrays;
    a JSON object is no tid (the engine hashes tids)."""
    if type(tid) is list:
        return tuple([_as_tid(part, line) for part in tid])
    if type(tid) is dict:
        raise _malformed(line, '"tid" holds an object')
    return tid


def decode_element(line: str) -> StreamElement:
    """Parse one wire line back into a stream element."""
    line = line.strip(_JSON_WHITESPACE)
    try:
        record, end = _raw_decode(line)
    except json.JSONDecodeError as exc:
        raise _malformed(line, "not JSON") from exc
    if end != len(line):
        raise _malformed(line, "data after the record")
    if type(record) is not dict:
        raise _malformed(line, "record is not an object")
    kind = record.get("k")
    if kind == "t":
        try:
            sid, tid, values = record["sid"], record["tid"], record["v"]
            ts = float(record["ts"])
        except KeyError as exc:
            raise _malformed(line, f"missing {exc}") from None
        except (TypeError, ValueError, OverflowError):
            raise _malformed(line, '"ts" is not a number') from None
        if ts != ts:  # NaN is in no timestamp order
            raise _malformed(line, '"ts" is not a number')
        if type(values) is not dict:
            raise _malformed(line, '"v" is not an object')
        if type(tid) is list or type(tid) is dict:
            tid = _as_tid(tid, line)
        # The dict is fresh from the parser: adopt it, no copy.
        return _rebuild(sid, tid, values, ts)
    if kind == "sp":
        body = record.get("sp")
        if type(body) is not str:
            raise _malformed(line, '"sp" is missing or not a string')
        return SecurityPunctuation.parse(body, provider=record.get("p"))
    raise StreamError(f"unknown wire element kind: {kind!r}")


def dump_stream(elements: Iterable[StreamElement], fp: IO[str]) -> int:
    """Write elements as JSON lines; returns the element count."""
    count = 0
    for element in elements:
        fp.write(encode_element(element))
        fp.write("\n")
        count += 1
    return count


def load_stream(lines: Iterable[str]) -> Iterator[StreamElement]:
    """Read elements from JSON lines (a file object works directly)."""
    for line in lines:
        line = line.strip()
        if line:
            yield decode_element(line)
