"""Data tuples.

Tuples in the stream have the form ``t = [sid, tid, A, ts]`` (paper
Section II.B): ``sid`` is the stream identifier, ``tid`` the tuple
identifier (similar to a primary key — e.g. a patient id), ``A`` the
attribute values and ``ts`` the timestamp.  Timestamps of stream
elements are assumed ordered.

Tuples are deliberately unaware of security punctuations: all policy
state lives in the operators, never on the tuple (that is the whole
point of the punctuation-based approach versus the tuple-embedded
baseline in :mod:`repro.baselines.tuple_embedded`).

A tuple is a *value object*: its four fields are set by the constructor
and never assigned afterwards — ``__hash__`` has always assumed so, and
the wire layer relies on it to serialise a delivered tuple once however
many queries receive it (see :func:`repro.stream.wire.encode_element`).
Operators that change a tuple (``project``, ``merge``) build a new one.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["DataTuple"]


def _rebuild(sid: str, tid: object, values: dict,
             ts: float) -> "DataTuple":
    """Fast path for a ``values`` dict nobody else holds (unpickling,
    wire decode): skip the constructor's defensive copy."""
    tup = DataTuple.__new__(DataTuple)
    tup.sid = sid
    tup.tid = tid
    tup.values = values
    tup.ts = ts
    tup._line = None
    return tup


class DataTuple:
    """One data tuple: ``[sid, tid, A, ts]``.

    A value object: do not assign ``sid``/``tid``/``values``/``ts`` (or
    mutate ``values``) after construction.  ``_line`` is the tuple's
    wire line once :func:`repro.stream.wire.encode_element` has built
    it, ``None`` before; only that function writes it, and it takes no
    part in equality, hashing, ``repr`` or pickling.
    """

    __slots__ = ("sid", "tid", "values", "ts", "_line")

    def __init__(self, sid: str, tid: object, values: Mapping[str, object],
                 ts: float):
        self.sid = sid
        self.tid = tid
        self.values = dict(values)
        self.ts = ts
        self._line = None

    def __reduce__(self):
        # Generic slotted-object pickling builds a per-object state
        # dict (``_line`` included) and replays it through
        # ``__setstate__``.  A plain constructor tuple ships the fields
        # only and roughly halves both pickling directions.
        return (_rebuild, (self.sid, self.tid, self.values, self.ts))

    def __getitem__(self, attribute: str) -> object:
        return self.values[attribute]

    def get(self, attribute: str, default: object = None) -> object:
        return self.values.get(attribute, default)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.values

    def attributes(self) -> tuple[str, ...]:
        return tuple(self.values)

    def project(self, attributes) -> "DataTuple":
        """New tuple keeping only ``attributes`` (same sid/tid/ts)."""
        return DataTuple(
            self.sid, self.tid,
            {a: self.values[a] for a in attributes if a in self.values},
            self.ts,
        )

    def merge(self, other: "DataTuple", sid: str) -> "DataTuple":
        """Join-result tuple: union of attributes, other's clashes prefixed.

        The result timestamp is the max of the inputs, per the usual
        sliding-window join convention; the tid pairs both tids.
        """
        values = dict(self.values)
        for attr, value in other.values.items():
            if attr in values:
                values[f"{other.sid}.{attr}"] = value
            else:
                values[attr] = value
        return DataTuple(sid, (self.tid, other.tid), values,
                         max(self.ts, other.ts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataTuple):
            return NotImplemented
        return (self.sid == other.sid and self.tid == other.tid
                and self.ts == other.ts and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.sid, self.tid, self.ts,
                     tuple(sorted(self.values.items(), key=lambda kv: kv[0]))))

    def __repr__(self) -> str:
        return (f"DataTuple(sid={self.sid!r}, tid={self.tid!r}, "
                f"values={self.values!r}, ts={self.ts})")
