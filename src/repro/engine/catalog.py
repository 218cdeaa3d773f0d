"""Stream catalog: registered streams and their sources."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import StreamError
from repro.stream.schema import StreamSchema
from repro.stream.source import StreamSource

__all__ = ["RegisteredStream", "StreamCatalog"]


@dataclass
class RegisteredStream:
    """One stream known to the DSMS."""

    schema: StreamSchema
    source: StreamSource | None


class StreamCatalog:
    """Registry of input streams."""

    def __init__(self):
        self._streams: dict[str, RegisteredStream] = {}

    def register(self, schema: StreamSchema,
                 source: StreamSource | None = None) -> None:
        stream_id = schema.stream_id
        if stream_id in self._streams:
            raise StreamError(f"stream {stream_id!r} already registered")
        self._streams[stream_id] = RegisteredStream(schema, source)

    def get(self, stream_id: str) -> RegisteredStream:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StreamError(f"unknown stream: {stream_id!r}") from None

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def stream_ids(self) -> list[str]:
        return sorted(self._streams)

    def sources(self) -> list[StreamSource]:
        return [reg.source for reg in self._streams.values()
                if reg.source is not None]
