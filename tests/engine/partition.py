"""Segment-granular stream partitioning, as a tested theorem.

The engine runs in one process and applies no partitioning (see
docs/PERFORMANCE.md, "Why there is no sharded executor").  This
module lives beside its property suite, ``test_partitioner``, which
shows that a punctuated stream cut on segment boundaries loses no
policy scope: the evidence any future parallel design would start
from.

The paper's s-punctuated segments are self-contained policy scopes:
the :class:`~repro.operators.base.PolicyTracker` contract says a
finalized sp-batch *replaces* the whole governing policy, and batches
older than the current policy timestamp are discarded as stale.  A
(sp-batch, tuple-run) pair — one segment — therefore carries every
fact needed to resolve its own tuples, which makes whole segments the
natural unit of parallelism: no sp needs to be broadcast across
shards.

This module implements that unit:

* :func:`split_chunks` cuts a stream's element list into *chunks* —
  one sp-batch (maximal adjacent same-ts sp run) plus the tuples it
  governs, or a leading tuple-only run (the denial-by-default
  prefix).
* :func:`assign_chunks` / :func:`partition_stream` hash each chunk
  onto a shard with a stable (process-independent) FNV-1a hash of the
  segment's identity, keeping same-anchor segments together so the
  merge below stays deterministic.
* :func:`merge_chunk_runs` reassembles per-shard *output* chunk runs
  into the exact single-stream order: per-stream sp-batch timestamps
  are strictly increasing and segments are contiguous, so sorting
  chunks by ``(anchor ts, shard, sequence)`` reconstructs the
  unsharded output.

The one cross-segment dependency in the model is the *incremental*
sp (it edits the previous policy instead of replacing it), so any
stream that carries incremental sps is pinned whole onto a single
shard instead of being split.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.punctuation import SecurityPunctuation
from repro.stream.element import StreamElement

__all__ = [
    "Chunk",
    "NO_ANCHOR",
    "assign_chunks",
    "chunk_runs",
    "merge_chunk_runs",
    "partition_spans",
    "partition_stream",
    "slice_spans",
    "shard_of",
    "split_chunks",
    "stable_hash",
]

#: Anchor timestamp of a chunk with no sp-batch prefix (tuples that
#: arrive before any sp — the denial-by-default prefix).  Sorts before
#: every real sp-batch timestamp.
NO_ANCHOR = float("-inf")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def stable_hash(text: str) -> int:
    """64-bit FNV-1a of ``text`` (UTF-8).

    Python's builtin ``hash`` is salted per process
    (``PYTHONHASHSEED``), which would scatter a segment's elements
    differently on every run; shard routing must instead be a pure
    function of the segment identity so reproducers replay and
    restarted workers agree.
    """
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * _FNV_PRIME) & _MASK64
    return value


def shard_of(key: str, n_shards: int) -> int:
    """The shard a partition key routes to."""
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    return stable_hash(key) % n_shards


@dataclass(frozen=True)
class Chunk:
    """One partition unit: an sp-batch and the tuple run it governs.

    ``start``/``stop`` index into the stream's element list;
    ``tuples_at`` marks where the chunk's sp prefix ends (equal to
    ``start`` for the leading tuple-only chunk).  ``anchor_ts`` is the
    sp-batch timestamp (:data:`NO_ANCHOR` for the denial prefix) and
    orders chunks within a stream; ``key`` is the stable routing
    identity.
    """

    sid: str
    start: int
    stop: int
    tuples_at: int
    anchor_ts: float
    first_tid: object | None

    @property
    def key(self) -> str:
        """Stable partition key: the segment's object identity.

        Segments with tuples route by their first tuple id (the
        "object id" of the run); empty segments route by their batch
        timestamp.  Both are pure stream content, so the key is
        identical across processes and runs.
        """
        if self.first_tid is not None:
            return f"{self.sid}|{self.first_tid}"
        return f"{self.sid}|sp|{self.anchor_ts!r}"


def split_chunks(sid: str,
                 elements: "list[StreamElement]") -> "list[Chunk]":
    """Cut one stream's elements into segment chunks, in order.

    A chunk is a maximal adjacent same-ts sp run (one sp-batch — the
    tracker finalizes a batch when the sp timestamp changes *or* a
    tuple arrives, so a same-ts sp run after tuples is a new batch)
    followed by the tuples it governs.  Tuples before the first sp
    form a leading anchor-less chunk.  Concatenating the chunks in
    order reproduces ``elements`` exactly.
    """
    sp_type = SecurityPunctuation
    flags = [isinstance(element, sp_type) for element in elements]
    n = len(elements)
    chunks: "list[Chunk]" = []
    start = 0
    if n and not flags[0]:
        try:
            stop = flags.index(True)
        except ValueError:
            stop = n
        chunks.append(Chunk(sid, 0, stop, 0, NO_ANCHOR,
                            elements[0].tid))
        start = stop
    while start < n:
        batch_ts = elements[start].ts
        tuples_at = start + 1
        while (tuples_at < n and flags[tuples_at]
               and elements[tuples_at].ts == batch_ts):
            tuples_at += 1
        try:
            stop = flags.index(True, tuples_at)
        except ValueError:
            stop = n
        first_tid = (elements[tuples_at].tid
                     if tuples_at < stop else None)
        chunks.append(Chunk(sid, start, stop, tuples_at, batch_ts,
                            first_tid))
        start = stop
    return chunks


def assign_chunks(chunks: "list[Chunk]",
                  n_shards: int) -> "list[int]":
    """Shard index per chunk (hash routing with same-anchor chaining).

    Consecutive chunks sharing one anchor timestamp (possible only
    when a same-ts sp-batch re-opens after tuples) are chained onto
    one shard: the output merge orders chunks by anchor, and equal
    anchors on *different* shards would make that order depend on the
    shard layout instead of the stream alone.
    """
    shards: "list[int]" = []
    prev_anchor: float | None = None
    prev_shard = 0
    for chunk in chunks:
        if shards and chunk.anchor_ts == prev_anchor:
            shard = prev_shard
        else:
            shard = shard_of(chunk.key, n_shards)
        shards.append(shard)
        prev_anchor = chunk.anchor_ts
        prev_shard = shard
    return shards


def _has_incremental(elements: "list[StreamElement]",
                     chunks: "list[Chunk]") -> bool:
    """Whether any sp of the stream is incremental (scan sp runs only)."""
    for chunk in chunks:
        for index in range(chunk.start, chunk.tuples_at):
            if elements[index].incremental:
                return True
    return False


def partition_spans(sid: str, elements: "list[StreamElement]",
                    n_shards: int) -> "list[list[tuple[int, int]]]":
    """Per-shard ``(start, stop)`` index spans over one stream.

    Same routing as :func:`partition_stream`, but the scatter is left
    to the consumer: fork-started workers slice their own sub-stream
    out of the copy-on-write inherited element list, which takes the
    O(n) reference copying off the coordinator's serial path.
    Adjacent chunks routed to one shard coalesce into a single span.
    """
    n = len(elements)
    if n_shards == 1:
        return [[(0, n)] if n else []]
    chunks = split_chunks(sid, elements)
    spans: "list[list[tuple[int, int]]]" = [[] for _ in range(n_shards)]
    if _has_incremental(elements, chunks):
        if n:
            spans[shard_of(sid, n_shards)].append((0, n))
        return spans
    for chunk, shard in zip(chunks, assign_chunks(chunks, n_shards)):
        runs = spans[shard]
        if runs and runs[-1][1] == chunk.start:
            runs[-1] = (runs[-1][0], chunk.stop)
        else:
            runs.append((chunk.start, chunk.stop))
    return spans


def slice_spans(elements: "list[StreamElement]",
                spans: "list[tuple[int, int]]",
                ) -> "list[StreamElement]":
    """Materialize one shard's sub-stream from its index spans."""
    part: "list[StreamElement]" = []
    for start, stop in spans:
        part.extend(elements[start:stop])
    return part


def partition_stream(sid: str, elements: "list[StreamElement]",
                     n_shards: int) -> "list[list[StreamElement]]":
    """Partition one stream's elements across ``n_shards`` sub-streams.

    Whole chunks are routed (never split), per-shard order preserves
    stream order, and the concatenation of all sub-streams is a
    permutation of ``elements``.  Streams carrying incremental sps are
    pinned whole onto one shard (the incremental batch edits the
    *previous* policy, so its segment is not self-contained).
    """
    if n_shards == 1:
        return [list(elements)]
    return [slice_spans(elements, spans)
            for spans in partition_spans(sid, elements, n_shards)]


def chunk_runs(sid: str, elements: "list[StreamElement]"
               ) -> "list[tuple[float, list[StreamElement]]]":
    """One shard output as ``(anchor ts, elements)`` runs, in order.

    Workers pre-chunk their own outputs (in parallel) so the
    coordinator's merge is a sort of a few hundred run headers plus
    pointer-level concatenation, not a per-element pass.
    """
    return [(chunk.anchor_ts, elements[chunk.start:chunk.stop])
            for chunk in split_chunks(sid, elements)]


def merge_chunk_runs(
    per_shard_runs: "list[list[tuple[float, list[StreamElement]]]]",
) -> "list[StreamElement]":
    """Reassemble per-shard output runs into single-stream order.

    Sorting by ``(anchor ts, shard, run sequence)`` is exact: sp-batch
    timestamps strictly increase within each input stream (same-anchor
    segments are chained onto one shard by :func:`assign_chunks`), the
    operators between partition and merge are segment-local, and each
    shard's own runs are already in stream order — so the anchor order
    across shards *is* the original segment order.
    """
    ordered: "list[tuple[float, int, int, list[StreamElement]]]" = []
    for shard_idx, runs in enumerate(per_shard_runs):
        for seq, (anchor, elements) in enumerate(runs):
            ordered.append((anchor, shard_idx, seq, elements))
    ordered.sort(key=lambda item: item[:3])
    merged: "list[StreamElement]" = []
    for _, _, _, elements in ordered:
        merged.extend(elements)
    return merged
