"""Segment runs: batched stream elements for vectorized execution.

The paper's central efficiency argument (Figure 8a, Section V.A) is
that an sp-batch's pass/drop decision amortizes over every tuple of
its s-punctuated segment.  :class:`TupleBatch` makes that amortization
explicit in the execution layer: it is a *run* of consecutive data
tuples, all from the same source feed position, with **no intervening
security punctuation** — i.e. a (piece of a) single s-punctuated
segment.  Operators with a native batch path process the run with one
decision / one tight loop instead of one full dispatch per tuple.

A :class:`TupleBatch` is purely an execution-layer envelope:

* it never crosses an sp, so every tuple inside falls under the same
  policy state of any sp-tracking operator;
* it is immutable by convention — operators must never mutate
  ``tuples`` in place (batches may be shared across fan-out edges);
* it is transparent to results — sinks and the per-tuple fallback
  unwrap it, so a query's output does not show how its input was cut.

A run of one is never wrapped: it travels as the bare tuple and takes
an operator's ``process()`` entry, which is also the path a
:class:`~repro.engine.session.StreamingSession` push takes — the
element-wise reference the equivalence tests and the differential
oracle compare ``run()`` against.

How a feed is cut into runs is decided here and nowhere else:
:func:`segment_feed` builds the executor's input from the sources,
choosing between the single-source cutter (:func:`coalesce_stream`)
and :func:`coalesce_feed` over a timestamp merge.  Neither ever
reorders elements nor touches an sp — the SP Analyzer runs in each
stream's entry gate, for ``run()`` and a session alike — which is what
makes ``run()`` and a session pushed element by element deliver
identical results.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

from repro.core.punctuation import SecurityPunctuation
from repro.stream.source import StreamSource, merge_sources
from repro.stream.tuples import DataTuple

__all__ = ["TupleBatch", "coalesce_feed", "coalesce_stream", "segment_feed",
           "DEFAULT_MAX_BATCH"]

#: Upper bound on tuples per batch: keeps per-batch latency and peak
#: list sizes bounded on streams with very long segments.
DEFAULT_MAX_BATCH = 4096


class TupleBatch:
    """A run of data tuples governed by one sp-batch (segment run)."""

    __slots__ = ("tuples",)

    def __init__(self, tuples: list[DataTuple]):
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[DataTuple]:
        return iter(self.tuples)

    @property
    def ts(self) -> float:
        """Timestamp of the last tuple (the run's progress mark)."""
        return self.tuples[-1].ts

    def __repr__(self) -> str:
        tuples = self.tuples
        if not tuples:
            return "TupleBatch(empty)"
        return (f"TupleBatch(n={len(tuples)}, "
                f"ts={tuples[0].ts}..{tuples[-1].ts})")


def coalesce_feed(
    feed: Iterable[tuple[str, "DataTuple | SecurityPunctuation"]],
    *, max_batch: int = DEFAULT_MAX_BATCH,
) -> Iterator[tuple[str, object]]:
    """Group maximal same-stream tuple runs of ``feed`` into batches.

    ``feed`` yields ``(stream_id, element)`` pairs in execution order
    (the contract of :func:`~repro.stream.source.merge_sources`).  A
    run breaks at every security punctuation, at every stream switch,
    and at ``max_batch`` tuples.  Single-tuple runs are passed through
    unwrapped — batching them would only add envelope overhead.
    """
    run: list[DataTuple] = []
    run_sid: str | None = None
    for stream_id, element in feed:
        if isinstance(element, SecurityPunctuation):
            if run:
                yield (run_sid, run[0] if len(run) == 1
                       else TupleBatch(run))
                run = []
            yield stream_id, element
            continue
        if run and (stream_id != run_sid or len(run) >= max_batch):
            yield (run_sid, run[0] if len(run) == 1
                   else TupleBatch(run))
            run = []
        if not run:
            run_sid = stream_id
        run.append(element)
    if run:
        yield (run_sid, run[0] if len(run) == 1 else TupleBatch(run))


def coalesce_stream(
    elements: Iterable["DataTuple | SecurityPunctuation"],
    *, max_batch: int = DEFAULT_MAX_BATCH,
) -> Iterator[object]:
    """Cut one stream's elements into runs — the single-source cutter.

    The one-stream counterpart of :func:`coalesce_feed`, without the
    ``(stream_id, element)`` pairs.  Sps pass as they are: an sp-batch
    is held and analysed by the stream's entry gate, never here.  Run
    breaks (every sp, ``max_batch`` tuples) and the single-tuple unwrap
    are those of :func:`coalesce_feed`, so this yields exactly
    ``coalesce_feed`` over the same one-stream input.
    """
    # Per-element hot loop: the punctuation test is inlined and the
    # run-append bound once per run (rebound on flush — ``TupleBatch``
    # keeps the list by reference, so a run must be a fresh list).
    sp_type = SecurityPunctuation
    run: list[DataTuple] = []
    run_append = run.append
    for element in elements:
        if isinstance(element, sp_type):
            if run:
                if len(run) == 1:
                    # A singleton unwraps to the bare tuple, so nothing
                    # keeps the list — clear and reuse it (sp-dense
                    # feeds flush every element or two).
                    yield run[0]
                    run.clear()
                else:
                    yield TupleBatch(run)
                    run = []
                    run_append = run.append
            yield element
        else:
            run_append(element)
            if len(run) >= max_batch:
                if len(run) == 1:
                    yield run[0]
                    run.clear()
                else:
                    yield TupleBatch(run)
                    run = []
                    run_append = run.append
    if run:
        yield run[0] if len(run) == 1 else TupleBatch(run)


def segment_feed(
    sources: Iterable[StreamSource],
) -> Iterator[tuple[str, object]]:
    """The executor's input: every source cut into segment runs.

    Yields ``(stream_id, sp | DataTuple | TupleBatch)`` in execution
    order, sps as the sources hold them (the SP Analyzer runs in each
    stream's entry gate).  This is the one place that decides how a
    feed is cut: a single source needs no timestamp merge, so it takes
    :func:`coalesce_stream`; several sources are merged in timestamp
    order and cut by :func:`coalesce_feed`.  Both produce the same runs
    for the same elements.
    """
    sources = list(sources)
    if len(sources) == 1:
        (source,) = sources
        return zip(repeat(source.stream_id), coalesce_stream(source))
    return coalesce_feed(merge_sources(sources))
