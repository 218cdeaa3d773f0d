"""Pipelined plan execution.

The executor consumes one feed of ``(stream_id, element)`` pairs in
timestamp order and pushes each element depth-first through the
operator DAG: an operator's output elements are delivered to its
downstream operators before the next input element is consumed.  This
is the synchronous equivalent of a pipelined DSMS scheduler and keeps
executions fully deterministic (the property the plan-equivalence
tests build on).

There is one execution mode.  An element of the feed is a security
punctuation, a data tuple, or a :class:`~repro.stream.batch.TupleBatch`
— a run of consecutive same-stream tuples between sps, i.e. a piece of
one s-punctuated segment, the paper's decision unit.  A run goes
through operators' :meth:`~repro.operators.base.Operator.process_batch`
(a Security Shield passes or drops a whole uniform segment in O(1);
select/project filter and map runs in single comprehensions; operators
without a native batch path loop per tuple); a bare element — an sp, a
run of one, or anything a :class:`~repro.engine.session.StreamingSession`
pushes — goes through :meth:`~repro.operators.base.Operator.process`,
the run-of-one specialisation of the same path.  How sources are cut
into runs is :func:`repro.stream.batch.segment_feed`'s business, not
the executor's.  Results, counters and each operator's audit decision
sequence do not depend on the cut; an attached audit log changes
nothing about dispatch (a verdict over a run is one run record), so
the interleaving of audit events *across* operators follows the cut
and is not part of the contract.

An element first meets its stream's entry gate
(:class:`~repro.engine.plan.EntryGate`, one per stream): it holds an
sp-batch until the segment's first tuple, runs the SP Analyzer on it
as it closes it, then hands the batch on normalised — or, on a gated
stream, drops the segment when its plain grant names no role of any
query reading the stream.  That is the one place where ``run`` and
``feed`` do more than push, and the one place an sp-batch is held:
``run`` and a session feed raw sps, and :meth:`_flush` closes a
trailing batch.

The push loop is iterative, so deep plans never hit Python's recursion
limit and per-element call overhead stays flat.  Its first hop is a
walk over the stream's entry targets (sibling selects are one
:class:`SelectGroup` target); the explicit work stack (LIFO with
reversed pushes to preserve depth-first order) exists only below a hop
that emitted something, so an element every query rejects at its first
operator costs the executor one loop step per target and nothing else.

Observability: with a :class:`~repro.observability.Tracer` the
executor opens one trace per feed element and emits the
``executor.run.*`` / ``executor.flush`` control spans (``None``, the
default, traces nothing); at the end of a run it snapshots every
operator's :class:`~repro.observability.StageStats` into the
:class:`ExecutionReport` — the per-stage breakdown the ``repro stats``
CLI prints.
"""

from __future__ import annotations

from time import perf_counter, perf_counter_ns
from typing import Iterable, Sequence

from repro.engine.plan import PhysicalPlan, PlanNode, SelectGroup
from repro.observability.provenance import Tracer
from repro.observability.stats import StageStats, aggregate_stages
from repro.core.punctuation import SecurityPunctuation
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement

__all__ = ["Executor", "ExecutionReport"]

#: The site of a stream no operator reads.
_NO_SITE = ((), False, None)


class ExecutionReport:
    """Summary of one plan execution, including per-stage metrics."""

    __slots__ = ("elements_in", "tuples_in", "sps_in", "wall_time",
                 "entry_drops", "_stages", "_stage_index")

    def __init__(self):
        self.elements_in = 0
        self.tuples_in = 0
        self.sps_in = 0
        self.wall_time = 0.0
        #: Tuples the stream entries dropped (no operator stage saw them).
        self.entry_drops = 0
        self.stages = []

    @property
    def stages(self) -> list[StageStats]:
        """Per-operator :class:`StageStats` snapshots (plan order)."""
        return self._stages

    @stages.setter
    def stages(self, stages: "Iterable[StageStats]") -> None:
        self._stages = list(stages)
        # Name lookup index, built once per snapshot; the first stage
        # wins on (unusual) duplicate names, matching the semantics of
        # the linear scan this replaces.
        index: dict[str, StageStats] = {}
        for stage in self._stages:
            index.setdefault(stage.name, stage)
        self._stage_index = index

    def stage(self, name: str) -> StageStats | None:
        """The snapshot of the operator named ``name``, if present."""
        return self._stage_index.get(name)

    def totals(self) -> dict:
        """Whole-plan aggregates across all stages."""
        return aggregate_stages(self._stages)

    @property
    def total_drops(self) -> int:
        return sum(stage.drops for stage in self._stages)

    def __repr__(self) -> str:
        return (f"ExecutionReport(elements={self.elements_in}, "
                f"wall={self.wall_time:.4f}s, "
                f"stages={len(self._stages)})")


class Executor:
    """Drives a physical plan over a feed of stream elements."""

    def __init__(self, plan: PhysicalPlan,
                 *, tracer: Tracer | None = None,
                 instruments=None):
        self.plan = plan
        gates = plan.entry_gates()
        #: stream id -> ``(hops, serial, entry gate or None)``.
        self._sites = {stream_id: (hops, serial, gates.get(stream_id))
                       for stream_id, (hops, serial)
                       in plan.push_sites().items()}
        self._groups = [hop for hops, _, _ in self._sites.values()
                        for hop in hops if type(hop) is SelectGroup]
        #: ``None`` = tracing off.
        self.tracer = tracer
        #: Engine metric instruments (``None`` = metrics off; the run
        #: loop then pays one ``is None`` check per element).
        self.instruments = instruments

    def run(self, feed: "Iterable[tuple[str, object]]") -> ExecutionReport:
        """Consume ``feed`` to exhaustion, then flush the plan.

        ``feed`` yields ``(stream_id, sp | DataTuple | TupleBatch)`` in
        execution order — :func:`repro.stream.batch.segment_feed` over
        the sources, sps as the providers sent them.  The report counts
        the feed's elements, so it equals a session's pushed the same
        elements.
        """
        report = ExecutionReport()
        tracer = self.tracer
        if tracer is not None:
            tracer.span("executor.run.start",
                        operators=len(self.plan.nodes))
        start = perf_counter()
        feed_one = self.feed
        instruments = self.instruments
        sp_type = SecurityPunctuation
        # Report counters accumulate in locals — one attribute store
        # after the loop instead of three loads+stores per element.
        elements_in = tuples_in = sps_in = 0
        for stream_id, element in feed:
            if instruments is not None:
                instruments.ingest_wall = perf_counter()
            if type(element) is TupleBatch:
                size = len(element.tuples)
                elements_in += size
                tuples_in += size
                if instruments is not None:
                    instruments.tuples_in.inc(size)
                if tracer is not None:
                    tracer.begin("batch", stream=stream_id, size=size)
            elif isinstance(element, sp_type):
                elements_in += 1
                sps_in += 1
                if instruments is not None:
                    instruments.sps_in.inc()
                if tracer is not None:
                    tracer.begin("sp", stream=stream_id, ts=element.ts)
            else:
                elements_in += 1
                tuples_in += 1
                if instruments is not None:
                    instruments.tuples_in.inc()
                if tracer is not None:
                    tracer.begin("tuple", stream=stream_id,
                                 ts=element.ts)
            feed_one(stream_id, element)
        report.elements_in = elements_in
        report.tuples_in = tuples_in
        report.sps_in = sps_in
        self._flush()
        report.wall_time = perf_counter() - start
        if instruments is not None:
            instruments.ingest_wall = None
            instruments.runs.inc()
            instruments.run_seconds.observe(report.wall_time)
        report.stages = self.stage_stats()
        report.entry_drops = self.entry_drops()
        if tracer is not None:
            tracer.span("executor.run.end",
                        elements_in=report.elements_in,
                        tuples_in=report.tuples_in,
                        sps_in=report.sps_in,
                        drops=report.total_drops,
                        wall_time=report.wall_time)
        return report

    def stage_stats(self) -> list[StageStats]:
        """Current per-operator metric snapshots (plan order)."""
        self._settle()
        return [node.operator.stage_stats() for node in self.plan.nodes]

    def entry_drops(self) -> int:
        """Tuples the stream entries dropped so far."""
        return sum(gate.dropped for _, _, gate in self._sites.values()
                   if gate is not None)

    def feed(self, stream_id: str, element: StreamElement) -> None:
        """Push one element into the plan (incremental driving).

        The stream's entry gate holds an sp and decides a tuple or run;
        what it lets on is pushed.
        """
        hops, serial, gate = self._sites.get(stream_id, _NO_SITE)
        if gate is not None:
            if type(element) is SecurityPunctuation:
                gate.observe_sp(element)
                return
            sps = gate.admit(element)
            if sps is None:
                return
            for sp in sps:
                self._push(hops, serial, sp)
        self._push(hops, serial, element)

    def _push(self, targets: "Sequence[tuple[PlanNode, int] | SelectGroup]",
              serial: bool, element) -> None:
        """Deliver ``element`` (or a TupleBatch) depth-first to each
        ``(node, port)`` of ``targets`` in turn.

        Iterative equivalent of the recursive push.  The first hop is
        the plain walk over ``targets``; only a hop that emitted
        something into a node with a downstream puts work on the stack
        (LIFO, pushed in reverse so outputs and fan-out edges are
        processed in plan order), and a target's subtree is drained
        before the next target is entered — the exact delivery order of
        the recursive formulation, without per-element Python frames
        and at no executor cost for a hop that emits nothing (a group is
        one hop; a serial site goes tuple by tuple, see ``push_sites``).

        While the current trace is head-sampled, every operator
        invocation is timed on the monotonic clock and emitted as a
        child span of the element's root span (chains of operators nest
        via the parent span id each stack entry carries), and
        per-operator latency histograms get exemplars pointing at the
        live trace — extra cost bounded by the sampling rate.
        """
        if serial and type(element) is TupleBatch:
            for item in element.tuples:
                self._push(targets, False, item)
            return
        tracer = self.tracer
        if tracer is not None and not tracer.active:
            tracer = None
        root = tracer._root_id if tracer is not None else 0
        stack: list[tuple[PlanNode, object, int, int]] = []
        for target in targets:
            if type(target) is SelectGroup:
                for node, outputs, parent in reversed(
                        self._hop_group(target, element, tracer, root)):
                    for out in reversed(outputs):
                        for child, child_port in reversed(node.downstream):
                            stack.append((child, out, child_port, parent))
                if not stack:
                    continue
                node, item, port, parent = stack.pop()
            else:
                node, port = target
                item, parent = element, root
            while True:
                operator = node.operator
                batch = type(item) is TupleBatch
                if tracer is None:
                    outputs = (operator.process_batch(item, port) if batch
                               else operator.process(item, port))
                else:
                    rows = len(item.tuples) if batch else 1
                    begun = perf_counter_ns()
                    outputs = (operator.process_batch(item, port) if batch
                               else operator.process(item, port))
                    dur_ns = perf_counter_ns() - begun
                    parent = tracer.op_span("op.process", parent, dur_ns,
                                            operator=operator.name,
                                            rows=rows)
                    if operator._m_latency is not None:
                        operator._m_latency.exemplar(dur_ns / rows * 1e-9,
                                                     tracer.trace_id)
                if outputs and (downstream := node.downstream):
                    if node.serial:
                        outputs = _tuple_by_tuple(outputs)
                    for out in reversed(outputs):
                        for child, child_port in reversed(downstream):
                            stack.append((child, out, child_port, parent))
                if not stack:
                    break
                node, item, port, parent = stack.pop()

    def _hop_group(self, group: SelectGroup, element, tracer, root) -> list:
        """``(node, outputs, parent span)`` of each member that emitted.

        An sp hop and a run no member passes call no member: the group
        counts them, O(1) in its size.  A passing run calls only its
        passers' ``emit`` (and, once a segment, ``hold``); the group's
        counts reach its members when :meth:`stage_stats` or
        :meth:`_flush` settles it (:class:`SelectGroup`).  A traced hop
        is one ``op.process`` span (no exemplar), the parent of what
        members emit."""
        start = perf_counter()
        if type(element) is SecurityPunctuation:
            group.add_sp(element)
            rows, passing = 1, ()
        else:
            run = element.tuples if type(element) is TupleBatch else (element,)
            rows, passing = len(run), group.passing(run)
            group.tuples += rows
            if passing:
                emitted = group.emit(rows, passing, run)
        elapsed = perf_counter() - start
        group.hops += 1
        group.seconds += elapsed
        if tracer is not None:
            root = tracer.op_span("op.process", root, round(elapsed * 1e9),
                                  operator=group.name, members=group.members,
                                  rows=rows)
        if not passing:
            return []
        return [(node, _tuple_by_tuple(out) if node.serial else out, root)
                for node, out in emitted]

    def _settle(self, end: bool = False) -> None:
        """Credit and level every selection group's members (at the
        ``end`` of the stream, as their ``flush`` would)."""
        for group in self._groups:
            group.settle(end)

    def _flush(self) -> None:
        """End-of-stream: close each entry's trailing sp-batch, then
        flush operators in topological order."""
        if self.tracer is not None:
            self.tracer.span("executor.flush")
        self._settle(end=True)
        for _, _, gate in self._sites.values():
            if gate is not None:
                gate.close()
        for node in self.plan.topological():
            for out in node.operator.flush():
                self._push(node.downstream, node.serial, out)


def _tuple_by_tuple(elements: list) -> list:
    return [item for element in elements for item in (
        element.tuples if type(element) is TupleBatch else (element,))]
