"""Operator protocol and shared sp-tracking machinery.

Execution model (paper Section IV): queries are plans of pipelined
operators.  Each operator consumes stream elements — data tuples and
security punctuations — one at a time per input port and returns the
list of elements it emits.  Operators are synchronous, deterministic
and single-output, which the executor and the plan-equivalence tests
rely on.

Three reusable pieces live here:

* :class:`OperatorStats` — per-operator counters and accumulated
  processing time, feeding the experiment harness and the
  observability layer's stage stats.
* :class:`PolicyTracker` — the state machine every sp-aware operator
  uses to interpret arriving sps: it groups consecutive same-timestamp
  sps into sp-batches, applies ``override()`` semantics between
  batches, and resolves per-tuple policies with segment-level caching.
* :class:`SPEmitter` — deduplicating sp emission: an sp is written to
  the output only when the effective output policy actually changes,
  which is how sps stay shared across tuples downstream.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

from repro.core.policy import (EMPTY_POLICY, Policy, TuplePolicy,
                               wildcard_policy_roles)
from repro.core.punctuation import (Granularity, SecurityPunctuation,
                                    apply_incremental_batch)
from repro.errors import PlanError, PolicyError
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["OperatorStats", "Operator", "UnaryOperator", "BinaryOperator",
           "PolicyTracker", "SPEmitter", "credit"]

#: A batch's resolution scope, by the granularity of its finest sp.
_SCOPE = {Granularity.STREAM: 0, Granularity.TUPLE: 1,
          Granularity.ATTRIBUTE: 2}


#: Smoothing factor of the per-element processing-time EWMA: smaller
#: values average over a longer history, larger values track the
#: current rate more nervously.
EWMA_ALPHA = 0.05


class OperatorStats:
    """Counters and timing for one operator instance."""

    __slots__ = ("tuples_in", "tuples_out", "sps_in", "sps_out",
                 "comparisons", "state_ops", "processing_time",
                 "ewma_seconds")

    def __init__(self):
        self.tuples_in = 0
        self.tuples_out = 0
        self.sps_in = 0
        self.sps_out = 0
        #: Join-condition / policy-compatibility checks performed.
        self.comparisons = 0
        #: State maintenance operations (window inserts/expirations,
        #: index entry insertions/deletions).
        self.state_ops = 0
        #: Accumulated wall-clock seconds inside ``process()``.
        self.processing_time = 0.0
        #: EWMA of per-element processing seconds (current speed).
        self.ewma_seconds = 0.0

    def reset(self) -> None:
        self.__init__()

    def __repr__(self) -> str:
        return (f"OperatorStats(in={self.tuples_in}t/{self.sps_in}sp, "
                f"out={self.tuples_out}t/{self.sps_out}sp, "
                f"time={self.processing_time:.6f}s)")


class Operator:
    """Base class of all physical operators."""

    #: Number of input ports (1 for unary, 2 for binary operators).
    arity = 1

    def __init__(self, name: str | None = None):
        self.name = name or type(self).__name__
        self.stats = OperatorStats()
        #: Audit log to record security decisions into (set by the
        #: observability hub; ``None`` keeps the fast path silent).
        self.audit = None
        #: Query name audit events are attributed to, when known.
        self.audit_query: str | None = None
        #: Latency histogram child (bound by :meth:`bind_metrics`;
        #: ``None`` keeps the fast path to a single attribute check).
        self._m_latency = None

    def process(self, element: StreamElement,
                port: int = 0) -> list[StreamElement]:
        """Consume one element on ``port``; return emitted elements.

        Wraps :meth:`_process` with stats accounting (:func:`credit`,
        inlined); subclasses implement :meth:`_process`.
        """
        if not 0 <= port < self.arity:
            raise PlanError(f"{self.name}: invalid port {port}")
        stats = self.stats
        start = perf_counter()
        out = self._process(element, port)
        elapsed = perf_counter() - start
        stats.processing_time += elapsed
        stats.ewma_seconds += EWMA_ALPHA * (elapsed - stats.ewma_seconds)
        if self._m_latency is not None:
            self._m_latency.observe(elapsed)
        # Exact type: no sp subclass exists; all else counts as a tuple.
        if type(element) is SecurityPunctuation:
            stats.sps_in += 1
        else:
            stats.tuples_in += 1
        if out:
            for item in out:
                if type(item) is SecurityPunctuation:
                    stats.sps_out += 1
                else:
                    stats.tuples_out += 1
        return out

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        raise NotImplementedError

    # -- batched execution ------------------------------------------------
    def process_batch(self, batch: TupleBatch,
                      port: int = 0) -> list[StreamElement]:
        """Consume one segment run on ``port``; return emitted elements.

        :meth:`process` is this method's run-of-one specialisation (a
        run of one is never wrapped, and a session pushes bare
        elements).  One pair of clock reads and one :func:`credit` per
        run.  Subclasses whose work per run differs from their work
        per tuple override :meth:`_process_batch`; the default loops
        :meth:`_process`, so plans stay correct by construction.
        """
        if not 0 <= port < self.arity:
            raise PlanError(f"{self.name}: invalid port {port}")
        start = perf_counter()
        out = self._process_batch(batch, port)
        credit((self,), 1, perf_counter() - start, len(batch.tuples), 0,
               (out,))
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Per-element fallback: every operator batches correctly."""
        out: list[StreamElement] = []
        extend = out.extend
        process = self._process
        for item in batch.tuples:
            extend(process(item, port))
        return out

    def flush(self) -> list[StreamElement]:
        """Emit anything held back at end-of-stream (default: nothing)."""
        return []

    def state_size(self) -> int:
        """Number of elements held in operator state (for memory plots)."""
        return 0

    def drops(self) -> int:
        """Elements discarded for security/semantic reasons.

        Subclasses with a discard path (shields, joins, dup-elim)
        override this; transformations that merely don't emit (e.g. a
        failed selection) don't count as drops.
        """
        return 0

    def bind_metrics(self, instruments) -> None:
        """Pre-bind this operator's metric children (hub wiring).

        The base binding covers every operator: a per-operator latency
        histogram series (observed in :meth:`process` /
        :meth:`process_batch`) and a pull-mode queue-depth gauge read
        from :meth:`state_size` at collection time.  Subclasses with
        security telemetry (shields, index joins, sinks) extend this —
        always calling ``super().bind_metrics(instruments)``.
        """
        self._m_latency = instruments.operator_latency.labels(
            self.name, type(self).__name__)
        instruments.queue_depth.labels(self.name).set_function(
            self.state_size)

    def stage_stats(self) -> "StageStats":
        """Immutable snapshot of this operator's runtime metrics."""
        from repro.observability.stats import StageStats

        stats = self.stats
        return StageStats(
            name=self.name,
            kind=type(self).__name__,
            tuples_in=stats.tuples_in,
            tuples_out=stats.tuples_out,
            sps_in=stats.sps_in,
            sps_out=stats.sps_out,
            drops=self.drops(),
            comparisons=stats.comparisons,
            state_ops=stats.state_ops,
            processing_time=stats.processing_time,
            ewma_seconds=stats.ewma_seconds,
            queue_depth=self.state_size(),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def credit(operators: "Sequence[Operator]", hops: int, share: float,
           tuples: int, sps: int,
           outs: "Sequence[list[StreamElement]]") -> None:
    """Credit ``hops`` hops — ``tuples`` and ``sps`` in, ``outs`` out,
    ``share`` seconds — to each of ``operators``: one EWMA update and
    ``hops`` latency observations of the time per element."""
    per_row = share / (tuples + sps) if tuples or sps else None
    for operator, out in zip(operators, outs):
        stats = operator.stats
        stats.processing_time += share
        stats.tuples_in += tuples
        stats.sps_in += sps
        if per_row is not None:
            stats.ewma_seconds += EWMA_ALPHA * (per_row - stats.ewma_seconds)
            if operator._m_latency is not None:
                operator._m_latency.observe_many(per_row, hops)
        for item in out:
            if type(item) is TupleBatch:
                stats.tuples_out += len(item.tuples)
            elif type(item) is SecurityPunctuation:
                stats.sps_out += 1
            else:
                stats.tuples_out += 1


class UnaryOperator(Operator):
    arity = 1


class BinaryOperator(Operator):
    arity = 2


class PolicyTracker:
    """The one interpreter of an input's sp sub-stream (Section III.E).

    Maintains the *current* access policy as sps arrive:

    * consecutive sps with equal timestamps and no intervening tuple
      form an sp-batch and are interpreted as a single policy
      (union semantics); an all-incremental batch edits the policy in
      force and is replaced by its absolute equivalent;
    * a batch with a newer timestamp overrides the previous policy, an
      older (stale) one is discarded whole;
    * tuples arriving before any sp fall under denial-by-default.

    ``policy_for(t)`` resolves the current policy for a concrete tuple
    one of two ways: a lone plain grant answers with the sp's own
    :meth:`~repro.core.punctuation.SecurityPunctuation.segment_policy`,
    shared by every tracker that reads the object; any other batch
    becomes one :class:`Policy` whose answers are cached at the batch's
    scope — the finest DDP granularity among its sps: per stream id,
    per ``(sid, tid)`` or per ``(sid, tid, attribute names)``.  A batch
    is resolved by the first ``policy_for`` (or ``is_uniform``) after
    it took over, never when it is finalised, so a reader that only
    takes the pending sps — a stream's entry gate — builds no policy.
    Every sp-aware operator asks a tracker; the stateful ones (join,
    intersection) store its answers in their windows and open a
    segment from :meth:`take_pending_sps`.
    """

    __slots__ = ("stream_id", "_current_raw", "_current_ts", "_batch",
                 "_pending", "_segment_policy", "_policy", "_scope",
                 "_cache", "_resolved")

    def __init__(self, stream_id: str):
        #: Nominal input stream (informational; resolution always uses
        #: each tuple's own ``sid``, so shields placed above derived
        #: operators still match stream-scoped sps correctly).
        self.stream_id = stream_id
        #: Raw sp batch of the policy in force (``None`` before any sp).
        self._current_raw: tuple[SecurityPunctuation, ...] | None = None
        self._current_ts: float | None = None
        self._batch: list[SecurityPunctuation] = []
        self._pending: list[SecurityPunctuation] = []
        #: A lone plain grant's shared policy (the hot path).
        self._segment_policy: TuplePolicy | None = None
        #: Any other batch: its :class:`Policy`, its scope (0 stream,
        #: 1 tuple, 2 attribute) and its answers keyed at that scope.
        self._policy: Policy | None = None
        self._scope = 0
        self._cache: dict = {}
        #: Whether the current batch has been resolved (:meth:`_resolve`).
        self._resolved = True

    # -- sp arrival -------------------------------------------------------
    def observe_sp(self, sp: SecurityPunctuation) -> None:
        if self._batch and sp.ts != self._batch[0].ts:
            self._finalize_batch()
        self._batch.append(sp)

    def _finalize_batch(self) -> None:
        """Install the arrived batch as the policy in force (or discard
        it if stale); resolving it waits for the first tuple that asks
        (:meth:`_resolve`), so a reader that never asks pays nothing."""
        batch = self._batch
        if batch:
            self._install(batch, batch[0].incremental if len(batch) == 1
                          else sum(sp.incremental for sp in batch))

    def _install(self, batch: "Sequence[SecurityPunctuation]",
                 incremental: int) -> bool:
        """Close the arrived sp-batch as ``batch``, ``incremental`` of
        whose sps are deltas: it becomes the policy in force unless it
        is stale (``False``: discarded)."""
        if incremental:
            if incremental != len(batch):
                raise PolicyError(
                    "an sp-batch must not mix incremental and "
                    "absolute sps")
            raw = self._current_raw
            current = wildcard_policy_roles(Policy(raw) if raw else None)
            if current is None:
                raise PolicyError(
                    "incremental sps require a segment-scoped "
                    "(wildcard-DDP) current policy")
            batch = apply_incremental_batch(current, batch)
        ts = batch[0].ts
        self._batch = []
        if self._current_ts is not None and ts < self._current_ts:
            # A policy older than the current one never takes over
            # (override() semantics); in an ordered stream this only
            # happens with reordering slack at play.
            return False
        self._pending = batch
        self._current_raw = tuple(batch)
        self._current_ts = ts
        self._segment_policy = None
        self._resolved = False
        return True

    def _resolve(self) -> None:
        """Resolution state of the batch in force (once per batch)."""
        self._resolved = True
        batch = self._current_raw
        if len(batch) == 1:
            self._segment_policy = batch[0].segment_policy()
            if self._segment_policy is not None:
                return
        self._policy = Policy(batch)
        self._scope = max(_SCOPE[sp.ddp.granularity()] for sp in batch)
        self._cache = {}

    # -- tuple arrival -----------------------------------------------------
    def policy_for(self, item: DataTuple) -> TuplePolicy:
        """Resolved policy of ``item`` under the current policy state."""
        if self._batch:
            self._finalize_batch()
        if self._segment_policy is not None:
            return self._segment_policy
        if not self._resolved:
            self._resolve()
            if self._segment_policy is not None:
                return self._segment_policy
        policy = self._policy
        if policy is None:
            return EMPTY_POLICY  # no sp yet: denial-by-default
        scope = self._scope
        if scope == 0:
            key = item.sid
        elif scope == 1:
            key = (item.sid, item.tid)
        else:
            key = (item.sid, item.tid, tuple(item.values))
        cached = self._cache.get(key)
        if cached is None:
            if scope == 2:
                cached = policy.resolve_for_attributes(
                    item.sid, item.tid, item.values.keys())
            else:
                cached = policy.resolve_for_tuple(item.sid, item.tid)
            self._cache[key] = cached
        return cached

    @property
    def is_uniform(self) -> bool:
        """Whether the current policy resolves identically for every
        tuple of a stream: a shared policy, or a stream-scoped batch."""
        self._finalize_batch()
        if not self._resolved:
            self._resolve()
        return self._segment_policy is not None or self._scope == 0

    def take_pending_sps(self) -> list[SecurityPunctuation]:
        """Sps of the current policy not yet handed on (at most once).

        Operators that *delay* sp propagation (select, shield — emit
        sps only once a covered tuple passes) call this at emission
        time; windowed operators open a segment from it.  A discarded
        stale batch never shows up here.
        """
        self._finalize_batch()
        pending, self._pending = self._pending, []
        return pending

    def current_sps(self) -> tuple[SecurityPunctuation, ...]:
        """Raw sp-batch of the policy currently in force.

        Public accessor for the audit layer: these are the sps that
        decide the fate of tuples in the current segment.  Empty before
        the first sp arrives (denial-by-default).
        """
        if self._batch:
            self._finalize_batch()
        return self._current_raw if self._current_raw is not None else ()


class SPEmitter:
    """Writes sps to an output stream only on policy change.

    Join, duplicate elimination and group-by emit results "preceded by
    the sp(s) depicting" the result policy.  Emitting one sp per result
    tuple would defeat sp sharing, so this helper tracks the policy of
    the last emitted sp and stays silent while it is unchanged.
    """

    __slots__ = ("_last",)

    def __init__(self):
        self._last: TuplePolicy | None = None

    def emit(self, policy: TuplePolicy, ts: float,
             out: list[StreamElement]) -> None:
        """Append sp(s) for ``policy`` to ``out`` if it changed."""
        if self._last is not None and policy == self._last:
            return
        out.append(SecurityPunctuation.grant(policy.roles, ts))
        self._last = policy

    def reset(self) -> None:
        self._last = None

