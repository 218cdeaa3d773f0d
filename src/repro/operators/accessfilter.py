"""Pre-/post-filtering enforcement (Section IV.A alternatives).

Besides the freely placeable Security Shield, the paper sketches two
fixed-placement alternatives for producing policy-compliant results:

* **Pre-filtering** — each query pre-filters arriving tuples against
  its own access rights *before* the query plan, discarding the sps;
  downstream the plan consists of ordinary operators, but plans cannot
  be shared across queries with different rights.
* **Post-filtering** — the query executes first and the results are
  filtered postmortem against the query's rights.

Both are the same physical operator — an access filter that resolves
each tuple's policy from the streaming sps, passes tuples whose policy
intersects the query's roles, and (for pre-filtering) strips the sps
from its output.  The placement, not the operator, differs; the
``bench_ablation_ss_placement`` benchmark compares the three layouts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.bitmap import AbstractRoleSet, RoleSet
from repro.core.punctuation import SecurityPunctuation
from repro.operators.base import PolicyTracker, UnaryOperator
from repro.stream.batch import TupleBatch
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple

__all__ = ["AccessFilter"]


class AccessFilter(UnaryOperator):
    """Fixed access-control filter for pre-/post-filtering layouts."""

    def __init__(self, roles: Iterable[str] | AbstractRoleSet, *,
                 stream_id: str = "*", strip_sps: bool = True,
                 name: str | None = None):
        super().__init__(name)
        if not isinstance(roles, AbstractRoleSet):
            roles = RoleSet(roles)
        self.predicate = roles
        #: Pre-filtering discards sps (the downstream plan is
        #: security-unaware); post-filtering may keep them for the
        #: result consumer.
        self.strip_sps = strip_sps
        self.tracker = PolicyTracker(stream_id)
        self._held_sps: list[SecurityPunctuation] = []
        self.tuples_blocked = 0
        self._predicate = tuple(sorted(self.predicate.names()))

    def _process(self, element: StreamElement,
                 port: int) -> list[StreamElement]:
        if isinstance(element, SecurityPunctuation):
            self.tracker.observe_sp(element)
            if not self.strip_sps:
                self._held_sps.append(element)
            return []
        assert isinstance(element, DataTuple)
        policy = self.tracker.policy_for(element)
        self.stats.comparisons += 1
        passing = policy.permits_any(self.predicate)
        if self.audit is not None:
            self._record((element,), passing)
        if not passing:
            self.tuples_blocked += 1
            return []
        out: list[StreamElement] = []
        if self._held_sps:
            out.extend(self._held_sps)
            self._held_sps = []
        out.append(element)
        return out

    def _process_batch(self, batch: TupleBatch,
                       port: int) -> list[StreamElement]:
        """Batch fast path: resolve and check the run in one loop."""
        tracker = self.tracker
        predicate = self.predicate
        tuples = batch.tuples
        self.stats.comparisons += len(tuples)
        if self.audit is None:
            passing = [item for item in tuples
                       if tracker.policy_for(item).permits_any(predicate)]
        else:
            passing = []
            for item in tuples:
                permitted = tracker.policy_for(item).permits_any(predicate)
                self._record((item,), permitted)
                if permitted:
                    passing.append(item)
        self.tuples_blocked += len(tuples) - len(passing)
        if not passing:
            return []
        out: list[StreamElement] = []
        if self._held_sps:
            out.extend(self._held_sps)
            self._held_sps = []
        out.append(passing[0] if len(passing) == 1
                   else TupleBatch(passing))
        return out

    def _record(self, tuples: Sequence[DataTuple], passing: bool) -> None:
        """The filter's one decision recorder: one ``filter.drop`` /
        ``filter.pass`` event per tuple of the run, naming the
        governing sp (``None`` under denial-by-default).  A denial is
        always recorded; a pass only on a head-sampled trace.
        """
        audit = self.audit
        if passing and not audit.wants_passes():
            return
        sps = self.tracker.current_sps()
        audit.record_run(
            "filter.pass" if passing else "filter.drop", tuples,
            operator=self.name, query=self.audit_query,
            predicate=self._predicate,
            policy=tuple(
                self.tracker.policy_for(tuples[0]).roles.names_sorted()),
            sp=" | ".join(sp.to_text() for sp in sps) if sps else None,
        )
