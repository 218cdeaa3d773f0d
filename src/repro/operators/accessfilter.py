"""Pre-/post-filtering enforcement (Section IV.A alternatives).

Besides the freely placeable Security Shield, the paper sketches two
fixed-placement alternatives for producing policy-compliant results:

* **Pre-filtering** — each query pre-filters arriving tuples against
  its own access rights *before* the query plan, discarding the sps;
  downstream the plan consists of ordinary operators, but plans cannot
  be shared across queries with different rights.
* **Post-filtering** — the query executes first and the results are
  filtered postmortem against the query's rights.

Both are the same physical operator as the shield — an access filter
*is* a :class:`~repro.operators.shield.SecurityShield` with one
conjunct: it resolves each tuple's policy from the streaming sps,
passes tuples whose policy intersects the query's roles, discards a
denied segment together with its sps, and (for pre-filtering) strips
the sps from its output too.  Its verdicts are recorded under the
``filter.*`` audit kinds.  The placement, not the operator, differs;
the ``bench_ablation_ss_placement`` benchmark compares the three
layouts.
"""

from __future__ import annotations

from typing import Iterable

from repro.operators.shield import SecurityShield
from repro.stream.tuples import DataTuple

__all__ = ["AccessFilter"]


class AccessFilter(SecurityShield):
    """Fixed access-control filter for pre-/post-filtering layouts."""

    _KIND_PASS, _KIND_DROP, _KIND_SEGMENT = (
        "filter.pass", "filter.drop", "filter.segment")

    def __init__(self, roles: Iterable[str] | str, *,
                 stream_id: str = "*", strip_sps: bool = True,
                 name: str | None = None):
        super().__init__(roles, stream_id, name=name)
        #: Pre-filtering discards sps (the downstream plan is
        #: security-unaware); post-filtering may keep them for the
        #: result consumer.
        self.strip_sps = strip_sps

    def _refresh_decision(self, item: DataTuple) -> None:
        super()._refresh_decision(item)
        if self.strip_sps:
            self._held_sps = []
