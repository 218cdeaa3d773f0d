"""Dataflow analysis over compiled :class:`PhysicalPlan` DAGs.

The physical-plan pass re-runs the source→sink lattice after
compilation — where hash-consed shared subplans, the per-query
delivery shields and the concrete operator objects exist.  It is the
layer :meth:`repro.engine.dsms.DSMS.build_plan` consults before the
executor is allowed to push a single tuple:

* **SEC001** *error* — a sink reachable with no shield of any kind on
  some route (hand-built plans; the DSMS always appends a delivery
  shield, so its plans can at worst trigger the warning form: delivery
  backstop only, no in-plan enforcement).
* **SEC002** — as in :mod:`repro.analysis.exprcheck`, evaluated over
  the compiled Project operators.
* **SEC003** — redundant shields; the per-query ``delivery:*``
  shields are exempt (they are *intentionally* redundant backstops).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.operators.project import Project
from repro.operators.shield import SecurityShield

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.plan import PhysicalPlan, PlanNode

__all__ = ["analyze_plan"]

#: Name prefix of the fixed per-query delivery shields.
DELIVERY_PREFIX = "delivery:"


def analyze_plan(plan: "PhysicalPlan", *,
                 facts: "StreamFacts | None" = None) -> AnalysisReport:
    """Statically analyze a compiled operator DAG."""
    facts = facts if facts is not None else StreamFacts.unknown()
    report = AnalysisReport()
    in_states: dict[int, list[PathState]] = {}
    for stream_id, entries in plan.entries.items():
        source = PathState.source(stream_id, facts.schema_of(stream_id))
        for node, _port in entries:
            in_states.setdefault(node.node_id, []).append(source)
    for node in plan.topological():
        incoming = in_states.get(node.node_id)
        if not incoming:
            continue  # unreachable from any registered source
        state = incoming[0]
        for other in incoming[1:]:
            state = join_states(state, other)
        state = _transfer(node, state, facts, report)
        if not node.downstream:
            _check_sink(node, state, report)
            continue
        for child, _port in node.downstream:
            in_states.setdefault(child.node_id, []).append(state)
    return report


def _node_path(node: "PlanNode") -> str:
    return f"node#{node.node_id}:{node.operator.name}"


def _transfer(node: "PlanNode", state: PathState, facts: StreamFacts,
              report: AnalysisReport) -> PathState:
    operator = node.operator
    if isinstance(operator, SecurityShield):
        if operator.name.startswith(DELIVERY_PREFIX):
            return state.with_delivery()
        conjuncts = operator.conjuncts
        if state.shielded and dominates(state.shields, conjuncts):
            report.add(
                "SEC003", Severity.WARNING, _node_path(node),
                f"shield {operator.name!r} is dominated by upstream "
                "shields with equal-or-narrower scope on every route; "
                "it can never drop a tuple",
                fixit="remove the redundant shield or merge it "
                      "upstream (Rule 1)")
        return state.with_shield(conjuncts)
    if isinstance(operator, Project):
        governed = facts.governed_attributes(state.streams)
        if governed:
            leaked = governed - frozenset(operator.attributes)
            if leaked:
                report.add(
                    "SEC002", Severity.WARNING, _node_path(node),
                    f"projection prunes attribute(s) {sorted(leaked)} "
                    "governed by attribute-scoped sp-batches on "
                    f"stream(s) {sorted(state.streams)}; downstream "
                    "enforcement must rely on denial-by-default "
                    "markers to avoid widening access",
                    fixit="shield upstream of the projection or "
                          f"retain {sorted(leaked)}")
        return state.project(operator.attributes)
    return state


def _check_sink(node: "PlanNode", state: PathState,
                report: AnalysisReport) -> None:
    if state.shielded:
        return
    if state.delivery:
        report.add(
            "SEC001", Severity.WARNING, _node_path(node),
            "only the delivery shield guards this sink; no in-plan "
            "Security Shield on any source-to-sink path",
            fixit="register the query with auto_shield=True or add "
                  "an explicit ShieldExpr")
    else:
        report.add(
            "SEC001", Severity.ERROR, _node_path(node),
            "sink reachable with no Security Shield on the path: "
            "denial-by-default enforcement is unreachable",
            fixit="insert a SecurityShield (or delivery shield) "
                  "between the sources and this sink")
