"""Dataflow analysis over logical expressions (SEC001-SEC004).

:func:`analyze_expr` pushes a :class:`~repro.analysis.lattice.PathState`
from every scan to the plan root and reports:

* **SEC001** — the root is reachable without crossing a Security
  Shield.  Without ``assume_delivery`` this is an *error* (nothing in
  the plan enforces access control); with it — the DSMS gives every
  query an outlet shield ahead of its sink — it degrades to a warning:
  results are still policy-checked, but only at the very end, with no
  in-plan enforcement or early filtering.
* **SEC002** — a projection/aggregation prunes an attribute that an
  attribute-scoped sp-batch governs, so the batch disappears upstream
  of later enforcement points and the stale previous policy would
  govern (the widening bug class of ``project-prune-widening.json``).
* **SEC003** — a shield every route into which is already dominated
  by upstream shields with equal-or-narrower conjuncts: dead weight.
* **SEC004** — delegated to
  :func:`repro.analysis.rewrites.hazard_sites`.
* **SEC006-SEC008** — delegated to
  :func:`repro.analysis.udf.udf_diagnostics` for every selection or
  join predicate carrying a ``FuncCondition`` (undeclared reads,
  provable impurity, attribute-scoped pruning widened by a UDF read).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.algebra.expressions import (GroupByExpr, LogicalExpr,
                                       ProjectExpr, ScanExpr, SelectExpr,
                                       ShieldExpr)
from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.analysis.rewrites import expr_label, hazard_sites
from repro.analysis.udf import udf_diagnostics

__all__ = ["analyze_expr"]


def analyze_expr(expr: LogicalExpr, *,
                 facts: "StreamFacts | None" = None,
                 roles: "Iterable[str] | None" = None,
                 assume_delivery: bool = False,
                 name: str = "plan") -> AnalysisReport:
    """Statically analyze one logical plan.

    ``facts`` carries what is known about the input streams
    (:meth:`StreamFacts.unknown` keeps fact-dependent checks silent).
    ``assume_delivery`` models the outlet shield the DSMS gives every
    query (``PhysicalPlan.compile_queries``); ``roles`` (the query
    specifier's roles) only sharpen the messages.  ``name`` prefixes
    every diagnostic path.
    """
    facts = facts if facts is not None else StreamFacts.unknown()
    report = AnalysisReport()
    state = _visit(expr, name, facts, report)
    report.extend(hazard_sites(expr, facts, name))
    if not state.shielded:
        role_text = (f" for roles {sorted(roles)}" if roles else "")
        if assume_delivery:
            report.add(
                "SEC001", Severity.WARNING, name,
                "no in-plan Security Shield on any source-to-sink "
                "path; enforcement relies solely on the delivery "
                "shield at the sink",
                fixit=f"add a ShieldExpr{role_text} (auto_shield=True "
                      "does this at the plan root)")
        else:
            report.add(
                "SEC001", Severity.ERROR, name,
                "source-to-sink path with no Security Shield: "
                "denial-by-default enforcement is unreachable",
                fixit=f"wrap the plan in a ShieldExpr{role_text} or "
                      "register with auto_shield=True")
    return report


def _visit(expr: LogicalExpr, path: str, facts: StreamFacts,
           report: AnalysisReport) -> PathState:
    here = f"{path}/{expr_label(expr)}"
    if isinstance(expr, ScanExpr):
        return PathState.source(expr.stream_id,
                                facts.schema_of(expr.stream_id))
    children = [_visit(child, here, facts, report)
                for child in expr.children()]
    if len(children) == 1:
        state = children[0]
    else:
        state = children[0]
        for other in children[1:]:
            state = join_states(state, other)
    if isinstance(expr, ShieldExpr):
        if state.shielded and dominates(state.shields, expr.predicates):
            preds = [sorted(p) for p in expr.predicates]
            report.add(
                "SEC003", Severity.WARNING, here,
                f"shield with conjuncts {preds} is dominated by "
                "upstream shields with equal-or-narrower scope on "
                "every route; it can never drop a tuple",
                fixit="remove the redundant shield or merge it into "
                      "the upstream one (Rule 1)")
        return state.with_shield(expr.predicates)
    if isinstance(expr, (ProjectExpr, GroupByExpr)):
        kept = _output_attributes(expr)
        governed = facts.governed_attributes(state.streams)
        if governed:
            leaked = governed - frozenset(kept)
            if leaked:
                op = ("projection" if isinstance(expr, ProjectExpr)
                      else "group-by")
                report.add(
                    "SEC002", Severity.WARNING, here,
                    f"{op} prunes attribute(s) {sorted(leaked)} whose "
                    "attribute-scoped sp-batches govern tuples on "
                    f"stream(s) {sorted(state.streams)}; downstream "
                    "enforcement sees the batch pruned away and must "
                    "fall back to denial-by-default markers to avoid "
                    "widening access",
                    fixit="place a Security Shield upstream of the "
                          f"{op}, or retain {sorted(leaked)}")
        return state.project(kept)
    if isinstance(expr, SelectExpr):
        report.extend(udf_diagnostics(expr.condition, here, facts=facts,
                                      streams=state.streams))
        return state
    # Dup-elim passes tuples through whole; joins/set ops merged
    # their inputs above.  Join outputs rename clashing attributes at
    # runtime, so their attribute set becomes unknown.
    if len(children) > 1:
        return replace(state, attrs=None)
    return state


def _output_attributes(expr: LogicalExpr) -> tuple:
    if isinstance(expr, ProjectExpr):
        return tuple(expr.attributes)
    assert isinstance(expr, GroupByExpr)
    kept = [expr.attribute]
    if expr.key is not None:
        kept.append(expr.key)
    return tuple(kept)
