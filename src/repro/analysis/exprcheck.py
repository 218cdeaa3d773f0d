"""Dataflow analysis over logical expressions (SEC001-SEC004).

:func:`analyze_expr` pushes a :class:`~repro.analysis.lattice.PathState`
from every scan to the plan root and reports:

* **SEC001** — the root is reachable without crossing a Security
  Shield: an *error*, nothing in the plan enforces access control.
  With ``assume_delivery`` — the DSMS hands every query its results
  through its own ``delivery:<name>`` shield — nothing is reported:
  that outlet is the query's shield.
* **SEC002** — a projection/aggregation prunes an attribute that an
  attribute-scoped sp-batch governs, so the batch disappears upstream
  of later enforcement points and the stale previous policy would
  govern (the widening bug class of ``project-prune-widening.json``).
* **SEC003** — a shield every route into which is already dominated
  by upstream shields with equal-or-narrower conjuncts: dead weight.
* **SEC004** — a shield adjacent to a projection or a stateful
  operator whose commute concrete stream facts refute, and each nested
  join (:func:`hazard_sites`): the placements Table II's guarded
  rewrites would change, where a hand-rewritten plan would deliver
  differently.
* **SEC006-SEC008** — delegated to
  :func:`repro.analysis.udf.udf_diagnostics` for every selection or
  join predicate carrying a ``FuncCondition`` (undeclared reads,
  provable impurity, attribute-scoped pruning widened by a UDF read).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Iterator

from repro.algebra.expressions import (DupElimExpr, GroupByExpr,
                                       JoinExpr, LogicalExpr, ProjectExpr,
                                       ScanExpr, SelectExpr, ShieldExpr,
                                       UnionExpr, walk)
from repro.analysis.diagnostics import AnalysisReport, Severity
from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.analysis.udf import udf_diagnostics

__all__ = ["analyze_expr", "hazard_sites"]


def analyze_expr(expr: LogicalExpr, *,
                 facts: "StreamFacts | None" = None,
                 roles: "Iterable[str] | None" = None,
                 assume_delivery: bool = False,
                 name: str = "plan") -> AnalysisReport:
    """Statically analyze one logical plan.

    ``facts`` carries what is known about the input streams
    (:meth:`StreamFacts.unknown` keeps fact-dependent checks silent).
    ``assume_delivery`` models the ``delivery:<name>`` outlet the DSMS
    gives every query (``PhysicalPlan.compile_queries``), which stands
    for the query's shield; ``roles`` (the query specifier's roles)
    only sharpen the messages.  ``name`` prefixes every diagnostic
    path.
    """
    facts = facts if facts is not None else StreamFacts.unknown()
    report = AnalysisReport()
    state = _visit(expr, name, facts, report)
    report.extend(hazard_sites(expr, facts, name))
    if not state.shielded and not assume_delivery:
        role_text = (f" for roles {sorted(roles)}" if roles else "")
        report.add(
            "SEC001", Severity.ERROR, name,
            "source-to-sink path with no Security Shield: "
            "denial-by-default enforcement is unreachable",
            fixit=f"wrap the plan in a ShieldExpr{role_text} or "
                  "register it as a query")
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


# -- SEC004 -------------------------------------------------------------------

def expr_label(expr: LogicalExpr) -> str:
    """Short node label used in diagnostic paths."""
    if isinstance(expr, ScanExpr):
        return f"scan[{expr.stream_id}]"
    for cls, label in ((ShieldExpr, "shield"), (SelectExpr, "select"),
                       (ProjectExpr, "project"), (DupElimExpr, "dupelim"),
                       (GroupByExpr, "groupby"), (JoinExpr, "join"),
                       (UnionExpr, "union")):
        if isinstance(expr, cls):
            return label
    return type(expr).__name__.lower()


def _iter_paths(expr: LogicalExpr,
                root: str) -> Iterator[tuple[str, LogicalExpr]]:
    """Yield ``(path, node)`` pairs in pre-order."""
    path = f"{root}/{expr_label(expr)}"
    yield path, expr
    for child in expr.children():
        yield from _iter_paths(child, path)


#: Operator beside a shield -> the Table II commute that would move it.
_COMMUTES = {ProjectExpr: "commute-project-shield",
             DupElimExpr: "commute-dupelim-shield",
             GroupByExpr: "commute-groupby-shield"}


def _guarded_sites(
        expr: LogicalExpr,
        root: str) -> Iterator[tuple[str, str, LogicalExpr]]:
    """``(rule name, path, node)`` for guarded-rule shapes in a plan:
    a shield directly above or below a projection or a stateful
    operator, and a join whose left input is a join."""
    for path, node in _iter_paths(expr, root):
        if isinstance(node, ShieldExpr):
            rule = _COMMUTES.get(type(node.input))
        elif isinstance(node, tuple(_COMMUTES)) and isinstance(
                node.input, ShieldExpr):
            rule = _COMMUTES[type(node)]
        else:
            rule = None
        if rule is not None:
            yield rule, path, node
        if isinstance(node, JoinExpr) and isinstance(node.left, JoinExpr):
            yield "associate-join", path, node


_KEEP_PLACEMENT = ("keep the shield placement fixed (the engine compiles "
                   "the plan as registered, so only a hand rewrite "
                   "could commute them)")


def hazard_sites(expr: LogicalExpr, facts: StreamFacts,
                 root: str = "plan") -> AnalysisReport:
    """SEC004 findings where stream facts *refute* a precondition.

    These sites are adjacent shield/operator pairs whose commute is
    provably unsound for the concrete streams — the shape class behind
    ``dupelim-shield-commute.json``.  The engine compiles every plan as
    registered and never commutes them, hence warnings, not errors.
    """
    report = AnalysisReport()
    if not facts.known:
        return report
    for rule_name, path, node in _guarded_sites(expr, root):
        streams = frozenset(n.stream_id for n in walk(node)
                            if isinstance(n, ScanExpr))
        if rule_name in ("commute-dupelim-shield",
                         "commute-groupby-shield"):
            if facts.heterogeneous(streams):
                stateful = ("duplicate-elimination"
                            if "dupelim" in rule_name else "group-by")
                report.add(
                    "SEC004", Severity.WARNING, path,
                    f"shield adjacent to stateful {stateful} over "
                    f"stream(s) {sorted(streams)} that interleave "
                    f"differing policies; commuting them changes "
                    f"which tuples the stateful operator sees "
                    f"({rule_name} precondition refuted)",
                    fixit=_KEEP_PLACEMENT)
        elif rule_name == "commute-project-shield":
            governed = facts.governed_attributes(streams)
            if governed:
                report.add(
                    "SEC004", Severity.WARNING, path,
                    f"shield adjacent to a projection over stream(s) "
                    f"{sorted(streams)} carrying attribute-scoped sps "
                    f"for {sorted(governed)}; commuting changes which "
                    f"sp-batches the projection prunes "
                    f"({rule_name} precondition refuted)",
                    fixit=_KEEP_PLACEMENT)
        else:
            report.add(
                "SEC004", Severity.INFO, path,
                "nested join: re-associating it is unsound under "
                "strict window semantics (associate-join precondition "
                "unprovable for timed windows)")
    return report

