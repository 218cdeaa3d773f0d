"""Static security-plan analysis (shield coverage, leaks, UDF effects).

The analyzer proves — before a single tuple flows — that every
source→sink path of a plan crosses a Security Shield (SEC001), that no
projection prunes an attribute-scoped sp-batch out from under
downstream enforcement (SEC002), that no shield is dead weight
(SEC003), that no shield sits beside an operator whose commute the
concrete streams refute (SEC004), that verify plan specs are
internally consistent (SEC005), and that every UDF on the
plan is honest about its effects — declared read-sets cover inferred
reads (SEC006), provably impure/nondeterministic callables are
flagged (SEC007), and no undeclared read widens an attribute-scoped
sp's pruning (SEC008).

Entry points:

* :func:`analyze_expr` — logical expressions: the registered plan at
  registration time, and again with the per-query outlet assumed at
  ``DSMS.build_plan`` time;
* :func:`lint_file` / :func:`lint_scenario` — plan-spec and scenario
  JSON (the ``repro lint`` CLI and the differential harness);
* :mod:`repro.analysis.udf` / :func:`analyze_callable` — the UDF
  effect analyzer (read-sets, purity, determinism) whose proofs the
  SEC006-SEC008 checks consume.
"""

from repro.analysis.diagnostics import (CATALOG, AnalysisReport,
                                        Diagnostic, Severity)
from repro.analysis.exprcheck import analyze_expr, hazard_sites
from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.analysis.speclint import (facts_for_streams, lint_file,
                                     lint_scenario, lint_scenario_object,
                                     lint_spec)
from repro.analysis.udf import (EffectReport, Proof, analyze_callable,
                                condition_udfs, udf_diagnostics)

__all__ = [
    "CATALOG",
    "AnalysisReport",
    "Diagnostic",
    "EffectReport",
    "PathState",
    "Proof",
    "Severity",
    "StreamFacts",
    "analyze_callable",
    "analyze_expr",
    "condition_udfs",
    "dominates",
    "facts_for_streams",
    "hazard_sites",
    "join_states",
    "lint_file",
    "lint_scenario",
    "lint_scenario_object",
    "lint_spec",
    "udf_diagnostics",
]
