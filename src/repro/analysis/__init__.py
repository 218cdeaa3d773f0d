"""Static security-plan analysis (shield coverage, leaks, rewrites).

The analyzer proves — before a single tuple flows — that every
source→sink path of a plan crosses a Security Shield (SEC001), that no
projection prunes an attribute-scoped sp-batch out from under
downstream enforcement (SEC002), that no shield is dead weight
(SEC003), that every Table II rewrite the optimizer considers has a
*proven* precondition (SEC004, fail-closed), that verify plan
specs are internally consistent (SEC005), and that every UDF on the
plan is honest about its effects — declared read-sets cover inferred
reads (SEC006), provably impure/nondeterministic callables are
flagged (SEC007), and no undeclared read widens an attribute-scoped
sp's pruning (SEC008).

Entry points:

* :func:`analyze_expr` — logical expressions: the registered plan at
  registration time, and the plan actually compiled (after the
  optimizer, with the per-query outlet assumed) at
  ``DSMS.build_plan`` time;
* :func:`lint_file` / :func:`lint_scenario` — plan-spec and scenario
  JSON (the ``repro lint`` CLI and the differential harness);
* :mod:`repro.analysis.rewrites` — the precondition prover the
  rewrite rules consult;
* :mod:`repro.analysis.udf` / :func:`analyze_callable` — the UDF
  effect analyzer (read-sets, purity, determinism) whose proofs the
  rewrite rules and the sharded executor consume.
"""

from repro.analysis.diagnostics import (CATALOG, AnalysisReport,
                                        Diagnostic, Severity)
from repro.analysis.exprcheck import analyze_expr
from repro.analysis.lattice import (PathState, StreamFacts, dominates,
                                    join_states)
from repro.analysis.rewrites import (PRECONDITIONS, Precondition, Proof,
                                     hazard_absent, hazard_sites,
                                     proof_for, prove_absent,
                                     refusal_reason, refused_rewrites)
from repro.analysis.speclint import (facts_for_streams, lint_file,
                                     lint_scenario, lint_scenario_object,
                                     lint_spec)
from repro.analysis.udf import (EffectReport, analyze_callable,
                                condition_udfs, condition_verified,
                                shard_safe, udf_diagnostics,
                                verify_declaration)

__all__ = [
    "CATALOG",
    "AnalysisReport",
    "Diagnostic",
    "EffectReport",
    "PRECONDITIONS",
    "PathState",
    "Precondition",
    "Proof",
    "Severity",
    "StreamFacts",
    "analyze_callable",
    "analyze_expr",
    "condition_udfs",
    "condition_verified",
    "dominates",
    "facts_for_streams",
    "hazard_absent",
    "hazard_sites",
    "join_states",
    "lint_file",
    "lint_scenario",
    "lint_scenario_object",
    "lint_spec",
    "proof_for",
    "prove_absent",
    "refusal_reason",
    "refused_rewrites",
    "shard_safe",
    "udf_diagnostics",
    "verify_declaration",
]
