#!/usr/bin/env python3
"""Repo-specific AST lint rules (stdlib only; run by CI and check.sh).

Rules
-----

``RL001`` — no ``id()``-derived tuple ids.  ``id()`` values are
    process-specific, so a tid derived from one breaks replay and
    cross-run diffing.  Flagged: ``id(...)`` assigned to a name
    containing ``tid``, or passed as an argument to a ``DataTuple``
    call.  Other uses (hash-consing keys, explain annotations) are
    legitimate and stay allowed.

``RL002`` — determinism in ``repro.verify``.  The differential
    harness must reproduce byte-identical scenarios from a seed:
    wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
    ``datetime.now``/``utcnow``) and unseeded randomness (module-level
    ``random.*`` draws, ``random.Random()`` without a seed) are
    forbidden under ``src/repro/verify``.

``RL003`` — operators that count drops must audit them.  Any class
    under ``src/repro/operators`` that increments ``tuples_blocked``
    must also reference the ``audit`` hook somewhere in its body: the
    audit log is the one store of security decisions, so a denial
    recorded there is also what ``repro audit`` and ``repro why``
    show.

``RL004`` — operator files must not hand-build trace events.  Raw
    ``SpanEvent(...)`` construction and flat ``.span(...)`` calls
    bypass head sampling and causal ids; operator timing spans come
    from the executor (``Tracer.op_span``), and a security decision is
    an audit record (RL003), never a span.

Grep guards
-----------

``GUARDS`` lists the retired names and second code paths that must not
come back, one row each: a regular expression, the paths it scans, an
optional allow-list and the message.  A line matching the pattern (and
not the allow-list, which is matched against ``path:line:text``) is a
``GUARD`` finding.  The guards run when the script lints the whole
tree (no file arguments).

Output is ``path:line: RLxxx message`` per finding; exit status 1 when
anything is flagged.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: Unseeded module-level draws forbidden in repro.verify (RL002).
RANDOM_MODULE_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "seed", "getrandbits", "triangular",
})

#: Wall-clock reads forbidden in repro.verify (RL002).
CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "time_ns"), ("time", "monotonic_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
})


class Guard(NamedTuple):
    """One grep guard: ``pattern`` must not match under ``paths``."""

    name: str
    pattern: str
    paths: "tuple[str, ...]"
    message: str
    allow: "str | None" = None


#: A pattern whose paths include ``scripts`` brackets a letter so that
#: it does not match its own row.
GUARDS = (
    Guard("one execution mode",
          r"batching *[=]|prebatche[d]|coalesce_element[s]|coalesce[=]",
          ("src", "tests", "examples", "scripts", "docs", "README.md",
           "DESIGN.md", ".github"),
          "an execution-mode flag is back; see DESIGN.md section 6"),
    Guard("one encoder, one decoder",
          r"json\.(dumps|loads)[(]", ("src/repro/stream/wire.py",),
          "stream/wire.py must use its module-level encoder/decoder; "
          "see docs/PERFORMANCE.md, Wire layer"),
    Guard("one line builder",
          r'"k": +"t"', ("src/repro/stream/wire.py",),
          "stream/wire.py writes a tuple line field by field around one "
          "prebuilt encoder, no record dict; see docs/PERFORMANCE.md, "
          "Wire layer"),
    Guard("one decision record",
          r"provenance\.(shield|filter)|tracer\.record[(]|\.decision[(]"
          r"|_prov_", ("src",),
          "a security decision is recorded once, in the audit log; see "
          "docs/OBSERVABILITY.md, Causal tracing"),
    Guard("one tracer",
          r"NullTraceSink|RingBufferTraceSink|FlightRecorder|_causal\b"
          r"|isinstance\([^)]*Tracer\)|with_tracing|with_metrics"
          r"|shard_timing", ("src",),
          "a span has one producer (Tracer) and off is None; see "
          "docs/OBSERVABILITY.md, Tracing"),
    Guard("one kernel",
          r"for \w+ in .* if (self\.)?condition[(]",
          ("src/repro/operators",),
          "no operator batch path calls a Condition per tuple: sibling "
          "indexable comparisons are evaluated by the selection group, "
          "everything else by Condition.filter; see docs/PERFORMANCE.md, "
          "What a segment costs a query"),
    Guard("one select state machine",
          r"_held_sps|_after_tuple", ("src/repro/engine",),
          "the executor drives a grouped select through Select.hold / "
          "Select.emit only; see docs/PERFORMANCE.md, One hop for a "
          "stream's selections"),
    Guard("one frame per operator",
          r"_process_tuple", ("src/repro/operators",),
          "_process is the run-of-one kernel, fold the helper into it; "
          "see docs/PERFORMANCE.md, What an element costs a query"),
    Guard("an allocation-free push",
          r"setdefault\([^)]*\[\]\)", ("src/repro/engine/session.py",),
          "keep StreamingSession.push allocation-free; see "
          "docs/PERFORMANCE.md, What an element costs a query"),
    Guard("one walk per push",
          r"self\._results\b|\bfor\b.+\bin self\._sinks\b(?!\[)",
          ("src/repro/engine/session.py",),
          "a push drains the session's pending list, the sinks it "
          "reached, never every query; see docs/PERFORMANCE.md, A push "
          "costs the queries it reaches"),
    Guard("one sp-batch interpreter",
          r"\b_batches\b|apply_incremental_batch[(]|Policy[(]tuple[(]",
          ("src/repro",),
          "sp-batch semantics live in operators/base.py::PolicyTracker; "
          "see DESIGN.md section 6",
          allow=r"^src/repro/operators/base\.py:"
                r"|:def apply_incremental_batch"),
    Guard("one role set",
          r"AbstractRoleSet|\bRoleSet\b|policy_from_sps|PolicyIntersection"
          r"|PolicyUnion|names_sorted", ("src",),
          "a role set is a frozenset; see DESIGN.md section 6"),
    Guard("one query compiler",
          r"name=f?[\"']delivery:", ("src/repro",),
          "delivery shields are built by PhysicalPlan.compile_queries "
          "only; see docs/PERFORMANCE.md, One shield per query",
          allow=r"^src/repro/engine/plan\.py:"),
    Guard("role names are names",
          r"_coerce", ("src/repro/core/punctuation.py",),
          "role tokens are names: read SRP text with patterns.parse_names; "
          "see DESIGN.md section 1, The sp text format"),
    Guard("no static analyzer",
          r"\brepro[.]analysis\b|\banalyze=|\bPlanAnalysis(Error|Warning)\b"
          r"|\bUdfDeclarationWarning\b|\bFuncCondition[.]wrap\b"
          r"|\bSEC00[1-8]\b|\brepro lint\b",
          ("src", "tests", "examples", ".github", "README.md", "DESIGN.md",
           "docs"),
          "access control is enforced at run time, by the SP Analyzer and "
          "the Security Shields; no static rule changed what a registered "
          "query delivers, so the plan analyzer, analyze= and repro lint "
          "are gone; see DESIGN.md section 6"),
    Guard("one plan, as registered",
          r"Optimizer|OptimizeLevel|CostModel|StatisticsCatalog"
          r"|RewriteContext", ("src",),
          "every query compiles as registered; Table II is a tested "
          "theorem (tests/algebra/table2.py), not a search; see "
          "docs/PERFORMANCE.md, Why there is no optimizer"),
    Guard("one process",
          r"run_sharded|ShardTask|partition_spans|merge_chunk_runs"
          r"|shard_safe|ShardExecutionError|n_shards|shards=",
          ("src", "examples"),
          "the engine runs in one process; see docs/PERFORMANCE.md, "
          "Why there is no sharded executor"),
    Guard("one sp-batch buffer per stream",
          r"\b_pending_sps|analyze_sps|carries_policies|policy_streams"
          r"|process_sps|CallbackSource", ("src",),
          "a stream's entry gate is its one sp-batch holder and runs the "
          "SP Analyzer; see docs/PERFORMANCE.md, A stream's entry"),
    Guard("one resolution per sp-batch",
          r"_resolve_shared|_shared_any|_permits_memo|_permits_cached"
          r"|_materialized|policy_is_uniform|has_attribute_scope"
          r"|\bdef (split|merged)\(", ("src",),
          "a tracker resolves a batch as a lone plain grant or one Policy "
          "cached at the batch's scope, and a shield applies a verdict at "
          "one site; Rule 1 is tested in tests/algebra/table2.py; see "
          "docs/PERFORMANCE.md, One resolution per sp",
          allow=r"^(?!src/repro/operators/shield\.py:).*\bdef "
                r"(split|merged)\("),
    Guard("one constructor per sp value",
          r"object\.__new__|__dict__\.update", ("src/repro/core",),
          "a core value is built by its one __init__, into its slots: a "
          "second constructor that writes the fields around it costs a "
          "per-instance dict; see docs/PERFORMANCE.md, What an sp costs"),
    Guard("one credit helper",
          r"\b(processing_time|ewma_seconds) *\+=", ("src",),
          "operator time is credited by Operator.process or "
          "operators.base.credit only; see docs/PERFORMANCE.md, One hop "
          "for a stream's selections",
          allow=r"^src/repro/operators/base\.py:"),
    Guard("what nothing builds",
          r"repro\.mog|networkx|AccessFilter|IntersectExpr|\bIntersect[(,]"
          r"|filter\.(pass|drop|segment)",
          ("src", "tests", "examples", "benchmarks", "pyproject.toml"),
          "no query, experiment or front end builds the moving-objects "
          "generator, an access filter or an intersection: Fig 7 runs on "
          "repro.workloads.synthetic and pre-/post-filtering is a "
          "SecurityShield placed by hand; see DESIGN.md section 3"),
    Guard("one span per hop",
          r"SpanEvent\.__new__|\b(op_span|exemplar)[(].*\bshare\b",
          ("src",),
          "a traced selection-group hop is one op.process span naming its "
          "members, not a made-up share per member, and the tracer's ring "
          "keeps plain rows; see docs/PERFORMANCE.md, What a sampled "
          "trace costs"),
    Guard("a switch costs the group O(1)",
          r"\.hold[(]", ("src/repro/engine/executor.py",),
          "an sp hop adds the sp to its SelectGroup's segment and calls no "
          "member; a member holds it when a run passes it; see "
          "docs/PERFORMANCE.md, A policy switch costs its group O(1)"),
    Guard("a pass replays nothing",
          r"\b_seen\b|\.credit[(]|def credit[(]self",
          ("src/repro/engine",),
          "a passing hop calls its passers' emit (and hold, once a "
          "segment) and keeps no per-member cursor; SelectGroup.settle "
          "credits the group's counts to every member with the one "
          "operators.base.credit call; see docs/PERFORMANCE.md, A passing "
          "hop costs its passers one emit"),
    Guard("one walk per sp-batch",
          r"_plain_grant_roles|analyzer\.process_batch[(]",
          ("src/repro/engine",),
          "an entry closes its sp-batch in one walk, in "
          "EntryGate._finalize_batch: one analyzer call, then one read of "
          "each sp for the install and the drop decision; see "
          "docs/PERFORMANCE.md, What closing an sp-batch costs",
          allow=r"^src/repro/engine/plan\.py:\d+: {12}"
                r"batch = analyzer\.process_batch\(batch\)$"),
    Guard("one answer to why",
          r"\b(HealthMonitor|MonitorView|serve_metrics|MetricsServer"
          r"|last_ingest_wall|since_wall)\b|\bdef event[(]",
          ("src", "tests", "examples", ".github", "README.md", "DESIGN.md",
           "docs/OBSERVABILITY.md", "docs/TUTORIAL.md"),
          "repro why prints a tuple's decisions and what each sampled hop "
          "cost; a second front end over the same registry, its ingest "
          "stamp or an always-kept ad-hoc span is not coming back; see "
          "docs/OBSERVABILITY.md, repro why",
          allow=r"^(?!src/repro/observability/provenance\.py:).*"
                r"\bdef event[(]"),
    Guard("one figure harness",
          r"pytest[_-]benchmark|REPRO_BENCH_SCALE|benchmark-only"
          r"|bench_(fig|ablation)",
          ("src", "tests", "benchmarks", "pyproject.toml", ".github", "docs",
           "README.md", "DESIGN.md", "EXPERIMENTS.md"),
          "the paper's figures and ablations have one driver, python -m "
          "repro experiments [--quick] (repro.experiments.runner.run_all); "
          "see EXPERIMENTS.md"),
    Guard("one outlet per query",
          r"auto_shield|_has_shield",
          ("src", "tests", "examples", "docs", "README.md"),
          "a query's one shield is its delivery:<name> outlet, built by "
          "PhysicalPlan.compile_queries; registration adds none; see "
          "docs/PERFORMANCE.md, One shield per query"),
)


class Finding:
    """One lint violation."""

    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        try:
            shown = self.path.relative_to(REPO)
        except ValueError:
            shown = self.path
        return f"{shown}:{self.line}: {self.rule} {self.message}"


def _is_id_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id")


def _target_names(target: ast.AST) -> "list[str]":
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Attribute):
        return [target.attr]
    if isinstance(target, (ast.Tuple, ast.List)):
        names = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def check_rl001(path: Path, tree: ast.AST) -> "list[Finding]":
    """``id()`` flowing into tuple ids (names with ``tid``/DataTuple)."""
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            value = node.value
            if value is None or not any(
                    _is_id_call(sub) for sub in ast.walk(value)):
                continue
            for name in (n for t in targets for n in _target_names(t)):
                if "tid" in name.lower():
                    findings.append(Finding(
                        path, node.lineno, "RL001",
                        f"id()-derived value assigned to {name!r}; "
                        "tuple ids must be stable across processes"))
        elif isinstance(node, ast.Call):
            callee = node.func
            callee_name = (callee.id if isinstance(callee, ast.Name)
                           else callee.attr
                           if isinstance(callee, ast.Attribute) else "")
            if callee_name != "DataTuple":
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if any(_is_id_call(sub) for sub in ast.walk(arg)):
                    findings.append(Finding(
                        path, node.lineno, "RL001",
                        "id() passed into a DataTuple; tuple ids must "
                        "be stable across processes"))
    return findings


def check_rl002(path: Path, tree: ast.AST) -> "list[Finding]":
    """Nondeterminism sources inside the repro.verify package."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None
        if (base_name, func.attr) in CLOCK_CALLS:
            findings.append(Finding(
                path, node.lineno, "RL002",
                f"wall-clock read {base_name}.{func.attr}() in "
                "repro.verify; scenarios must be seed-deterministic"))
        elif base_name == "random" and func.attr in RANDOM_MODULE_FUNCS:
            findings.append(Finding(
                path, node.lineno, "RL002",
                f"unseeded module-level random.{func.attr}() in "
                "repro.verify; use a seeded random.Random instance"))
        elif (func.attr == "Random" and base_name == "random"
                and not node.args and not node.keywords):
            findings.append(Finding(
                path, node.lineno, "RL002",
                "random.Random() without a seed in repro.verify"))
    return findings


def check_rl003(path: Path, tree: ast.AST) -> "list[Finding]":
    """Drop-counting operator classes must reference the audit hook."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        increments = [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.AugAssign)
            and isinstance(sub.target, ast.Attribute)
            and sub.target.attr == "tuples_blocked"
        ]
        if not increments:
            continue
        audits = any(
            isinstance(sub, ast.Attribute) and "audit" in sub.attr
            for sub in ast.walk(node))
        if not audits:
            findings.append(Finding(
                path, increments[0].lineno, "RL003",
                f"class {node.name!r} increments tuples_blocked but "
                "never references the audit hook; denied tuples must "
                "be recordable in the audit trail"))
    return findings


def check_rl004(path: Path, tree: ast.AST) -> "list[Finding]":
    """No hand-built trace events in operator files."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "SpanEvent":
            findings.append(Finding(
                path, node.lineno, "RL004",
                "raw SpanEvent(...) built in an operator; spans come "
                "from the executor, decisions go to the audit log"))
        elif isinstance(func, ast.Attribute) and func.attr == "span":
            findings.append(Finding(
                path, node.lineno, "RL004",
                "flat .span(...) call in an operator; spans come from "
                "the executor, decisions go to the audit log"))
    return findings


def lint_file(path: Path) -> "list[Finding]":
    """All rule findings for one source file."""
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "RL000",
                        f"file does not parse: {exc.msg}")]
    findings = check_rl001(path, tree)
    if (SRC / "verify") in path.parents:
        findings.extend(check_rl002(path, tree))
    if (SRC / "operators") in path.parents:
        findings.extend(check_rl003(path, tree))
        findings.extend(check_rl004(path, tree))
    return findings


def _guarded_files(root: Path, paths: "tuple[str, ...]"):
    for name in paths:
        path = root / name
        if path.is_file():
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*")):
                if sub.is_file() and "__pycache__" not in sub.parts:
                    yield sub


def check_guards(root: Path = REPO) -> "list[Finding]":
    """Every ``GUARDS`` match in the tree under ``root``."""
    findings = []
    for guard in GUARDS:
        pattern = re.compile(guard.pattern)
        allow = re.compile(guard.allow) if guard.allow else None
        for path in _guarded_files(root, guard.paths):
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except UnicodeDecodeError:
                continue  # binary: nothing a guard is about
            shown = path.relative_to(root).as_posix()
            for number, text in enumerate(lines, 1):
                if pattern.search(text) and not (
                        allow and allow.search(f"{shown}:{number}:{text}")):
                    findings.append(Finding(
                        path, number, "GUARD",
                        f"{guard.name}: {text.strip()!r}; "
                        f"{guard.message}"))
    return findings


def main(argv: "list[str] | None" = None) -> int:
    """Lint the given files (default: the whole tree, grep guards too)."""
    argv = sys.argv[1:] if argv is None else argv
    paths = ([Path(arg).resolve() for arg in argv] if argv
             else sorted(SRC.rglob("*.py"))
             + sorted((REPO / "examples").rglob("*.py")))
    findings: "list[Finding]" = []
    for path in paths:
        findings.extend(lint_file(path))
    if not argv:
        findings.extend(check_guards())
    for finding in findings:
        print(finding)
    checked = len(paths)
    print(f"lint_rules: {checked} file(s), {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
