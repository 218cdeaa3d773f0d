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

``RL005`` — UDF conditions must declare their read-sets.  Any
    ``FuncCondition(...)`` construction under ``src/repro`` or
    ``examples/`` must pass an explicit ``attributes=`` (second
    positional or keyword) argument: an empty declaration makes the
    optimizer and SEC002's pruning analysis reason as if the predicate read nothing.  Use
    ``FuncCondition.wrap(fn)`` to declare the statically inferred
    read-set automatically.

Output is ``path:line: RLxxx message`` per finding; exit status 1 when
anything is flagged.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

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


def check_rl005(path: Path, tree: ast.AST) -> "list[Finding]":
    """``FuncCondition(...)`` built without an attributes declaration."""
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = (func.id if isinstance(func, ast.Name)
                  else func.attr if isinstance(func, ast.Attribute)
                  else "")
        if callee != "FuncCondition":
            continue
        has_positional = len(node.args) >= 2
        has_keyword = any(kw.arg == "attributes" for kw in node.keywords)
        if not has_positional and not has_keyword:
            findings.append(Finding(
                path, node.lineno, "RL005",
                "FuncCondition built without an attributes "
                "declaration; the optimizer reasons from "
                "Condition.attributes(), so an empty declaration is an "
                "unsound input (use attributes=(...) or "
                "FuncCondition.wrap)"))
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
    if SRC in path.parents or (REPO / "examples") in path.parents:
        findings.extend(check_rl005(path, tree))
    return findings


def main(argv: "list[str] | None" = None) -> int:
    """Lint the given files (default: all of ``src/repro``)."""
    argv = sys.argv[1:] if argv is None else argv
    paths = ([Path(arg).resolve() for arg in argv] if argv
             else sorted(SRC.rglob("*.py"))
             + sorted((REPO / "examples").rglob("*.py")))
    findings: "list[Finding]" = []
    for path in paths:
        findings.extend(lint_file(path))
    for finding in findings:
        print(finding)
    checked = len(paths)
    print(f"lint_rules: {checked} file(s), {len(findings)} finding(s)",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
