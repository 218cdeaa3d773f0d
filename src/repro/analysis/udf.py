"""UDF effect and taint analysis (verified read-sets, purity proofs).

``FuncCondition`` is the plan algebra's trusted escape hatch: an
arbitrary Python callable whose ``attributes`` declaration the static
analysis reasons from.  A UDF that reads an undeclared, sp-protected
attribute silently defeats SEC002 and every check built on
``Condition.attributes()``.

This module lifts each callable at query-registration time and infers:

* the **attribute read-set** — which tuple attributes the callable can
  observe, via abstract interpretation of ``item.values[...]``,
  ``item[...]``, ``item.get(...)`` and ``... in item`` chains on the
  tuple parameter over its source AST.  A callable whose source
  ``inspect.getsource`` cannot recover or single out (REPL/``exec``
  definitions, two same-argument lambdas on one line) has an UNKNOWN
  read-set;
* **purity** — no global/closure mutation, no I/O, no mutating method
  reachable through a bounded call-graph walk over resolvable
  globals, closure cells and nested code objects;
* **determinism** — no ``random``/``time``/``id()``/``hash()`` or
  other per-process state reachable the same way (``hash`` of a str
  is ``PYTHONHASHSEED``-dependent, so it is nondeterministic *across
  processes*).

Purity and determinism come from a scan of the callable's bytecode,
so they are decided with or without source.

Every verdict is three-valued (:class:`Proof`) and **fails closed**:
dynamic dispatch, computed ``getattr`` names, ``eval``, C extensions
and any unmodelled construct yield UNKNOWN, which every consumer
treats as a refusal.

Consumers:

* :func:`udf_diagnostics` — SEC006 (undeclared-attribute read),
  SEC007 (impure/nondeterministic UDF on an enforcement path) and
  SEC008 (read-set widens an attribute-scoped sp's pruning), emitted
  through :func:`repro.analysis.exprcheck.analyze_expr` and thus
  ``register_query(analyze=...)``, ``verify_scenario`` and
  ``repro lint``.
"""

from __future__ import annotations

import ast
import dis
import inspect
import textwrap
import enum
import types
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.analysis.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.lattice import StreamFacts
    from repro.operators.conditions import Condition, FuncCondition

__all__ = [
    "EffectReport",
    "Proof",
    "analyze_callable",
    "condition_udfs",
    "udf_diagnostics",
]


class Proof(enum.Enum):
    """Outcome of trying to prove a property of a callable."""

    #: The property holds on every path the analysis checked.
    PROVEN = "proven"
    #: The property provably fails.
    REFUTED = "refuted"
    #: Nothing is known; fail closed.
    UNKNOWN = "unknown"

#: Builtins that are pure, deterministic and safe to call from a UDF.
SAFE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "divmod", "float", "frozenset", "int",
    "isinstance", "len", "max", "min", "pow", "round", "str", "sum",
    "tuple",
})

#: Builtins that refute purity outright (I/O, state, code loading).
IMPURE_BUILTINS = frozenset({
    "print", "open", "input", "eval", "exec", "compile", "__import__",
    "setattr", "delattr", "globals", "locals", "vars", "exit", "quit",
})

#: Names/modules that refute *determinism* (per-process or wall-clock
#: state; ``hash``/``id`` differ across processes).
NONDET_NAMES = frozenset({"id", "hash"})
NONDET_MODULES = frozenset({
    "random", "time", "datetime", "os", "uuid", "secrets", "socket",
    "threading", "multiprocessing",
})

#: Modules whose attributes are pure deterministic functions/constants.
SAFE_MODULES = frozenset({"math", "operator", "statistics", "cmath"})

#: Method names whose call mutates the receiver (or performs I/O).
MUTATOR_METHODS = frozenset({
    "append", "add", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "reverse", "setdefault", "sort", "update",
    "write", "writelines", "flush", "send", "put",
})

#: DataTuple metadata attributes — reads of these are not schema reads.
TUPLE_METADATA = frozenset({"sid", "tid", "ts"})

#: Bounded call-graph walk depth.
MAX_CALL_DEPTH = 3


def _meet(*proofs: Proof) -> Proof:
    """Three-valued conjunction: REFUTED < UNKNOWN < PROVEN."""
    if any(p is Proof.REFUTED for p in proofs):
        return Proof.REFUTED
    if any(p is Proof.UNKNOWN for p in proofs):
        return Proof.UNKNOWN
    return Proof.PROVEN


@dataclass(frozen=True)
class EffectReport:
    """Inferred effects of one Python callable.

    ``reads`` is the set of tuple attributes the callable can observe
    (``None`` = not statically determinable — fail closed).  The two
    proofs are PROVEN only when the property holds on *every* path the
    bounded analysis could check.
    """

    reads: "frozenset[str] | None"
    purity: Proof
    determinism: Proof
    #: Human-readable notes on every downgrade from PROVEN.
    reasons: tuple[str, ...] = ()

    @property
    def proven_pure(self) -> bool:
        """Pure *and* deterministic."""
        return (self.purity is Proof.PROVEN
                and self.determinism is Proof.PROVEN)

    def undeclared(self,
                   declared: "frozenset[str]") -> "frozenset[str] | None":
        """Inferred reads outside the declaration (None = unknown)."""
        if self.reads is None:
            return None
        return self.reads - declared


#: Per-callable memo (the analysis is deterministic in the callable).
_CACHE: "dict[int, tuple[Any, EffectReport]]" = {}
_CACHE_LIMIT = 1024


def analyze_callable(fn: Callable[..., object],
                     _depth: int = 0,
                     _seen: "frozenset[int] | None" = None) -> EffectReport:
    """Infer the effects of ``fn`` (see :class:`EffectReport`).

    Anything that is not plain analyzable Python — C extensions,
    builtins, dynamic dispatch — yields the all-UNKNOWN report.
    """
    key = id(fn)
    cached = _CACHE.get(key)
    if cached is not None and cached[0] is fn:
        return cached[1]
    report = _analyze(fn, _depth, _seen or frozenset())
    if _seen is None:
        # A helper's verdict depends on the depth and the call cycle it
        # was reached through (a cycle's back edge reads as PROVEN), so
        # only a top-level verdict is memoised.
        if len(_CACHE) > _CACHE_LIMIT:  # unbounded plans: drop, don't grow
            _CACHE.clear()
        _CACHE[key] = (fn, report)
    return report


def _analyze(fn: Callable[..., object], depth: int,
             seen: "frozenset[int]") -> EffectReport:
    code = getattr(fn, "__code__", None)
    if not isinstance(code, types.CodeType):
        return EffectReport(
            None, Proof.UNKNOWN, Proof.UNKNOWN,
            ("not a pure-Python function (C extension or builtin); "
             "effects are not analyzable",))
    if id(code) in seen:  # recursion: already accounted one level up
        return EffectReport(None, Proof.PROVEN, Proof.PROVEN,
                            ("recursive call cycle",))
    seen = seen | {id(code)}

    scan = _BytecodeScan(fn, code, depth, seen)
    scan.run()

    reads: "frozenset[str] | None" = None
    tree = _source_tree(fn, code)
    if tree is not None:
        ast_result = _AstReads(tree, _param_name(code)).run()
        reads = ast_result.reads
        scan.reasons.extend(ast_result.reasons)
    else:
        scan.reasons.append(
            "read-set not recoverable: source unavailable or ambiguous")
    return EffectReport(reads, scan.purity, scan.determinism,
                        tuple(dict.fromkeys(scan.reasons)))


def _param_name(code: types.CodeType) -> "str | None":
    """The tuple parameter: the callable's first positional arg."""
    if code.co_argcount < 1:
        return None
    return code.co_varnames[0]


# -- bytecode pass: purity / determinism / call graph -------------------------

class _BytecodeScan:
    """Opcode + resolvable-global scan over a code object tree.

    Version-robust on purpose: it never models the evaluation stack,
    only instruction presence and resolvable ``LOAD_GLOBAL`` /
    ``LOAD_DEREF`` targets, so it degrades to UNKNOWN — never to a
    wrong PROVEN — on new opcodes.
    """

    def __init__(self, fn: Callable[..., object], code: types.CodeType,
                 depth: int, seen: "frozenset[int]"):
        self.fn = fn
        self.code = code
        self.depth = depth
        self.seen = seen
        self.purity = Proof.PROVEN
        self.determinism = Proof.PROVEN
        self.reasons: "list[str]" = []

    # resolution ------------------------------------------------------
    def _closure_cells(self) -> "dict[str, object]":
        cells: "dict[str, object]" = {}
        closure = getattr(self.fn, "__closure__", None) or ()
        freevars = self.code.co_freevars
        for name, cell in zip(freevars, closure):
            try:
                cells[name] = cell.cell_contents
            except ValueError:  # empty cell
                pass
        return cells

    def _resolve_global(self, name: str) -> "tuple[bool, object]":
        namespace = getattr(self.fn, "__globals__", None) or {}
        if name in namespace:
            return True, namespace[name]
        builtins_ns = namespace.get("__builtins__", __builtins__)
        if isinstance(builtins_ns, dict):
            if name in builtins_ns:
                return True, builtins_ns[name]
        elif hasattr(builtins_ns, name):
            return True, getattr(builtins_ns, name)
        return False, None

    def _downgrade_purity(self, to: Proof, reason: str) -> None:
        self.purity = _meet(self.purity, to)
        self.reasons.append(reason)

    def _downgrade_determinism(self, to: Proof, reason: str) -> None:
        self.determinism = _meet(self.determinism, to)
        self.reasons.append(reason)

    def _check_value(self, name: str, value: object) -> None:
        """Judge one resolved global / closure-cell value."""
        if isinstance(value, types.ModuleType):
            mod = value.__name__.split(".")[0]
            if mod in NONDET_MODULES:
                self._downgrade_purity(
                    Proof.REFUTED, f"reaches module {mod!r}")
                self._downgrade_determinism(
                    Proof.REFUTED, f"module {mod!r} is nondeterministic")
            elif mod not in SAFE_MODULES:
                self._downgrade_purity(
                    Proof.UNKNOWN, f"unvetted module {mod!r}")
                self._downgrade_determinism(
                    Proof.UNKNOWN, f"unvetted module {mod!r}")
            return
        if isinstance(value, (types.FunctionType, types.LambdaType)):
            if self.depth >= MAX_CALL_DEPTH:
                self._downgrade_purity(
                    Proof.UNKNOWN, f"call depth limit at {name!r}")
                self._downgrade_determinism(
                    Proof.UNKNOWN, f"call depth limit at {name!r}")
                return
            child = analyze_callable(value, self.depth + 1, self.seen)
            self.purity = _meet(self.purity, child.purity)
            self.determinism = _meet(self.determinism, child.determinism)
            if child.purity is not Proof.PROVEN:
                self.reasons.append(f"helper {name!r}: purity "
                                    f"{child.purity.value}")
            if child.determinism is not Proof.PROVEN:
                self.reasons.append(f"helper {name!r}: determinism "
                                    f"{child.determinism.value}")
            return
        if callable(value):
            builtin_name = getattr(value, "__name__", name)
            if builtin_name in IMPURE_BUILTINS:
                self._downgrade_purity(
                    Proof.REFUTED, f"calls impure builtin "
                    f"{builtin_name!r}")
            elif builtin_name in NONDET_NAMES:
                self._downgrade_determinism(
                    Proof.REFUTED,
                    f"{builtin_name}() is process-specific")
            elif builtin_name not in SAFE_BUILTINS:
                self._downgrade_purity(
                    Proof.UNKNOWN, f"unvetted callable {name!r}")
                self._downgrade_determinism(
                    Proof.UNKNOWN, f"unvetted callable {name!r}")
            return
        if not _is_immutable_constant(value):
            # Reading mutable shared state: pure per se, but the value
            # can change between evaluations (reordering-observable).
            self._downgrade_determinism(
                Proof.UNKNOWN, f"reads mutable shared state {name!r}")

    # the scan --------------------------------------------------------
    def run(self) -> None:
        cells = self._closure_cells()
        for code in _code_tree(self.code):
            for instr in dis.get_instructions(code):
                op = instr.opname
                arg = instr.argval
                if op in ("STORE_GLOBAL", "DELETE_GLOBAL"):
                    self._downgrade_purity(
                        Proof.REFUTED, f"writes global {arg!r}")
                elif op in ("STORE_DEREF", "DELETE_DEREF"):
                    if arg in self.code.co_freevars:
                        self._downgrade_purity(
                            Proof.REFUTED,
                            f"rebinds closure variable {arg!r}")
                elif op in ("STORE_ATTR", "DELETE_ATTR",
                            "STORE_SUBSCR", "DELETE_SUBSCR"):
                    self._downgrade_purity(
                        Proof.UNKNOWN,
                        f"stores through {op.lower()} (target not "
                        "provably local)")
                elif op == "IMPORT_NAME":
                    self._downgrade_purity(
                        Proof.UNKNOWN, f"imports {arg!r} at call time")
                elif op in ("LOAD_GLOBAL", "LOAD_NAME"):
                    resolved, value = self._resolve_global(str(arg))
                    if resolved:
                        self._check_value(str(arg), value)
                    else:
                        self._downgrade_purity(
                            Proof.UNKNOWN,
                            f"unresolvable global {arg!r}")
                        self._downgrade_determinism(
                            Proof.UNKNOWN,
                            f"unresolvable global {arg!r}")
                elif op == "LOAD_DEREF":
                    if arg in cells:
                        self._check_value(str(arg), cells[arg])
                    elif arg in self.code.co_freevars:
                        self._downgrade_purity(
                            Proof.UNKNOWN, f"unbound closure cell "
                            f"{arg!r}")
                        self._downgrade_determinism(
                            Proof.UNKNOWN, f"unbound closure cell "
                            f"{arg!r}")
                elif (op in ("LOAD_METHOD", "LOAD_ATTR")
                        and arg in MUTATOR_METHODS):
                    self._downgrade_purity(
                        Proof.UNKNOWN,
                        f"loads mutating method {arg!r}")


def _code_tree(code: types.CodeType) -> "Iterator[types.CodeType]":
    """The code object plus every nested code object (lambdas, comps)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const)


def _is_immutable_constant(value: object) -> bool:
    if value is None or isinstance(value, (bool, int, float, complex,
                                           str, bytes)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_is_immutable_constant(v) for v in value)
    return False


# -- AST pass: read-set -------------------------------------------------------

@dataclass
class _AstResult:
    reads: "frozenset[str] | None"
    reasons: "list[str]"


def _source_tree(fn: Callable[..., object],
                 code: types.CodeType) -> "ast.AST | None":
    """The function's AST body node, or None when unrecoverable."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(source)
    except SyntaxError:
        # A lambda sliced out of a larger statement may not reparse;
        # wrap it in parentheses and retry before giving up.
        try:
            tree = ast.parse(f"({source.strip()})")
        except SyntaxError:
            return None
    candidates: "list[ast.AST]" = []
    want_args = code.co_varnames[:code.co_argcount]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = tuple(a.arg for a in node.args.args)
            if args == tuple(want_args):
                candidates.append(node)
    if len(candidates) != 1:
        return None  # ambiguous source line: fail closed
    return candidates[0]


class _AstReads:
    """Read-set extraction over the function body AST.

    Tracks the tuple parameter and its simple aliases through the
    modelled access patterns; any unmodelled use of the parameter
    makes the read-set UNKNOWN (never silently incomplete).
    """

    def __init__(self, func: ast.AST, param: "str | None"):
        self.func = func
        self.param = param
        self.reads: "set[str]" = set()
        self.unknown = False
        self.reasons: "list[str]" = []
        #: Alias name -> "param" | "values" (single-assignment only).
        self.aliases: "dict[str, str]" = {}
        #: AST nodes already consumed by an enclosing pattern.
        self._consumed: "set[int]" = set()

    def run(self) -> _AstResult:
        if self.param is None:
            return _AstResult(None, ["callable takes no tuple parameter"])
        body = (self.func.body if isinstance(self.func, ast.Lambda)
                else self.func)
        self._collect_aliases(body)
        self._walk(body, shadowed=frozenset())
        reads = None if self.unknown else frozenset(self.reads)
        return _AstResult(reads, self.reasons)

    # aliases ---------------------------------------------------------
    def _collect_aliases(self, body: ast.AST) -> None:
        assigned: "dict[str, int]" = {}
        for node in ast.walk(body):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigned[target.id] = assigned.get(target.id, 0) + 1
                    kind = self._source_kind(node.value)
                    if kind is not None:
                        self.aliases[target.id] = kind
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign,
                                   ast.For, ast.withitem)):
                for name in _assigned_names(node):
                    assigned[name] = assigned.get(name, 0) + 2
        # Re-assigned names are not trustworthy aliases.
        for name, count in assigned.items():
            if count > 1:
                self.aliases.pop(name, None)

    def _source_kind(self, value: ast.AST) -> "str | None":
        if isinstance(value, ast.Name) and value.id == self.param:
            return "param"
        if (isinstance(value, ast.Attribute) and value.attr == "values"
                and isinstance(value.value, ast.Name)
                and value.value.id == self.param):
            return "values"
        return None

    def _kind_of(self, node: ast.AST) -> "str | None":
        """'param' / 'values' when ``node`` denotes the tuple (part)."""
        if isinstance(node, ast.Name):
            if node.id == self.param:
                return "param"
            return self.aliases.get(node.id)
        if (isinstance(node, ast.Attribute) and node.attr == "values"):
            inner = self._kind_of(node.value)
            if inner == "param":
                return "values"
        return None

    # the walk --------------------------------------------------------
    def _mark_unknown(self, reason: str) -> None:
        self.unknown = True
        self.reasons.append(reason)

    def _walk(self, node: ast.AST,
              shadowed: "frozenset[str]") -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, shadowed)

    def _visit(self, node: ast.AST, shadowed: "frozenset[str]") -> None:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and node.targets[0].id in self.aliases \
                and self._source_kind(node.value) is not None:
            # A tracked single-assignment alias (``v = item.values``):
            # the value is consumed by the alias table, not an escape.
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            inner_args = frozenset(a.arg for a in node.args.args)
            if self.param in inner_args:
                # The nested scope shadows the tuple parameter: its
                # body cannot read our tuple through that name.
                return
            if any(isinstance(sub, ast.Name) and sub.id == self.param
                   for sub in ast.walk(node)):
                self._mark_unknown(
                    "tuple parameter captured by a nested function")
            return
        if isinstance(node, ast.Subscript):
            kind = self._kind_of(node.value)
            if kind is not None:
                key = node.slice
                if isinstance(key, ast.Constant) and isinstance(
                        key.value, str):
                    self.reads.add(key.value)
                    self._consumed.add(id(node.value))
                    self._visit(key, shadowed)
                    return
                self._mark_unknown(
                    "tuple subscript with a computed key")
                return
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "get"
                    and self._kind_of(func.value) is not None):
                self._consumed.add(id(func.value))
                if node.args and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    self.reads.add(node.args[0].value)
                    for extra in node.args[1:]:
                        self._visit(extra, shadowed)
                    return
                self._mark_unknown("tuple .get() with a computed key")
                return
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("attributes", "keys", "items",
                                      "__iter__")
                    and self._kind_of(func.value) is not None):
                self._consumed.add(id(func.value))
                self._mark_unknown(
                    f"reads the whole attribute set via .{func.attr}()")
                return
        if isinstance(node, ast.Compare) and len(node.ops) == 1 \
                and isinstance(node.ops[0], (ast.In, ast.NotIn)) \
                and self._kind_of(node.comparators[0]) is not None:
            self._consumed.add(id(node.comparators[0]))
            probe = node.left
            if isinstance(probe, ast.Constant) and isinstance(
                    probe.value, str):
                self.reads.add(probe.value)
                return
            self._mark_unknown("membership probe with a computed key")
            return
        if isinstance(node, ast.Attribute):
            kind = self._kind_of(node.value)
            if kind == "param":
                if node.attr in TUPLE_METADATA or node.attr == "values":
                    self._consumed.add(id(node.value))
                    # Bare ``item.values`` not consumed by a modelled
                    # pattern: the dict escapes.
                    if node.attr == "values" and not self._is_modelled(
                            node):
                        self._mark_unknown(
                            "the values dict escapes the modelled "
                            "access patterns")
                    return
                self._mark_unknown(
                    f"unmodelled tuple attribute .{node.attr}")
                return
        if isinstance(node, ast.Name) and node.id == self.param \
                and node.id not in shadowed:
            if id(node) not in self._consumed:
                self._mark_unknown(
                    "tuple parameter escapes the modelled access "
                    "patterns")
            return
        self._walk(node, shadowed)

    def _is_modelled(self, values_attr: ast.Attribute) -> bool:
        """Whether this ``.values`` node was consumed by a pattern."""
        return id(values_attr) in self._consumed


def _assigned_names(node: ast.AST) -> "list[str]":
    target = getattr(node, "target", None)
    if target is None:
        target = getattr(node, "optional_vars", None)
    names: "list[str]" = []
    if target is not None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
    return names


# -- condition-level verdicts -------------------------------------------------

def _condition_leaves(cond: "Condition") -> "Iterator[Condition]":
    from repro.operators.conditions import And, Not, Or

    if isinstance(cond, (And, Or)):
        for part in cond.parts:
            yield from _condition_leaves(part)
    elif isinstance(cond, Not):
        yield from _condition_leaves(cond.inner)
    else:
        yield cond


def condition_udfs(cond: "Condition") -> "list[FuncCondition]":
    """Every ``FuncCondition`` leaf reachable in a condition tree."""
    from repro.operators.conditions import FuncCondition

    return [leaf for leaf in _condition_leaves(cond)
            if isinstance(leaf, FuncCondition)]


# -- SEC006-SEC008 diagnostics ------------------------------------------------

def udf_diagnostics(cond: "Condition", path: str, *,
                    facts: "StreamFacts | None" = None,
                    streams: "Iterable[str] | None" = None
                    ) -> "list[Diagnostic]":
    """UDF findings for one select condition at ``path``.

    * **SEC006** *error* — the inferred read-set is not covered by the
      declaration (or the declaration is empty on a non-trivial
      callable); *warning* — the read-set is not statically
      determinable, so the declaration is being trusted unverified.
    * **SEC007** *warning* — the callable is provably impure or
      nondeterministic; it sits on an enforcement path (every select
      of a registered query feeds a Security Shield or the delivery
      backstop), where side effects observe tuples that enforcement
      placement is allowed to reorder.
    * **SEC008** *error* — concrete stream facts show attribute-scoped
      sps governing attributes the UDF reads beyond its declaration:
      the undeclared read widens what the sp's pruning was proven
      against (the UDF-shaped form of SEC002).
    """
    diagnostics: "list[Diagnostic]" = []
    for udf in condition_udfs(cond):
        declared = udf.attributes()
        effects = udf.effects
        where = f"{path}<{udf.label}>"
        undeclared = effects.undeclared(declared)
        if undeclared:
            diagnostics.append(Diagnostic(
                "SEC006", Severity.ERROR, where,
                f"UDF {udf.label!r} reads attribute(s) "
                f"{sorted(undeclared)} not in its declared set "
                f"{sorted(declared)}; the static analysis reasons "
                "from the declaration, so the undeclared read "
                "escapes every attribute-based safety proof",
                fixit=f"declare attributes={sorted(effects.reads or ())}"
                      " on the FuncCondition"))
        elif effects.reads is None:
            why = "; ".join(effects.reasons[:2]) or "opaque callable"
            if not declared:
                diagnostics.append(Diagnostic(
                    "SEC006", Severity.ERROR, where,
                    f"UDF {udf.label!r} declares no attributes and its "
                    f"read-set is not statically determinable ({why}); "
                    "an empty declaration on a non-trivial callable "
                    "hides every read from the static analysis",
                    fixit="pass attributes=(...) naming every "
                          "attribute the callable reads"))
            else:
                diagnostics.append(Diagnostic(
                    "SEC006", Severity.WARNING, where,
                    f"UDF {udf.label!r} read-set is not statically "
                    f"verifiable ({why}); trusting the declared "
                    f"attributes {sorted(declared)} unverified"))
        if (effects.purity is Proof.REFUTED
                or effects.determinism is Proof.REFUTED):
            trait = ("impure" if effects.purity is Proof.REFUTED
                     else "nondeterministic")
            why = "; ".join(effects.reasons[:2])
            diagnostics.append(Diagnostic(
                "SEC007", Severity.WARNING, where,
                f"provably {trait} UDF {udf.label!r} on an enforcement "
                f"path ({why}); its side effects observe tuples that "
                "shield placement and run cutting are free to "
                "reorder",
                fixit="make the callable a pure function of its tuple "
                      "argument"))
        if facts is not None and facts.known and streams is not None:
            governed = facts.governed_attributes(streams) or frozenset()
            widening = (undeclared or frozenset()) & governed
            if widening:
                diagnostics.append(Diagnostic(
                    "SEC008", Severity.ERROR, where,
                    f"UDF {udf.label!r} reads undeclared attribute(s) "
                    f"{sorted(widening)} governed by attribute-scoped "
                    "sp-batches; the read widens what the sp's pruning "
                    "analysis proved, leaking protected attributes "
                    "into the predicate's decisions",
                    fixit=f"declare {sorted(widening)} so SEC002's "
                          "pruning analysis sees the dependency, or "
                          "stop reading the governed attribute"))
    return diagnostics
