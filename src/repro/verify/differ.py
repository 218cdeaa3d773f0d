"""The differential runner: every engine configuration vs the oracle.

For one scenario this module runs the full cross product of engine
configurations — ``run()`` (segment-batched) vs a streaming session
pushed one element at a time, NL vs SPIndex join — plus audited and
traced runs on both paths and (where expressible) the two Section I.C
baselines, and diffs each against
:func:`repro.verify.oracle.run_oracle`:

* the multiset of delivered tuples per query, each tagged with its
  resolved role set (so a policy that *widens* is a mismatch even when
  the tuple would have been delivered anyway);
* the delivery-shield denial count in the audit trail's per-decision
  view (which must also add up to ``audit.counts``);
* the executor's total drop counter across the session and ``run()``
  executions of the same plan.

Engines consume the scenario's streams through freshly decoded wire
elements, so no state leaks between configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.algebra.expressions import (DupElimExpr, GroupByExpr, JoinExpr,
                                       LogicalExpr, ProjectExpr, ScanExpr,
                                       SelectExpr, ShieldExpr)
from repro.baselines.store_and_probe import PolicyTable
from repro.baselines.tuple_embedded import embed_policies
from repro.core.punctuation import SecurityPunctuation
from repro.engine.dsms import DSMS
from repro.engine.executor import ExecutionReport
from repro.observability import Observability, Tracer
from repro.operators.conditions import Comparison
from repro.stream.element import StreamElement
from repro.stream.schema import StreamSchema
from repro.stream.source import merge_sources
from repro.stream.tuples import DataTuple
from repro.verify.generator import Scenario
from repro.verify.oracle import (NaiveTracker, OracleOutcome, resolve_batch,
                                 run_oracle, signature)

__all__ = [
    "EngineConfig",
    "EngineOutcome",
    "Mismatch",
    "ScenarioReport",
    "configs_for",
    "expr_from_spec",
    "run_engine",
    "run_baseline_store_probe",
    "run_baseline_tuple_embedded",
    "verify_scenario",
]

ElementMutator = Callable[[str, "list[StreamElement]"], "list[StreamElement]"]


# -- spec -> logical expression ----------------------------------------------

def expr_from_spec(spec: dict, join_variant: str = "nl") -> LogicalExpr:
    """Compile a scenario plan spec into the engine's logical algebra."""
    op = spec["op"]
    if op == "scan":
        return ScanExpr(spec["stream"])
    if op == "shield":
        return ShieldExpr(expr_from_spec(spec["input"], join_variant),
                          tuple(frozenset(p) for p in spec["predicates"]))
    if op == "select":
        cond = spec["condition"]
        if "udf" in cond:
            from repro.operators.udfs import named_udf

            return SelectExpr(expr_from_spec(spec["input"], join_variant),
                              named_udf(cond["udf"]))
        return SelectExpr(
            expr_from_spec(spec["input"], join_variant),
            Comparison(cond["attribute"], cond["op"], cond["value"]))
    if op == "project":
        return ProjectExpr(expr_from_spec(spec["input"], join_variant),
                           tuple(spec["attributes"]))
    if op == "dupelim":
        attrs = spec.get("attributes")
        return DupElimExpr(expr_from_spec(spec["input"], join_variant),
                           spec["window"],
                           tuple(attrs) if attrs else None)
    if op == "groupby":
        return GroupByExpr(expr_from_spec(spec["input"], join_variant),
                           spec.get("key"), spec["agg"], spec["attribute"],
                           spec["window"])
    if op == "join":
        return JoinExpr(expr_from_spec(spec["left"], join_variant),
                        expr_from_spec(spec["right"], join_variant),
                        spec["left_on"], spec["right_on"], spec["window"],
                        variant=join_variant)
    raise ValueError(f"unknown plan op: {op!r}")


def _has_join(spec: dict) -> bool:
    if spec["op"] == "join":
        return True
    return any(_has_join(spec[key]) for key in ("input", "left", "right")
               if spec.get(key) is not None)


# -- engine configurations ----------------------------------------------------

@dataclass(frozen=True)
class EngineConfig:
    """One way to run the engine over a scenario.

    ``label`` is ``<mode>/<join variant>``.  A mode
    starting with ``session`` drives a
    :class:`~repro.engine.session.StreamingSession` one element at a
    time — the production push path, and the element-wise reference
    for ``run()``'s segment-batched execution; every other mode calls
    ``DSMS.run()``.
    """

    label: str
    join_variant: str = "nl"
    audit: bool = False
    #: Traced: run under ``Observability(tracer=Tracer(sample=1.0))``
    #: so sampling, sampled pass records and op spans are live.
    #: Tracing must never change what is delivered, and the hub's
    #: audit log must hold every denial — these configs prove it.
    traced: bool = False

    @property
    def mode(self) -> str:
        """How the plan is driven: session / batched / audited /
        traced — one label per way, so the cross-mode drop check
        proves every mode's total drops equal."""
        return self.label.partition("/")[0]

    @property
    def session(self) -> bool:
        return self.mode.startswith("session")


def configs_for(scenario: Scenario) -> list[EngineConfig]:
    """The engine configurations a scenario is checked under."""
    join = any(_has_join(q["plan"]) for q in scenario.queries.values())
    variants = ("nl", "index") if join else ("nl",)
    configs = [EngineConfig(label=f"{mode}/{variant}", join_variant=variant)
               for variant in variants for mode in ("session", "batched")]
    # Audited axis: the trail's per-decision view must not depend on
    # how decisions are held (one event per push in a session, run
    # records under ``run()``), so both paths run under an audit log.
    for mode in ("session-audited", "audited-batched"):
        configs.append(EngineConfig(label=f"{mode}/nl", audit=True))
    for mode in ("traced", "session-traced"):
        configs.append(EngineConfig(label=f"{mode}/nl", traced=True))
    return configs


# -- engine execution ---------------------------------------------------------

@dataclass
class EngineOutcome:
    """What one engine run produced, in oracle-comparable form."""

    delivered: "dict[str, Counter]" = field(default_factory=dict)
    #: Delivery-shield drop counts from the audit trail (every
    #: observed run: audited and traced configs).
    denied: "dict[str, int] | None" = None
    #: ``audit.counts`` of ``shield.drop`` and ``entry.drop`` minus the
    #: events of those kinds the log expands to — non-zero means the
    #: log's run accounting lost or invented decisions (observed runs,
    #: nothing evicted).
    audit_gap: int = 0
    total_drops: int = 0


def _decode_sink(elements: Iterable[StreamElement]) -> Counter:
    """Resolve a query sink against the sps the engine emitted with it."""
    tracker = NaiveTracker()
    sigs: Counter = Counter()
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            tracker.observe(element)
            continue
        roles = resolve_batch(tracker.governing(), element)
        sigs[signature(element, roles)] += 1
    return sigs


def run_engine(scenario: Scenario, config: EngineConfig,
               element_mutator: ElementMutator | None = None) -> EngineOutcome:
    """Run one engine configuration over a scenario."""
    if config.audit:
        observability: Observability | None = Observability.in_memory()
    elif config.traced:
        # Full-rate sampling: every trace pays for its spans and pass
        # records, so any result-changing interference tracing could
        # cause is maximally exposed.
        observability = Observability(tracer=Tracer(sample=1.0))
    else:
        observability = None
    dsms = DSMS(observability=observability)
    for sp in scenario.server_policies():
        dsms.add_server_policy(sp)
    for sid, spec in scenario.streams.items():
        elements = scenario.decoded()[sid]
        if element_mutator is not None:
            elements = element_mutator(sid, elements)
        dsms.register_stream(
            StreamSchema(sid, tuple(spec["attributes"])), elements)
    for name, query in scenario.queries.items():
        dsms.register_query(
            name, expr_from_spec(query["plan"], config.join_variant),
            roles=frozenset(query["roles"]))
    if config.session:
        # Faults reorder sps only inside an sp-batch (one timestamp),
        # so every stream stays in the order ``push`` insists on.
        session = dsms.open_session()
        delivered: "dict[str, list[StreamElement]]" = {
            name: [] for name in scenario.queries}
        for name, elements in delivered.items():
            session.subscribe(name, elements.append)
        for sid, element in merge_sources(dsms.catalog.sources()):
            session.push(sid, element)
        session.close()
        report: ExecutionReport | None = session.report()
    else:
        delivered = {
            name: result.elements
            for name, result in dsms.run().items()}
        report = dsms.last_report
    outcome = EngineOutcome()
    for name, elements in delivered.items():
        outcome.delivered[name] = _decode_sink(elements)
    if report is not None:
        outcome.total_drops = report.total_drops
    if dsms.audit is not None:
        # Delivery shields are named "delivery:<query>" in the plan.
        drops = dsms.audit.events(kind="shield.drop")
        by_operator: Counter = Counter(event.operator for event in drops)
        outcome.denied = {
            name: by_operator.get(f"delivery:{name}", 0)
            for name in scenario.queries
        }
        if not dsms.audit.evicted:
            outcome.audit_gap = sum(
                dsms.audit.counts[kind]
                - len(dsms.audit.events(kind=kind))
                for kind in ("shield.drop", "entry.drop"))
    return outcome


# -- baselines ----------------------------------------------------------------

def run_baseline_store_probe(scenario: Scenario,
                             name: str, query: dict) -> Counter:
    """Store-and-probe delivery for one query (single-stream scenarios)."""
    qroles = frozenset(query["roles"])
    table = PolicyTable()
    sigs: Counter = Counter()
    (elements,) = scenario.decoded().values()
    for element in elements:
        if isinstance(element, SecurityPunctuation):
            table.store(element)
            continue
        policy = table.probe(element)
        if policy.permits_any(qroles):
            sigs[signature(element, policy.roles)] += 1
    return sigs


def run_baseline_tuple_embedded(scenario: Scenario,
                                name: str, query: dict) -> Counter:
    """Tuple-embedded delivery for one query (single-stream scenarios)."""
    qroles = frozenset(query["roles"])
    sigs: Counter = Counter()
    (elements,) = scenario.decoded().values()
    for policy_tuple in embed_policies(elements):
        if not policy_tuple.policy.isdisjoint(qroles):
            sigs[signature(policy_tuple.tuple, policy_tuple.policy)] += 1
    return sigs


# -- diffing ------------------------------------------------------------------

@dataclass
class Mismatch:
    """One observed divergence between a configuration and the oracle."""

    scenario: str
    config: str
    query: str
    kind: str  # "delivered" | "denied" | "drops" | "error"
    detail: str

    def __str__(self) -> str:
        return (f"[{self.scenario}] {self.config} query={self.query} "
                f"{self.kind}: {self.detail}")


@dataclass
class ScenarioReport:
    """All mismatches of one scenario across all configurations."""

    scenario: Scenario
    mismatches: list = field(default_factory=list)
    configs_run: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _render_sig(sig: tuple) -> str:
    sid, tid, ts, values, roles = sig
    return (f"{sid}:{tid}@{ts} {dict(values)} roles={sorted(roles)}")


def diff_delivered(expected: "list[tuple]", actual: Counter,
                   limit: int = 3) -> str | None:
    """Human-readable multiset diff, or ``None`` when equal."""
    want = Counter(expected)
    if want == actual:
        return None
    missing = list((want - actual).elements())
    extra = list((actual - want).elements())
    parts = []
    if missing:
        shown = "; ".join(_render_sig(s) for s in missing[:limit])
        parts.append(f"missing {len(missing)} (e.g. {shown})")
    if extra:
        shown = "; ".join(_render_sig(s) for s in extra[:limit])
        parts.append(f"extra {len(extra)} (e.g. {shown})")
    return ", ".join(parts)


def verify_scenario(scenario: Scenario, *,
                    include_baselines: bool = True,
                    element_mutator: ElementMutator | None = None,
                    oracle: OracleOutcome | None = None) -> ScenarioReport:
    """Diff every configuration of one scenario against the oracle.

    ``element_mutator`` (fault injection, known-bad engine mutations)
    is applied to the *engine's* input only; pass a pre-computed
    ``oracle`` outcome to compare against something other than the
    scenario's own streams.
    """
    report = ScenarioReport(scenario)
    descr = scenario.describe()
    if oracle is None:
        oracle = run_oracle(scenario.decoded(), scenario.queries,
                            scenario.server_policies())
    drops_by_plan: dict[str, dict[str, int]] = {}
    for config in configs_for(scenario):
        report.configs_run += 1
        try:
            outcome = run_engine(scenario, config, element_mutator)
        except Exception as exc:  # noqa: BLE001 — report, don't crash the run
            report.mismatches.append(Mismatch(
                descr, config.label, "*", "error",
                f"{type(exc).__name__}: {exc}"))
            continue
        for name in scenario.queries:
            detail = diff_delivered(oracle.delivered[name],
                                    outcome.delivered.get(name, Counter()))
            if detail is not None:
                report.mismatches.append(Mismatch(
                    descr, config.label, name, "delivered", detail))
        if outcome.denied is not None:
            for name in scenario.queries:
                if outcome.denied[name] != oracle.denied[name]:
                    report.mismatches.append(Mismatch(
                        descr, config.label, name, "denied",
                        f"audit delivery drops {outcome.denied[name]} "
                        f"!= oracle {oracle.denied[name]}"))
        if outcome.audit_gap:
            report.mismatches.append(Mismatch(
                descr, config.label, "*", "denied",
                f"audit.counts and the expanded drop events "
                f"differ by {outcome.audit_gap}"))
        if not config.audit:
            drops_by_plan.setdefault(config.join_variant, {})[
                config.mode] = outcome.total_drops
    for variant, by_mode in drops_by_plan.items():
        if len(by_mode) > 1 and len(set(by_mode.values())) > 1:
            detail = " != ".join(f"{mode} drops {count}"
                                 for mode, count in sorted(by_mode.items()))
            report.mismatches.append(Mismatch(
                descr, f"*/{variant}", "*", "drops",
                detail))
    if include_baselines and scenario.baseline_compatible() \
            and element_mutator is None:
        for name, query in scenario.queries.items():
            for label, runner in (
                    ("baseline/store-probe", run_baseline_store_probe),
                    ("baseline/tuple-embedded", run_baseline_tuple_embedded)):
                report.configs_run += 1
                try:
                    sigs = runner(scenario, name, query)
                except Exception as exc:  # noqa: BLE001
                    report.mismatches.append(Mismatch(
                        descr, label, name, "error",
                        f"{type(exc).__name__}: {exc}"))
                    continue
                detail = diff_delivered(oracle.delivered[name], sigs)
                if detail is not None:
                    report.mismatches.append(Mismatch(
                        descr, label, name, "delivered", detail))
    return report
