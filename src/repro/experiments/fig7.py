"""Figure 7: comparison of access-control enforcement mechanisms.

The paper's first experiment runs a cheap select-project query ("all
moving objects in the two-mile region around the store") under three
enforcement mechanisms — store-and-probe, tuple-embedded policies, and
security punctuations — and measures:

* **7a** output rate (tuples/ms) vs the sp:tuple ratio,
* **7b** processing cost per tuple (ms) vs the sp:tuple ratio,
* **7c** memory (MB) vs the policy size |R| (ratio fixed at 1/10),
* **7d** processing cost per 100 tuples vs the policy size |R|.

Workload: the synthetic punctuated stream of
:mod:`repro.workloads.synthetic` (segment-scoped tuple-granularity
policies, exactly the paper's setup).  For 7c/7d the policy is one
large role list re-announced every segment — "policies with a lot of
individual role authorizations, such that regular expressions cannot
help minimize the policy definition".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.baselines.store_and_probe import (StoreAndProbeEnforcer,
                                             persistent_table_bytes)
from repro.baselines.tuple_embedded import (TupleEmbeddedEnforcer,
                                            embed_policies)
from repro.core.punctuation import SecurityPunctuation
from repro.metrics.measurement import Timer, deep_sizeof
from repro.operators.conditions import FuncCondition
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.stream.element import StreamElement
from repro.stream.tuples import DataTuple
from repro.workloads.synthetic import QUERY_ROLE, punctuated_stream, role_names

__all__ = [
    "MechanismResult",
    "PAPER_RATIOS",
    "PAPER_POLICY_SIZES",
    "region_condition",
    "run_sp_mechanism",
    "run_store_and_probe",
    "run_tuple_embedded",
    "experiment_fig7ab",
    "experiment_fig7cd",
]

#: The x-axis of Figures 7a/7b: 1/1, 1/10, 1/25, 1/50, 1/100.
PAPER_RATIOS = (1, 10, 25, 50, 100)
#: The x-axis of Figures 7c/7d.
PAPER_POLICY_SIZES = (1, 10, 25, 50, 100)

#: Store position and radius of the running query ("two mile region").
STORE_X, STORE_Y, REGION_RADIUS = 500.0, 500.0, 350.0


def region_condition() -> FuncCondition:
    """Tuples within the region around the store."""

    def in_region(item: DataTuple) -> bool:
        dx = item.values["x"] - STORE_X
        dy = item.values["y"] - STORE_Y
        return dx * dx + dy * dy <= REGION_RADIUS * REGION_RADIUS

    return FuncCondition(in_region, attributes=("x", "y"), label="in_region")


@dataclass
class MechanismResult:
    """One (mechanism, parameter point) measurement."""

    mechanism: str
    tuples_in: int
    tuples_out: int
    elapsed_ms: float
    memory_bytes: int
    #: Policy roles the mechanism materialised while enforcing — an
    #: exact count where the elapsed time is a noisy one.
    roles_materialised: int

    @property
    def output_rate(self) -> float:
        """Output tuples per millisecond of processing."""
        if self.elapsed_ms <= 0:
            return 0.0
        return self.tuples_out / self.elapsed_ms

    @property
    def per_tuple_ms(self) -> float:
        if self.tuples_in <= 0:
            return 0.0
        return self.elapsed_ms / self.tuples_in

    @property
    def per_100_tuples_ms(self) -> float:
        return self.per_tuple_ms * 100.0

    @property
    def memory_mb(self) -> float:
        return self.memory_bytes / (1024.0 * 1024.0)


def _query_operators() -> tuple[Select, Project]:
    return (Select(region_condition()),
            Project(("object_id", "x", "y")))


def _drive_chain(elements, operators) -> int:
    """Push elements through an operator chain; return tuples out."""
    tuples_out = 0
    for element in elements:
        batch = [element]
        for operator in operators:
            next_batch: list[StreamElement] = []
            for item in batch:
                next_batch.extend(operator.process(item))
            batch = next_batch
            if not batch:
                break
        for item in batch:
            if isinstance(item, DataTuple):
                tuples_out += 1
    return tuples_out


def _inflight_sp_bytes(elements, buffer_size: int) -> int:
    """Memory of sps concurrently in the system.

    Models a server ingress/operator buffer holding the most recent
    ``buffer_size`` elements: the sp mechanism's policy memory is the
    sps inside that buffer (policies shared across their segments).
    One deep walk over all of them, so objects genuinely shared
    between sps (interned role strings, the wildcard pattern) are
    counted once.
    """
    window = elements[-buffer_size:] if buffer_size else elements
    sps = [e for e in window if isinstance(e, SecurityPunctuation)]
    return deep_sizeof(sps)


def _embedded_policy_bytes(policy_tuples, buffer_size: int) -> int:
    """Memory of the embedded per-tuple policy copies in the buffer."""
    window = (policy_tuples[-buffer_size:] if buffer_size
              else policy_tuples)
    return deep_sizeof([pt.policy for pt in window])


def run_sp_mechanism(elements: list[StreamElement], roles,
                     buffer_size: int = 500) -> MechanismResult:
    """Security-punctuation enforcement: SS → σ → π."""
    shield = SecurityShield(roles)
    select, project = _query_operators()
    timer = Timer()
    with timer:
        tuples_out = _drive_chain(elements, (shield, select, project))
    tuples_in = sum(1 for e in elements if isinstance(e, DataTuple))
    return MechanismResult(
        mechanism="security punctuations",
        tuples_in=tuples_in,
        tuples_out=tuples_out,
        elapsed_ms=timer.elapsed_ms,
        memory_bytes=_inflight_sp_bytes(elements, buffer_size),
        # One resolved policy per sp-batch, shared by its segment.
        roles_materialised=sum(len(e.roles()) for e in elements
                               if isinstance(e, SecurityPunctuation)),
    )


def run_store_and_probe(elements: list[StreamElement], roles,
                        buffer_size: int = 500) -> MechanismResult:
    """Store-and-probe enforcement: central table + per-tuple probe."""
    enforcer = StoreAndProbeEnforcer(roles)
    select, project = _query_operators()
    timer = Timer()
    with timer:
        tuples_out = _drive_chain(enforcer.ingest(elements),
                                  (select, project))
    tuples_in = sum(1 for e in elements if isinstance(e, DataTuple))
    return MechanismResult(
        mechanism="store-and-probe",
        tuples_in=tuples_in,
        tuples_out=tuples_out,
        elapsed_ms=timer.elapsed_ms,
        memory_bytes=persistent_table_bytes(enforcer.table),
        roles_materialised=enforcer.table.roles_materialised,
    )


def run_tuple_embedded(elements: list[StreamElement], roles,
                       buffer_size: int = 500) -> MechanismResult:
    """Tuple-embedded enforcement: per-tuple policy copies.

    Under this architecture every arriving tuple is fat — it carries
    its own policy copy — so the server's ingest path pays a
    size-proportional materialization cost per tuple in addition to the
    per-tuple policy check.  Both are inside the timed section
    (``embed_policies`` is the ingest step that materializes each
    tuple's private policy copy into operator memory).
    """
    enforcer = TupleEmbeddedEnforcer(roles)
    select, project = _query_operators()
    policy_tuples = []
    timer = Timer()
    with timer:
        def ingest():
            for policy_tuple in embed_policies(elements):
                policy_tuples.append(policy_tuple)
                yield policy_tuple

        tuples_out = _drive_chain(enforcer.ingest(ingest()),
                                  (select, project))
    tuples_in = sum(1 for e in elements if isinstance(e, DataTuple))
    return MechanismResult(
        mechanism="tuple-embedded",
        tuples_in=tuples_in,
        tuples_out=tuples_out,
        elapsed_ms=timer.elapsed_ms,
        memory_bytes=_embedded_policy_bytes(policy_tuples, buffer_size),
        # One private copy per tuple.
        roles_materialised=sum(len(pt.policy) for pt in policy_tuples),
    )


_MECHANISMS = (run_store_and_probe, run_tuple_embedded, run_sp_mechanism)


def experiment_fig7ab(n_tuples: int = 5000,
                      ratios=PAPER_RATIOS,
                      policy_size: int = 3,
                      repeats: int = 1,
                      seed: int = 7) -> list[dict]:
    """Output rate and per-tuple cost vs sp:tuple ratio (Figs 7a/7b).

    ``repeats`` > 1 keeps the best-of-N timing per mechanism (output
    counts are deterministic and identical across runs).
    """
    rows: list[dict] = []
    for ratio in ratios:
        elements = list(punctuated_stream(
            n_tuples, tuples_per_sp=ratio, policy_size=policy_size,
            accessible_fraction=0.6, seed=seed))
        for run in _MECHANISMS:
            best: MechanismResult | None = None
            for _ in range(max(repeats, 1)):
                result = run(elements, [QUERY_ROLE])
                if best is None or result.elapsed_ms < best.elapsed_ms:
                    best = result
            assert best is not None
            rows.append({
                "ratio": f"1/{ratio}",
                "mechanism": best.mechanism,
                "output_rate": best.output_rate,
                "per_tuple_ms": best.per_tuple_ms,
                "tuples_out": best.tuples_out,
                "roles_materialised": best.roles_materialised,
            })
    return rows


def _large_policy_stream(n_tuples: int, policy_size: int,
                         tuples_per_sp: int, seed: int) -> list[StreamElement]:
    """One big shared policy re-announced per segment (Figs 7c/7d).

    All segments carry the *same* |R|-role policy (including the query
    role), so the central table stores a single copy while the sp
    mechanism streams one copy per in-flight segment — the exact
    contrast of Figure 7c.
    """
    rng = random.Random(seed)
    roles = sorted(set(role_names(policy_size - 1) + [QUERY_ROLE]))
    out: list[StreamElement] = []
    ts = 0.0
    emitted = 0
    while emitted < n_tuples:
        ts += 1.0
        out.append(SecurityPunctuation.grant(roles, ts, provider="synth"))
        for _ in range(min(tuples_per_sp, n_tuples - emitted)):
            ts += 1.0
            out.append(DataTuple(
                "synthetic", emitted,
                {"object_id": emitted,
                 "x": rng.uniform(0.0, 1000.0),
                 "y": rng.uniform(0.0, 1000.0)},
                ts))
            emitted += 1
    return out


def experiment_fig7cd(n_tuples: int = 4000,
                      policy_sizes=PAPER_POLICY_SIZES,
                      tuples_per_sp: int = 10,
                      buffer_size: int = 500,
                      seed: int = 11) -> list[dict]:
    """Memory and per-100-tuple cost vs policy size |R| (Figs 7c/7d).

    Each row also counts the policy roles its mechanism materialised
    while enforcing, the deterministic side of Fig 7d's cost.
    """
    rows: list[dict] = []
    for policy_size in policy_sizes:
        elements = _large_policy_stream(n_tuples, policy_size,
                                        tuples_per_sp, seed)
        for run in _MECHANISMS:
            result = run(elements, [QUERY_ROLE], buffer_size=buffer_size)
            rows.append({
                "policy_size": policy_size,
                "mechanism": result.mechanism,
                "memory_mb": result.memory_mb,
                "memory_bytes": result.memory_bytes,
                "per_100_tuples_ms": result.per_100_tuples_ms,
                "roles_materialised": result.roles_materialised,
            })
    return rows
