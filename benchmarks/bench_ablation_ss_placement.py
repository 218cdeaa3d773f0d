"""Ablation — SS placement: pre-, intermediate- and post-filtering.

Section IV.A sketches three placements of access-control filtering
around a query plan; each is one Security Shield placed by hand, before
the selection (pre-filtering), between selection and projection, or
after the whole query (post-filtering).  The query here is select-heavy over a stream
with low security selectivity (few tuples accessible to the query's
role), the regime where early filtering pays: pre/intermediate
placement discards unauthorized tuples before the selection evaluates
them, while post-filtering runs the whole query first.

A second parameter point flips the regime (selective query, permissive
policies), where post-filtering's plan-sharing-friendly layout costs
little.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig7 import region_condition
from repro.operators.project import Project
from repro.operators.select import Select
from repro.operators.shield import SecurityShield
from repro.stream.element import StreamElement
from repro.workloads.synthetic import QUERY_ROLE, punctuated_stream


def drive(elements, operators) -> int:
    out = 0
    for element in elements:
        batch = [element]
        for operator in operators:
            nxt: list[StreamElement] = []
            for item in batch:
                nxt.extend(operator.process(item))
            batch = nxt
            if not batch:
                break
        out += len(batch)
    return out


def make_layout(name):
    select = Select(region_condition())
    project = Project(("object_id", "x", "y"))
    shield = SecurityShield([QUERY_ROLE])
    if name == "pre":
        return (shield, select, project)
    if name == "intermediate":
        return (select, shield, project)
    return (select, project, shield)


REGIMES = {
    # Tight policies: only 10% of segments accessible → filter early.
    "tight-policies": dict(accessible_fraction=0.1),
    # Permissive policies: filtering late costs little.
    "permissive-policies": dict(accessible_fraction=0.9),
}


@pytest.fixture(scope="module")
def streams(bench_tuples):
    return {
        regime: list(punctuated_stream(
            bench_tuples, tuples_per_sp=10, policy_size=3, seed=47,
            **params))
        for regime, params in REGIMES.items()
    }


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("placement", ["pre", "intermediate", "post"])
def test_ablation_ss_placement(benchmark, streams, placement, regime):
    elements = streams[regime]
    result = benchmark(lambda: drive(elements, make_layout(placement)))
    benchmark.extra_info["placement"] = placement
    benchmark.extra_info["regime"] = regime
    benchmark.extra_info["elements_out"] = result
