"""Differential proof for registered-UDF select plans.

A ``{"udf": name}`` select condition must deliver the oracle's exact
multiset under every configuration ``configs_for`` generates —
element-wise / segment-batched, NL / index join, audited and traced —
because the registered callable *is* the semantics on both sides: the
oracle calls it directly while the engine routes it through
``FuncCondition``.  Zero mismatches here is the acceptance bar for the
registered-UDF path.
"""

import json

from repro.operators.udfs import udf_entry
from repro.verify.differ import configs_for, verify_scenario
from repro.verify.generator import Scenario


def _sp(roles, ts):
    inner = ", ".join(sorted(roles))
    return json.dumps({
        "k": "sp",
        "sp": f"<*, *, * | {{{inner}}} | + | F | {ts}>",
        "p": "cars",
    })


def _tuple(tid, x, y, speed, ts):
    return json.dumps({"k": "t", "sid": "cars", "tid": tid,
                       "v": {"x": x, "y": y, "speed": speed}, "ts": ts})


def _udf_scenario():
    """Two registered-UDF queries over a policy-churning stream.

    Tuple values sweep across both predicate boundaries (the
    ``in_region`` disc around (500, 500) and the ``fast_mover`` speed
    threshold) and the sp stream revokes then restores access
    mid-stream, so enforcement and selection both flip repeatedly.
    """
    elements = [_sp({"police"}, 0.0)]
    for i in range(48):
        x = 150.0 + 17.0 * i
        y = 420.0 + (i * 53) % 260
        speed = 30.0 + (i * 7) % 80
        elements.append(_tuple(i, x, y, speed, 1.0 + i))
        if i % 16 == 15:
            roles = {"dispatch"} if (i // 16) % 2 == 0 else {"police"}
            elements.append(_sp(roles, 1.5 + i))
    streams = {"cars": {"attributes": ["x", "y", "speed"],
                        "elements": elements}}

    def query(udf_name):
        return {
            "roles": ["police"],
            "plan": {
                "op": "shield",
                "predicates": [["police"]],
                "input": {
                    "op": "select",
                    "input": {"op": "scan", "stream": "cars"},
                    "condition": {"udf": udf_name},
                },
            },
        }

    return Scenario(
        seed=0, index=0, shape="udf_select", knobs={},
        streams=streams,
        queries={"region": query("in_region"),
                 "fast": query("fast_mover")},
        note="registered-UDF select differential")


def test_udf_select_matches_oracle_everywhere():
    """Zero mismatches across the full engine-configuration matrix."""
    scenario = _udf_scenario()
    report = verify_scenario(scenario)
    assert report.configs_run >= len(configs_for(scenario)) >= 6
    assert not report.mismatches, [str(m) for m in report.mismatches]


def test_udf_scenario_exercises_both_predicate_sides():
    scenario = _udf_scenario()
    decoded = scenario.decoded()["cars"]
    tuples = [e for e in decoded if getattr(e, "values", None) is not None]
    region = udf_entry("in_region").fn
    fast = udf_entry("fast_mover").fn
    for fn in (region, fast):
        hits = sum(1 for t in tuples if fn(t))
        assert 0 < hits < len(tuples), fn
