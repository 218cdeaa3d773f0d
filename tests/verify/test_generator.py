"""Scenario generator invariants: determinism, round-trip, legality."""

from repro.core.punctuation import SecurityPunctuation
from repro.stream.tuples import DataTuple
from repro.verify.generator import ROLE_POOL, Scenario, generate_scenario

SAMPLE = [(seed, index) for seed in (0, 7) for index in range(12)]


def _plans(spec):
    yield spec
    for key in ("input", "left", "right"):
        child = spec.get(key)
        if child is not None:
            yield from _plans(child)


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        for seed, index in SAMPLE:
            first = generate_scenario(seed, index)
            second = generate_scenario(seed, index)
            assert first.to_json() == second.to_json()

    def test_different_indexes_differ(self):
        jsons = {generate_scenario(7, i).to_json() for i in range(10)}
        assert len(jsons) == 10


class TestRoundTrip:
    def test_json_round_trip(self):
        for seed, index in SAMPLE:
            scenario = generate_scenario(seed, index)
            again = Scenario.from_json(scenario.to_json())
            assert again.to_dict() == scenario.to_dict()

    def test_decoded_returns_fresh_elements(self):
        scenario = generate_scenario(0, 0)
        first = scenario.decoded()
        second = scenario.decoded()
        for sid in first:
            assert first[sid] is not second[sid]
            assert len(first[sid]) == len(second[sid])


class TestLegality:
    def test_streams_are_ts_ordered(self):
        for seed, index in SAMPLE:
            for elements in generate_scenario(seed, index).decoded().values():
                ts = [e.ts for e in elements]
                assert ts == sorted(ts)

    def test_elements_decode_to_known_kinds(self):
        for seed, index in SAMPLE:
            for elements in generate_scenario(seed, index).decoded().values():
                assert all(isinstance(e, (SecurityPunctuation, DataTuple))
                           for e in elements)

    def test_roles_drawn_from_pool(self):
        for seed, index in SAMPLE:
            scenario = generate_scenario(seed, index)
            for query in scenario.queries.values():
                assert set(query["roles"]) <= set(ROLE_POOL)

    def test_shield_conjuncts_contain_query_roles(self):
        # Table II Rule 3's two-sided push is delivery-equivalent only
        # when every conjunct contains the query's roles; the generator
        # must respect that to keep Table II rewrites of its plans
        # delivery-equivalent (tests/algebra/table2.py).
        for seed, index in SAMPLE:
            scenario = generate_scenario(seed, index)
            for query in scenario.queries.values():
                qroles = set(query["roles"])
                for spec in _plans(query["plan"]):
                    if spec["op"] != "shield":
                        continue
                    for conjunct in spec["predicates"]:
                        assert qroles <= set(conjunct)

    def test_scans_reference_registered_streams(self):
        for seed, index in SAMPLE:
            scenario = generate_scenario(seed, index)
            for query in scenario.queries.values():
                for spec in _plans(query["plan"]):
                    if spec["op"] == "scan":
                        assert spec["stream"] in scenario.streams

    def test_baseline_shape_is_baseline_compatible(self):
        found = False
        for index in range(40):
            scenario = generate_scenario(5, index)
            if scenario.shape == "baseline":
                found = True
                assert scenario.baseline_compatible()
        assert found, "no baseline shape in 40 draws"


class TestServerPolicies:
    def test_zero_or_one_wildcard_policy_over_absolute_batches(self):
        drawn = {"+": 0, "-": 0}
        for seed in range(4):
            for index in range(25):
                scenario = generate_scenario(seed, index)
                assert len(scenario.server) <= 1
                for sp in scenario.server_policies():
                    drawn[sp.sign.value] += 1
                    assert sp.provider is None
                    assert sp.ddp.granularity().value == "stream"
                    assert sp.ddp.stream.is_wildcard()
                    assert not scenario.knobs.get("p_incremental")
                    assert not scenario.baseline_compatible()
                    assert Scenario.from_json(
                        scenario.to_json()).server == scenario.server
        assert drawn["+"] and drawn["-"], drawn
