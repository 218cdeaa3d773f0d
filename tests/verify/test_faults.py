"""Fault injection: benign faults, consistency faults, malformed sps."""

import random
from dataclasses import replace

import pytest

from repro.core.punctuation import SecurityPunctuation
from repro.errors import PunctuationError
from repro.stream.tuples import DataTuple
from repro.verify.differ import configs_for, run_engine
from repro.verify.faults import (_sp_batches, disable_denial_by_default,
                                 drop_one_batch, drop_one_sp,
                                 duplicate_one_sp, malformed_sp_texts,
                                 reorder_within_batches, run_fault_campaign,
                                 truncate_one_batch)
from repro.verify.generator import generate_scenario
from repro.verify.oracle import run_oracle


class TestBatchSpans:
    def test_spans_split_on_tuples_and_ts(self):
        elements = [
            SecurityPunctuation.grant(["R1"], 0.0, provider="s"),
            SecurityPunctuation.grant(["R2"], 0.0, provider="s"),
            DataTuple("s", 0, {"a": 1}, 1.0),
            SecurityPunctuation.grant(["R1"], 2.0, provider="s"),
            SecurityPunctuation.grant(["R2"], 3.0, provider="s"),
        ]
        assert _sp_batches(elements) == [(0, 2), (3, 4), (4, 5)]

    def test_no_sps_no_spans(self):
        assert _sp_batches([DataTuple("s", 0, {"a": 1}, 1.0)]) == []


@pytest.mark.parametrize("index", range(6))
def test_fault_campaign_is_clean(index):
    scenario = generate_scenario(23, index)
    outcome = run_fault_campaign(scenario, random.Random(f"t:{index}"))
    assert outcome.ok, "\n".join(str(m) for m in outcome.mismatches)
    assert outcome.faults_run >= 5


@pytest.mark.parametrize("make_fault", [
    reorder_within_batches, duplicate_one_sp, drop_one_sp, drop_one_batch,
    truncate_one_batch])
def test_faulted_streams_stay_in_push_order(make_fault):
    """The campaign's session configs push faulted streams as they are.
    Every fault leaves each stream in timestamp order (sps move only
    inside an sp-batch, which shares one timestamp), so ``push()``'s
    order check is never tripped — ``run_engine`` would raise it."""
    for index in range(6):
        faulted = generate_scenario(17, index).mutate_elements(
            make_fault(random.Random(f"order:{index}")))
        for elements in faulted.decoded().values():
            stamps = [element.ts for element in elements]
            assert stamps == sorted(stamps)
        sessions = [c for c in configs_for(faulted) if c.session]
        assert sessions
        for config in sessions:
            run_engine(faulted, config)


class TestMalformedSp:
    def test_all_corruptions_fail_to_parse(self):
        sp = SecurityPunctuation.grant(["R1", "R2"], 3.5, provider="s")
        for bad in malformed_sp_texts(sp):
            with pytest.raises(PunctuationError):
                SecurityPunctuation.parse(bad)

    def test_original_still_parses(self):
        sp = SecurityPunctuation.grant(["R1"], 1.0, provider="s")
        again = SecurityPunctuation.parse(sp.to_text())
        assert again.roles() == {"R1"}


class TestKnownBadMutator:
    def test_mutation_widens_oracle_outcome(self):
        # With the wildcard grant prepended, the oracle itself delivers
        # at least as much — demonstrating the mutation models a real
        # denial-by-default failure rather than a no-op.
        # Without its server policy: the generated denial of both query
        # roles would subtract what the prepended grant adds.
        scenario = replace(generate_scenario(99, 1), server=[])
        mutated = scenario.mutate_elements(disable_denial_by_default())
        base = run_oracle(scenario.decoded(), scenario.queries,
                          scenario.server_policies())
        wide = run_oracle(mutated.decoded(), mutated.queries,
                          mutated.server_policies())
        for name in scenario.queries:
            assert len(wide.delivered[name]) >= len(base.delivered[name])
        assert any(len(wide.delivered[n]) > len(base.delivered[n])
                   for n in scenario.queries)
