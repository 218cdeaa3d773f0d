"""Differential verification harness for the sp enforcement engine.

The modules here close the loop between the paper's denotational
semantics and the engine's optimized implementations:

* :mod:`repro.verify.oracle` — a naive reference interpreter (the
  ground truth);
* :mod:`repro.verify.generator` — seeded random scenarios: schemas,
  plans with shields at random legal positions, interleaved sp/tuple
  streams;
* :mod:`repro.verify.differ` — runs every engine configuration
  (session/``run()`` × NL/SPIndex × audited/traced × baselines)
  and diffs deliveries, denial counts and drop counters against the
  oracle;
* :mod:`repro.verify.shrink` — delta-debugs failing scenarios into
  minimal JSON reproducers (committed under ``tests/verify/cases/``);
* :mod:`repro.verify.faults` — sp drop/duplicate/reorder/truncation
  and malformed-text faults with oracle-defined expectations;
* :mod:`repro.verify.campaign` — the ``repro verify`` entry point.

See ``docs/VERIFICATION.md`` for the full methodology.
"""

from repro.verify.campaign import (CampaignResult, replay_cases,
                                   run_campaign, shrink_failing)
from repro.verify.differ import (EngineConfig, Mismatch, ScenarioReport,
                                 configs_for, run_engine, verify_scenario)
from repro.verify.faults import (FaultOutcome, disable_denial_by_default,
                                 run_fault_campaign)
from repro.verify.generator import Scenario, generate_scenario
from repro.verify.oracle import OracleOutcome, run_oracle
from repro.verify.shrink import (load_case, load_cases, save_case,
                                 shrink_scenario)

__all__ = [
    "CampaignResult",
    "EngineConfig",
    "FaultOutcome",
    "Mismatch",
    "OracleOutcome",
    "Scenario",
    "ScenarioReport",
    "configs_for",
    "disable_denial_by_default",
    "generate_scenario",
    "load_case",
    "load_cases",
    "replay_cases",
    "run_campaign",
    "run_engine",
    "run_fault_campaign",
    "run_oracle",
    "save_case",
    "shrink_failing",
    "shrink_scenario",
    "verify_scenario",
]
