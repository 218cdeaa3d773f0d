"""Sp-level fault injection with oracle-defined expectations.

Streams in the wild lose, duplicate and reorder elements.  The paper's
model gives each fault a precise expected outcome, and this module
checks the engine against it:

* **Benign faults** — reordering sps *within* one absolute sp-batch
  and duplicating an sp inside its batch.  An sp-batch is one policy
  (union semantics: order-insensitive, idempotent; an incremental
  batch's edits are applied in order, so only duplication is benign
  there), so the engine run over the faulted stream must match the
  oracle over the *original* stream exactly.
* **Consistency faults** — dropping an sp, dropping a whole batch,
  truncating a batch.  These change the policy, so the expected
  behaviour is whatever the oracle computes over the *faulted* stream;
  the engine must track it bit-for-bit (no desync between the engine's
  segment bookkeeping and the denotational semantics).
* **Never-widen** — dropping one positive sp out of a multi-sp batch
  can only shrink that batch's grants.  For monotone plans (no
  stateful δ/G) the faulted oracle's deliveries must therefore be a
  subset of the original's, per (tuple, role) pair.  A violation means
  sp loss *widened* access — the one failure mode an enforcement layer
  must never exhibit.
* **Malformed sps** — corrupted sp text must raise
  :class:`~repro.errors.PunctuationError` at the parse boundary, never
  produce a permissive policy.

The known-bad mutation :func:`disable_denial_by_default` (prepend a
wildcard grant-everything sp to every stream) exists to prove the
harness has teeth: the differ must flag it and shrink it to a tiny
reproducer.  ``tests/verify/test_differential.py`` asserts exactly that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.punctuation import SecurityPunctuation
from repro.errors import PunctuationError
from repro.stream.element import StreamElement
from repro.verify.differ import Mismatch, verify_scenario
from repro.verify.generator import ROLE_POOL, Scenario
from repro.verify.oracle import plan_ops, run_oracle

__all__ = [
    "FaultOutcome",
    "disable_denial_by_default",
    "malformed_sp_texts",
    "run_fault_campaign",
]

#: Operators through which shrinking a tuple's role set can only
#: shrink the delivered set (no suppression/aggregation state).
MONOTONE_OPS = {"scan", "shield", "select", "project", "join"}


# -- element-list mutations ---------------------------------------------------

def _sp_batches(elements: "list[StreamElement]") -> "list[tuple[int, int]]":
    """(start, stop) spans of maximal runs of adjacent same-ts sps."""
    spans = []
    start = None
    for index, element in enumerate(elements):
        is_sp = isinstance(element, SecurityPunctuation)
        if is_sp and start is not None \
                and element.ts == elements[start].ts:
            continue
        if start is not None:
            spans.append((start, index))
            start = None
        if is_sp:
            start = index
    if start is not None:
        spans.append((start, len(elements)))
    return spans


def reorder_within_batches(rng: random.Random):
    """Shuffle each absolute sp-batch in place (benign: a batch is a
    set).  An incremental batch edits the policy in order, so it keeps
    its order."""
    def mutate(sid, elements):
        out = list(elements)
        for start, stop in _sp_batches(out):
            chunk = out[start:stop]
            if chunk[0].incremental:
                continue
            rng.shuffle(chunk)
            out[start:stop] = chunk
        return out
    return mutate


def duplicate_one_sp(rng: random.Random):
    """Duplicate one sp next to itself (benign: union is idempotent)."""
    def mutate(sid, elements):
        indexes = [i for i, e in enumerate(elements)
                   if isinstance(e, SecurityPunctuation)]
        if not indexes:
            return list(elements)
        index = rng.choice(indexes)
        return (list(elements[:index + 1]) + [elements[index]]
                + list(elements[index + 1:]))
    return mutate


def drop_one_sp(rng: random.Random):
    """Remove one random sp (consistency fault)."""
    def mutate(sid, elements):
        indexes = [i for i, e in enumerate(elements)
                   if isinstance(e, SecurityPunctuation)]
        if not indexes:
            return list(elements)
        index = rng.choice(indexes)
        return list(elements[:index]) + list(elements[index + 1:])
    return mutate


def drop_one_batch(rng: random.Random):
    """Remove one whole sp-batch (consistency fault)."""
    def mutate(sid, elements):
        spans = _sp_batches(list(elements))
        if not spans:
            return list(elements)
        start, stop = rng.choice(spans)
        return list(elements[:start]) + list(elements[stop:])
    return mutate


def truncate_one_batch(rng: random.Random):
    """Keep only the first sp of one multi-sp batch (consistency fault)."""
    def mutate(sid, elements):
        spans = [(a, b) for a, b in _sp_batches(list(elements)) if b - a > 1]
        if not spans:
            return list(elements)
        start, stop = rng.choice(spans)
        return list(elements[:start + 1]) + list(elements[stop:])
    return mutate


def drop_positive_from_batch(scenario: Scenario, rng: random.Random):
    """Pick a positive sp inside a multi-sp batch and drop it.

    Returns ``(mutator, found)`` — ``found`` is ``False`` when no
    stream has such a batch (the never-widen check is then skipped).
    """
    candidates: "list[tuple[str, int]]" = []
    for sid, elements in scenario.decoded().items():
        for start, stop in _sp_batches(elements):
            if stop - start < 2:
                continue
            for index in range(start, stop):
                if elements[index].is_positive:
                    candidates.append((sid, index))
    if not candidates:
        return None, False
    target_sid, target_index = rng.choice(candidates)

    def mutate(sid, elements):
        if sid != target_sid:
            return list(elements)
        return (list(elements[:target_index])
                + list(elements[target_index + 1:]))
    return mutate, True


def disable_denial_by_default():
    """The known-bad engine mutation: grant everyone everything first.

    Prepending a wildcard grant of the full role pool at ts=-1 to every
    stream simulates an engine that forgets denial-by-default: tuples
    arriving before any real sp become visible.  The differ (engine
    over mutated streams vs oracle over the originals) must flag it.
    """
    def mutate(sid, elements):
        grant = SecurityPunctuation.grant(ROLE_POOL, -1.0, provider=sid)
        return [grant] + list(elements)
    return mutate


# -- malformed sp text --------------------------------------------------------

def malformed_sp_texts(sp: SecurityPunctuation) -> "list[str]":
    """Corruptions of one sp's text form; all must fail to parse."""
    text = sp.to_text()
    fields = text[1:-1].split("|")
    fields[4] = " nan "  # NaN passes every ordering test
    return [
        text[1:],                       # lost opening bracket
        text[:-1],                      # truncated mid-element
        text.replace("|", "!", 1),      # separator corrupted
        text.replace(f"| {sp.sign.value} |", "| ? |"),  # bad sign
        "<" + "|".join(["*"] * 9) + ">",  # wrong field count
        "",
        "<" + "|".join(fields) + ">",   # NaN timestamp
    ]


# -- the campaign -------------------------------------------------------------

@dataclass
class FaultOutcome:
    """Result of one fault-injection campaign over one scenario."""

    scenario: str
    faults_run: int = 0
    mismatches: "list[Mismatch]" = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.mismatches is None:
            self.mismatches = []

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _strip_roles(sig: tuple) -> "tuple[tuple, str]":
    sid, tid, ts, values, roles = sig
    return (sid, tid, ts, values), roles


def run_fault_campaign(scenario: Scenario,
                       rng: random.Random) -> FaultOutcome:
    """Inject each fault class into one scenario and check expectations."""
    outcome = FaultOutcome(scenario.describe())
    original_oracle = run_oracle(scenario.decoded(), scenario.queries,
                                 scenario.server_policies())

    # Benign faults: engine(faulted) must equal oracle(original).
    for label, mutator in (
            ("fault:reorder-batch", reorder_within_batches(rng)),
            ("fault:duplicate-sp", duplicate_one_sp(rng))):
        outcome.faults_run += 1
        faulted = scenario.mutate_elements(mutator)
        report = verify_scenario(faulted, include_baselines=False,
                                 oracle=original_oracle)
        for mismatch in report.mismatches:
            mismatch.config = f"{label}/{mismatch.config}"
            outcome.mismatches.append(mismatch)

    # Consistency faults: engine(faulted) must equal oracle(faulted).
    for label, mutator in (
            ("fault:drop-sp", drop_one_sp(rng)),
            ("fault:drop-batch", drop_one_batch(rng)),
            ("fault:truncate-batch", truncate_one_batch(rng))):
        outcome.faults_run += 1
        faulted = scenario.mutate_elements(mutator)
        report = verify_scenario(faulted, include_baselines=False)
        for mismatch in report.mismatches:
            mismatch.config = f"{label}/{mismatch.config}"
            outcome.mismatches.append(mismatch)

    # Never-widen: losing a grant out of a batch must not widen access.
    monotone = all(plan_ops(q["plan"]) <= MONOTONE_OPS
                   for q in scenario.queries.values())
    if monotone:
        mutator, found = drop_positive_from_batch(scenario, rng)
        if found:
            outcome.faults_run += 1
            faulted = scenario.mutate_elements(mutator)
            faulted_oracle = run_oracle(faulted.decoded(), faulted.queries,
                                        faulted.server_policies())
            for name in scenario.queries:
                allowed = set()
                for sig in original_oracle.delivered[name]:
                    key, roles = _strip_roles(sig)
                    for role in roles:
                        allowed.add((key, role))
                for sig in faulted_oracle.delivered[name]:
                    key, roles = _strip_roles(sig)
                    for role in roles:
                        if (key, role) not in allowed:
                            outcome.mismatches.append(Mismatch(
                                scenario.describe(), "fault:drop-grant",
                                name, "widened",
                                f"role {role!r} gained access to "
                                f"{key[0]}:{key[1]}@{key[2]} after sp loss"))

    # Malformed sp text must die at the parse boundary.
    for elements in scenario.decoded().values():
        for element in elements:
            if isinstance(element, SecurityPunctuation):
                outcome.faults_run += 1
                for bad in malformed_sp_texts(element):
                    try:
                        SecurityPunctuation.parse(bad)
                    except PunctuationError:
                        continue
                    outcome.mismatches.append(Mismatch(
                        scenario.describe(), "fault:malformed-sp", "*",
                        "parsed", f"corrupt sp text parsed: {bad!r}"))
                break  # one sp per stream is enough
    return outcome
