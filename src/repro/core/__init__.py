"""The paper's primary contribution: the security-punctuation model.

Submodules
----------

``patterns``
    The ``eval(N, e)`` pattern language used inside sp DDP/SRP fields.
``punctuation``
    The sp structure ``<DDP | SRP | Sign | Immutable | ts>`` and
    sp-batches.
``policy``
    Policy semantics: ``match``/``union``/``intersect``/``override``,
    denial-by-default, and the resolved per-tuple :class:`TuplePolicy`.
``bitmap``
    Role universes plus plain-set and bitmap role-set encodings.
``analyzer``
    The server-edge SP Analyzer (combination + server-side refinement).
"""

from repro.core.analyzer import SPAnalyzer, combine_batch
from repro.core.bitmap import RoleBitmap, RoleSet, RoleUniverse
from repro.core.patterns import (ANY, Pattern, literal, numeric_range, one_of,
                                 parse_pattern, regex)
from repro.core.policy import (EMPTY_POLICY, AccessPolicy, Policy,
                               PolicyIntersection, PolicyUnion, TuplePolicy,
                               apply_incremental_batch, deny_all_sp,
                               has_attribute_scope, override,
                               policy_from_sps, policy_is_uniform,
                               resolve_tuple_policy,
                               wildcard_policy_roles)
from repro.core.punctuation import (DataDescription, Granularity,
                                    SecurityPunctuation, SecurityRestriction,
                                    Sign, SPBatch)

__all__ = [
    "ANY",
    "AccessPolicy",
    "DataDescription",
    "EMPTY_POLICY",
    "Granularity",
    "Pattern",
    "Policy",
    "PolicyIntersection",
    "PolicyUnion",
    "RoleBitmap",
    "RoleSet",
    "RoleUniverse",
    "SPAnalyzer",
    "SPBatch",
    "SecurityPunctuation",
    "SecurityRestriction",
    "Sign",
    "TuplePolicy",
    "apply_incremental_batch",
    "combine_batch",
    "deny_all_sp",
    "has_attribute_scope",
    "literal",
    "numeric_range",
    "one_of",
    "override",
    "parse_pattern",
    "policy_from_sps",
    "policy_is_uniform",
    "regex",
    "resolve_tuple_policy",
    "wildcard_policy_roles",
]
