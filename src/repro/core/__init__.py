"""The paper's primary contribution: the security-punctuation model.

Submodules
----------

``patterns``
    The ``eval(N, e)`` pattern language used inside sp DDP/SRP fields.
``punctuation``
    The sp structure ``<DDP | SRP | Sign | Immutable | ts>`` and
    sp-batches.
``policy``
    The leaf interpretation of one sp-batch (:class:`Policy`,
    denial-by-default) and the resolved per-tuple :class:`TuplePolicy`
    (a frozenset of role names).  The combination rules
    (``union``/``intersect``/``override``) live in the SP Analyzer and
    :class:`~repro.operators.base.PolicyTracker`.
``bitmap``
    Role universes plus the bitmap role-set encoding.
``analyzer``
    The server-edge SP Analyzer (combination + server-side refinement).
"""

from repro.core.analyzer import SPAnalyzer, combine_batch
from repro.core.bitmap import RoleBitmap, RoleUniverse
from repro.core.patterns import (ANY, Pattern, literal, numeric_range, one_of,
                                 parse_pattern, regex)
from repro.core.policy import (EMPTY_POLICY, Policy, TuplePolicy,
                               wildcard_policy_roles)
from repro.core.punctuation import (DataDescription, Granularity,
                                    SecurityPunctuation, SecurityRestriction,
                                    Sign, SPBatch, apply_incremental_batch,
                                    deny_all_sp)

__all__ = [
    "ANY",
    "DataDescription",
    "EMPTY_POLICY",
    "Granularity",
    "Pattern",
    "Policy",
    "RoleBitmap",
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
    "literal",
    "numeric_range",
    "one_of",
    "parse_pattern",
    "regex",
    "wildcard_policy_roles",
]
