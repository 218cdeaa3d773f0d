"""Public execution-API types shared by the DSMS entry points.

:meth:`DSMS.run`, :meth:`DSMS.build_plan` and :meth:`DSMS.open_session`
take ``optimize`` as an :class:`OptimizeLevel` member.
"""

from __future__ import annotations

import enum

from repro.errors import QueryError

__all__ = ["OptimizeLevel"]


class OptimizeLevel(enum.Enum):
    """How much plan optimization an execution entry point applies."""

    #: Compile queries exactly as registered.
    NONE = "none"
    #: Optimize each query in isolation (Section VI.B rules + costs).
    PER_QUERY = "per_query"
    #: Section VI.C multi-query optimization: per-query plans chosen
    #: to minimize workload cost with shared subplans counted once.
    WORKLOAD = "workload"

    @classmethod
    def coerce(cls, value: "OptimizeLevel | None") -> "OptimizeLevel":
        """Validate an ``optimize=`` argument; ``None`` means ``NONE``."""
        if value is None:
            return cls.NONE
        if isinstance(value, cls):
            return value
        raise QueryError(
            f"optimize must be an OptimizeLevel, got {value!r}")
