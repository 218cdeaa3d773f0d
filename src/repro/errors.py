"""Exception hierarchy for the security-punctuation framework.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch framework errors with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) surface.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class PatternError(ReproError):
    """An object/role pattern is syntactically invalid."""


class PunctuationError(ReproError):
    """A security punctuation is malformed or used inconsistently."""


class PolicyError(ReproError):
    """An access-control policy operation is invalid.

    Raised, for example, when combining policies with incompatible
    access-control model types, or when a server policy attempts to
    modify an immutable data-provider policy.
    """


class StreamError(ReproError):
    """A stream-level invariant is violated (schema mismatch, ordering)."""


class OutOfOrderError(StreamError):
    """A stream element arrived with a timestamp older than allowed."""


class SchemaError(StreamError):
    """A tuple does not conform to its stream schema."""


class AccessControlError(ReproError):
    """Errors in the subject/role/right substrate (RBAC, DAC, MAC)."""


class PlanError(ReproError):
    """A query plan is structurally invalid."""


class CQLSyntaxError(ReproError):
    """A CQL statement could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        if self.line:
            return f"{base} (line {self.line}, column {self.column})"
        return base


class QueryError(ReproError):
    """A continuous query is invalid (unknown stream, no roles, ...)."""
