"""Exception hierarchy shared across the package."""


class SqlKnowError(Exception):
    """Base class for all package errors."""


class InvariantViolation(SqlKnowError):
    """A domain object violates one of its declared invariants."""


class SqlParseError(SqlKnowError):
    """SQL text could not be tokenized or structured.

    Carries the character offset where the problem was detected.
    """

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class UnsupportedSqlError(SqlKnowError):
    """The statement uses a construct outside the supported dialect subset."""


class UnresolvedIdentifierError(SqlKnowError):
    """One or more identifiers could not be resolved against the schema."""

    def __init__(self, names):
        self.names = sorted(set(names))
        super().__init__("unresolved identifiers: " + ", ".join(self.names))


class InsufficientDataError(SqlKnowError, ValueError):
    """Too few usable inputs to build an artifact, such as a graph from one pair."""


class IllegalTransition(SqlKnowError):
    """A validation event is not legal in the item's current state."""


class GatewayError(SqlKnowError):
    """Terminal gateway failure (after any configured retries)."""


class BudgetExceededError(SqlKnowError):
    """A token budget cannot be met even after full truncation."""


class ConfigError(SqlKnowError):
    """Invalid or inconsistent configuration."""
