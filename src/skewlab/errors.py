"""Exception types shared across the package."""


class SkewlabError(Exception):
    """Base class for all skewlab errors."""


class DomainError(SkewlabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(SkewlabError, ValueError):
    """A documented precondition failed; the message names the inequality."""


class InvariantError(SkewlabError, ValueError):
    """A structural invariant (map range, anchoring, concavity) is violated."""


class CoverageError(SkewlabError, LookupError):
    """A graph function cannot be evaluated at a required base point."""


class CapabilityError(SkewlabError):
    """The base system lacks a capability (e.g. predecessors) for the request."""


class ConfigError(SkewlabError, ValueError):
    """A configuration document is malformed; the message names the field."""


class RegistryError(ConfigError):
    """Unknown closed-form name or parameters outside the declared domain."""


def check_positive(name: str, value: float) -> None:
    if not value > 0.0:  # also refuses NaN: no deviation or gap is ever >= NaN
        raise DomainError(f"{name} must be > 0, got {value!r}")


def check_at_least(name: str, value: int, low: int) -> None:
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value!r}")
