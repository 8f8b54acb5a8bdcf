"""Exception types shared across the package, and the checks that raise them."""

import sys


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
    if value > sys.float_info.max:  # every finite deviation or gap is below it
        raise DomainError(f"{name} must be finite, got {value!r}")


def file_error(doing: str, path: str, exc: OSError | UnicodeDecodeError) -> ConfigError:
    """The error for a file that cannot be opened or is not UTF-8: `cannot <doing> 'path': why`."""
    why = f"not UTF-8 ({exc.reason})" if isinstance(exc, UnicodeDecodeError) else exc.strerror
    return ConfigError(f"cannot {doing} {path!r}: {why}")


def check_at_least(name: str, value: int, low: int, error: type = DomainError) -> None:
    # integer types, numpy's included, have __index__ and floats never; a bool is refused
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise error(f"{name} must be >= {low}, got {value!r}")


# Each domain a number can be asked to lie in: its words, and its test on a finite value.
_DOMAINS = {
    "a positive number": lambda v: v > 0,
    "a positive integer": lambda v: v > 0 and v == int(v),
    "a nonnegative number": lambda v: v >= 0,
    "a finite number": lambda v: True,
    "a number in [0, 1]": lambda v: 0 <= v <= 1,
    "a number in (0, 1)": lambda v: 0 < v < 1,
}


def check_number(where: str, v, domain: str = "a positive number", error: type = ConfigError):
    """v if it is a finite number in ``domain``, as an int for an integer domain.

    Anything else, a bool, NaN or infinity included, raises ``error`` naming ``where``.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not (
        abs(v) <= sys.float_info.max and _DOMAINS[domain](v)  # abs: also refuses NaN
    ):
        raise error(f"{where}: must be {domain}, got {v!r}")
    return int(v) if domain.endswith("integer") else v
