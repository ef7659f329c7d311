"""Exception hierarchy shared by the whole package, and its integer contract.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.

Every integer argument of the package (urn sizes, draw indices, draw
counts, trial counts) passes through ``require_int``: it must be an
``int`` that is not a ``bool`` (so floats, strings and numpy integers are
refused), and at least its stated minimum when there is one.  A violation
raises ``ParameterError``, which the CLI turns into exit 2.
"""

from __future__ import annotations

__all__ = ["ParameterError", "ResourceGuardError", "UrnError", "require_int"]


class UrnError(Exception):
    """Base class for all errors raised by urndist."""


class ParameterError(UrnError, ValueError):
    """Inputs violate a contract: wrong type, wrong range, wrong domain."""


class ResourceGuardError(UrnError, RuntimeError):
    """A computation was refused because it would exceed a size guard."""


def require_int(name: str, value: object, minimum: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value
