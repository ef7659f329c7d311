"""Exception hierarchy shared by the whole package, and its integer contract.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.

Every integer argument of the package (urn sizes, draw indices, draw
counts, trial counts) passes through ``require_int``: it must be an
``int`` that is not a ``bool`` (so floats, strings and numpy integers are
refused), and at least its stated minimum when there is one.  A violation
raises ``ParameterError``, which the CLI turns into exit 2.

A message shows a caller's integer or text through ``brief``, so that a
refused argument of thousands of digits makes one short line.
"""

from __future__ import annotations

import math

__all__ = ["ParameterError", "ResourceGuardError", "UrnError", "brief", "require_int"]


class UrnError(Exception):
    """Base class for all errors raised by urndist."""


class ParameterError(UrnError, ValueError):
    """Inputs violate a contract: wrong type, wrong range, wrong domain."""


class ResourceGuardError(UrnError, RuntimeError):
    """A computation was refused because it would exceed a size guard."""


def brief(value: int | str) -> str:
    """``value`` as a message shows it: an int in decimal, a text as its
    repr, in full up to 21 digits or 40 characters.  A longer int is its
    first 10 digits and its digit count, "-1234567890...(4300 digits)", made
    without converting the whole int (past the int-to-str limit that would
    raise); a longer text is its first 20 characters' repr and its length."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:20]!r}...({len(value)} chars)"
    size = abs(value)
    if size < 10**21:
        return str(value)
    # at most the digit count: floor(log10(2^(bits-1))) + 1, give or take
    # the rounding of the float product
    digits = int((size.bit_length() - 1) * math.log10(2))
    while 10**digits <= size:
        digits += 1
    return f"{'-' * (value < 0)}{size // 10 ** (digits - 10)}...({digits} digits)"


def require_int(name: str, value: object, minimum: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {brief(value)}")
    return value
