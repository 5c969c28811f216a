"""Exception hierarchy shared across the package.

Domain errors signal invalid values or parameters and map to CLI exit
status 1; PGM parse errors map to exit status 2 together with plain I/O
failures.  Every integer argument of the package is checked here.
"""

import numbers

__all__ = [
    "TexentError",
    "DomainError",
    "DegenerateNormalizationError",
    "EmptyGlcmError",
    "DegenerateVarianceError",
    "PgmError",
]


class TexentError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TexentError, ValueError):
    """An argument or value lies outside the operation's domain."""


class DegenerateNormalizationError(DomainError):
    """Normalized entropy is undefined: the analytic bounds coincide."""


class EmptyGlcmError(DomainError):
    """A co-occurrence matrix has no in-bounds pixel pairs."""


class DegenerateVarianceError(DomainError):
    """Correlation is undefined: a marginal gray-level variance is zero."""


class PgmError(TexentError, ValueError):
    """Malformed or unsupported PGM data.

    ``offset`` is the byte position the problem was detected at, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)
        self.offset = offset


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    # ``value`` as an int: any integral value (a NumPy integer or a bool too)
    # in [lo, hi], else a DomainError naming ``name`` and its whole domain.
    # An exact int skips the slower ABC check.
    n = value if type(value) is int else int(value) if isinstance(value, numbers.Integral) else None
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        domain = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer{domain}, got {value!r}")
    return n
