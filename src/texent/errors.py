"""Exception hierarchy shared across the package.

Domain errors signal invalid values or parameters and map to CLI exit
status 1; PGM parse errors map to exit status 2 together with plain I/O
failures.
"""

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
