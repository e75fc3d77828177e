"""Shared exceptions and resource limits."""

DENSE_CAP_DEFAULT = 20_000


class ResourceLimitError(RuntimeError):
    """Raised when a dense materialization would exceed the configured cap."""


class CoverageError(RuntimeError):
    """Raised when a ray family is too sparse to reach every Cartesian node."""


class NumericalError(RuntimeError):
    """Raised when a numerical kernel fails (the CLI exits with code 2)."""
