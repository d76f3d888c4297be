"""Exception hierarchy shared across the package.

Every exception raised on purpose by this package derives from
:class:`QBarrierError`, so callers can catch one type at an API boundary.
"""

from __future__ import annotations


class QBarrierError(Exception):
    """Base class for all package errors."""


class DomainError(QBarrierError, ValueError):
    """An input lies outside the physical or numerical domain of a routine."""


class DegenerateKernelError(DomainError):
    """Memory-kernel parameters degenerate (zero or negative rate scales)."""


class DegenerateSuppressionError(DomainError):
    """Suppression factor vanished entirely; normalized quantities undefined."""


class WindowError(DomainError):
    """Spectral window or grid parameters are inconsistent."""


class NonConvergenceError(QBarrierError):
    """An iterative or adaptive scheme failed to reach the requested tolerance.

    The best available estimate and its error bound ride along so a caller
    can still inspect partial results.
    """

    def __init__(self, message: str, *, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
