"""Exception and warning hierarchy shared by all polekit modules.

Two branches hang off :class:`WorkbenchError`:

* :class:`DomainError` (also a ``ValueError``) — the request itself is
  outside the validated domain of an operation (too-deep poles, branch
  cuts, non-finite inputs, mismatched grids, ...).
* :class:`ConvergenceError` (also a ``RuntimeError``) — the request is
  legitimate but a numerical procedure could not meet its tolerance.

Warnings are ordinary ``UserWarning`` subclasses so they can be promoted
to errors with the standard ``warnings`` machinery when callers want
strictness.
"""

from __future__ import annotations

__all__ = [
    "WorkbenchError",
    "DomainError",
    "PoleDepthExceeded",
    "EvalAtZeroWithPoles",
    "BranchCutCrossing",
    "DenominatorVanishes",
    "GridMismatch",
    "ConvergenceError",
    "QuadratureNotConverged",
    "AliasingWarning",
    "LandauPoleWarning",
    "BoundaryDecayWarning",
]


class WorkbenchError(Exception):
    """Base class for every error raised by polekit."""


class DomainError(WorkbenchError, ValueError):
    """A request lies outside the validated domain of an operation."""


class PoleDepthExceeded(DomainError):
    """A series product would create poles deeper than order 4."""


class EvalAtZeroWithPoles(DomainError):
    """A series with poles was evaluated at epsilon = 0."""


class BranchCutCrossing(DomainError):
    """A quadrature path would cross the two-particle branch cut."""


class DenominatorVanishes(DomainError):
    """A finite renormalization denominator is (numerically) zero."""


class GridMismatch(DomainError):
    """Two spectral objects live on different grids."""


class ConvergenceError(WorkbenchError, RuntimeError):
    """A numerical procedure failed to meet its tolerance."""


class QuadratureNotConverged(ConvergenceError):
    """Adaptive quadrature exhausted its budget above tolerance."""


class AliasingWarning(UserWarning):
    """An oscillatory phase is under-resolved on the current grid."""


class LandauPoleWarning(UserWarning):
    """A coupling trajectory hit the Landau-pole guard and was truncated."""


class BoundaryDecayWarning(UserWarning):
    """A spectral kernel does not decay to < 1e-6 of peak at the grid edge."""
