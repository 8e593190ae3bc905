"""Exception types shared across the package."""


class UltraflowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(UltraflowError, ValueError):
    """A parameter lies outside the range where a formula is defined."""


class PositivityError(UltraflowError):
    """An operation that divides by a grid function received values at or
    below the positivity floor."""


class ResolutionError(UltraflowError):
    """The top spectral modes of an input carry too much energy for the
    requested operation to be trustworthy at the current order."""


class ConvergenceError(UltraflowError):
    """An iterative solver stopped before reaching its tolerance."""


class FlowError(UltraflowError):
    """Time integration failed; carries the time at which it happened."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.t is None else f"{message} (t={self.t:.6g})"


class ConservationError(FlowError):
    """The conserved quantity drifted beyond tolerance during a flow."""


class PositivityLossError(FlowError):
    """A flow step could not keep the state positive above dt_min."""
