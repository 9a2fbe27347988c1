"""Exception types raised by the hybridamm package."""

from __future__ import annotations

__all__ = ["HybridAmmError", "DomainError", "InsolvencyError", "InfeasibleTradeError",
           "UnsupportedConfigurationError", "ConvergenceError", "ConfigError"]


class HybridAmmError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HybridAmmError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class InsolvencyError(DomainError):
    """A state or trade would breach the solvency bound of the curve.

    Attributes:
        bound: the x-coordinate where the Y reserve reaches zero, when known.
        max_amount_in: strict upper bound on a feasible input amount, when known.
    """

    def __init__(self, message: str, *, bound: float | None = None,
                 max_amount_in: float | None = None):
        super().__init__(message)
        self.bound = bound
        self.max_amount_in = max_amount_in


class InfeasibleTradeError(DomainError):
    """A requested output exceeds what the pool can ever pay out.

    Attributes:
        max_amount_out: strict upper bound on a feasible output amount.
    """

    def __init__(self, message: str, *, max_amount_out: float | None = None):
        super().__init__(message)
        self.max_amount_out = max_amount_out


class UnsupportedConfigurationError(HybridAmmError):
    """The operation is undefined for this configuration (e.g. z = 1 rebalancing)."""


class ConvergenceError(HybridAmmError, RuntimeError):
    """The internal root-finder failed to converge; indicates a bug or invalid state."""


class ConfigError(HybridAmmError, ValueError):
    """A scenario config or price file failed validation; message carries location."""
