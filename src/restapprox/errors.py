"""Exception types shared across the library."""

from __future__ import annotations

import math
from typing import Callable

__all__ = [
    "ScaleRangeError",
    "ContractViolationError",
    "CapabilityError",
    "DivergenceError",
    "QuadratureError",
    "ConfigError",
]


class ScaleRangeError(OverflowError):
    """A cube scale puts 2^(-j*d) (or a power of it) outside safe float range."""


class ContractViolationError(ValueError):
    """An input violates a documented precondition (e.g. negative coefficient)."""


class CapabilityError(ValueError):
    """The requested operation is not available for these parameters
    (e.g. knapsack mode with a non-additive error norm, or a weight
    without a certified contracting dilation)."""


class DivergenceError(ArithmeticError):
    """A quasi-norm integral diverges for the given weight parameters."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the achieved relative tolerance in ``achieved``.
    """

    def __init__(self, message: str, achieved: float) -> None:
        super().__init__(f"{message} (achieved relative tolerance {achieved:.3e})")
        self.achieved = achieved


class ConfigError(ValueError):
    """A config or data file failed validation; message carries the location."""


def finite(compute: Callable[[], float], message: str) -> float:
    """``compute()``, raising ``ScaleRangeError(message)`` on an overflow or
    a result past the float range; pow2's ScaleRangeError passes unchanged."""
    try:
        value = compute()
    except ScaleRangeError:
        raise
    except OverflowError:
        raise ScaleRangeError(message) from None
    if not math.isfinite(value):
        raise ScaleRangeError(message)
    return value
