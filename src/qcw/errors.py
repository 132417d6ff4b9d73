"""Exception types, and the finite-number rules, shared across the package."""

import cmath
import math

import numpy as np


def is_finite_number(value) -> bool:
    """An int or float, not a bool, that a finite float can hold."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def finite_number(convert, value, what: str):
    """``convert(value)``, for ``convert`` float or complex, where that is
    finite and ``value`` is neither a bool nor text; :class:`ValidationError`
    naming ``what`` otherwise, also where the conversion fails or overflows."""
    if not isinstance(value, (bool, np.bool_, str, bytes, bytearray)):
        try:
            number = convert(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if cmath.isfinite(number):
                return number
    raise ValidationError(f"{what} must be a finite number")


class ValidationError(ValueError):
    """An input violates a documented precondition or configuration contract."""


class PricePositivityError(RuntimeError):
    """A simulated trade price dropped to zero or below.

    The price-level formulation is arithmetic, so large spreads or volatility
    can push a price negative. The simulator aborts rather than clamping
    (clamping would silently bias the recorded statistics).
    """

    def __init__(self, step: int, price: float, path: int | None = None):
        where = f"step {step}" if path is None else f"step {step} of path {path}"
        super().__init__(f"trade price {price:.6g} <= 0 at {where}")
        self.step = step
        self.price = price
        self.path = path
