"""Parameters of the stochastic price-operator elements.

Each step the matrix elements are rebuilt around the last trade price:

    s11 = s_trade + s_trade*sigma*dz + xi/2
    s22 = s_trade + s_trade*sigma*dz - xi/2
    s12 = kappa/2

with dz ~ N(0,1), xi ~ N(xi0, xi1) and kappa ~ N(kappa0, kappa1), all drawn
independently at every step. The common component moves the mid price like a
multiplicative random walk, xi splits the diagonal (spread without level
interaction) and kappa couples the levels, so the implied levels satisfy
s_mid = s_trade*(1 + sigma*dz) and delta = sqrt(xi^2 + kappa^2). With
xi = kappa = 0 the trade price reduces to the classical Wiener recursion
s -> s + s*sigma*dz. ``market_sim.simulate_path`` draws the elements and
forms the levels; this module holds their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ValidationError, is_finite_number

__all__ = ["ModelParams"]


@dataclass(frozen=True)
class ModelParams:
    """Model parameters shared by element generation and state propagation.

    sigma is the per-step volatility of the common (mid-price) component; the
    step duration dt is not folded into it, so the caller owns the time
    discretization. tau and s0 are the time and price constants whose
    product tau*s0 scales the rotation angle delta*dt/(2*tau*s0) of a step
    (and the global phase of ``wave_dynamics.propagate``, which the
    simulator leaves out); neither is pinned by the model, so they are free
    configuration inputs.
    """

    sigma: float
    xi0: float
    xi1: float
    kappa0: float
    kappa1: float
    tau: float
    s0: float
    dt: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not is_finite_number(value):
                raise ValidationError(f"parameter {field.name!r} must be a finite number")
            object.__setattr__(self, field.name, float(value))
        if self.sigma < 0:
            raise ValidationError("sigma must be >= 0")
        if self.xi1 < 0 or self.kappa1 < 0:
            raise ValidationError("xi1 and kappa1 must be >= 0")
        if self.tau <= 0 or self.s0 <= 0:
            raise ValidationError("tau and s0 must be > 0")
        if self.tau * self.s0 == 0.0:  # the rotation angle divides by it
            raise ValidationError("tau*s0 underflows to 0; it must be > 0")
        if self.dt <= 0:
            raise ValidationError("dt must be > 0")
