"""Two-level amplitude state and its exact unitary propagation.

The security carries a complex amplitude pair (psi_ask, psi_bid) whose squared
moduli are the probabilities of the next trade executing at the ask or bid
level. Between trades the pair evolves under the 2x2 price operator; the
closed-form one-step propagator is exact while the operator elements are held
constant, so no generic ODE stepping is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError, is_finite_number

if TYPE_CHECKING:  # pragma: no cover
    from .stochastic_model import ModelParams

__all__ = [
    "StateVector",
    "probabilities",
    "imbalance",
    "randomize_phase",
    "propagate",
]

#: Tolerated norm drift for a state accepted as "normalized".
NORM_TOL = 1e-9
#: Drift beyond which propagate() renormalizes its output.
RENORM_TRIGGER = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Amplitude pair over the (ask, bid) basis.

    Squared moduli are execution probabilities, so a physical state has
    |psi_ask|^2 + |psi_bid|^2 = 1 (within :data:`NORM_TOL`).
    """

    psi_ask: complex
    psi_bid: complex

    def __post_init__(self):
        a = complex(self.psi_ask)
        b = complex(self.psi_bid)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValidationError("state amplitudes must be finite")
        object.__setattr__(self, "psi_ask", a)
        object.__setattr__(self, "psi_bid", b)

    def norm_sq(self) -> float:
        a, b = self.psi_ask, self.psi_bid
        return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag

    def require_normalized(self) -> None:
        drift = abs(self.norm_sq() - 1.0)
        if drift > NORM_TOL:
            raise ValidationError(f"state not normalized: |norm^2 - 1| = {drift:.3e}")

    def normalized(self) -> "StateVector":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValidationError("cannot normalize the zero state")
        return StateVector(self.psi_ask / n, self.psi_bid / n)

    @classmethod
    def balanced(cls) -> "StateVector":
        """Equal-probability state (fair-value market, imbalance 0)."""
        r = math.sqrt(0.5)
        return cls(r, r)

    @classmethod
    def from_amplitudes(cls, psi_ask: complex, psi_bid: complex) -> "StateVector":
        """Build a normalized state from an arbitrary nonzero amplitude pair."""
        return cls(psi_ask, psi_bid).normalized()

    @classmethod
    def from_imbalance(cls, i: float) -> "StateVector":
        """Real-amplitude state with execution imbalance ``i`` in [-1, 1]."""
        if not is_finite_number(i) or not -1.0 <= i <= 1.0:
            raise ValidationError(f"imbalance must lie in [-1, 1], got {i!r}")
        return cls(math.sqrt(0.5 * (1.0 + i)), math.sqrt(0.5 * (1.0 - i)))


def probabilities(state: StateVector) -> tuple[float, float]:
    """Execution probabilities (p_ask, p_bid) = (|psi_ask|^2, |psi_bid|^2)."""
    a, b = state.psi_ask, state.psi_bid
    return (
        a.real * a.real + a.imag * a.imag,
        b.real * b.real + b.imag * b.imag,
    )


def imbalance(state: StateVector) -> float:
    """Execution imbalance |psi_ask|^2 - |psi_bid|^2, clipped to [-1, 1].

    +1 means trades execute at the ask with certainty, -1 at the bid, 0 means
    both sides are equally likely (fair value).
    """
    p_ask, p_bid = probabilities(state)
    return min(1.0, max(-1.0, p_ask - p_bid))


def randomize_phase(state: StateVector, rng: np.random.Generator) -> StateVector:
    """Apply a uniform U(0, 2*pi) shift to the relative phase of the pair.

    Moduli (hence probabilities and imbalance) are untouched; only interference
    between the components is destroyed. Applied after each trade to model the
    large random phase kick a transaction imparts.
    """
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return StateVector(state.psi_ask * cmath.exp(1j * theta), state.psi_bid)


def propagate(
    state: StateVector,
    xi: float,
    kappa: complex,
    s_mid: float,
    params: "ModelParams",
    renormalize: bool = True,
) -> StateVector:
    """Advance the state by one step of duration ``params.dt``.

    The one-step propagator for constant operator elements is the unitary

        U = exp(-i*s_mid*dt/(tau*s0)) *
            [[cos(phi) - i*(xi/D)*sin(phi),   -i*(kappa/D)*sin(phi)      ],
             [-i*(conj(kappa)/D)*sin(phi),     cos(phi) + i*(xi/D)*sin(phi)]]

    with D = sqrt(xi^2 + |kappa|^2) and phi = D*dt/(2*tau*s0). The prefactor
    is a global phase (it carries the mid price and never affects
    probabilities); the bracket rotates probability between the two levels at
    a rate set by the coupling kappa.

    D = 0 forces xi = kappa = 0, so the bracket degenerates to the identity
    and the state is returned unchanged up to the global phase; no division
    by zero occurs.

    When ``renormalize`` is set (the default), the output is rescaled to unit
    norm whenever floating-point drift exceeds :data:`RENORM_TRIGGER`. A
    phase s_mid*dt/(tau*s0) or an angle phi that is not finite raises
    :class:`ValidationError`.
    """
    dt, scale = params.dt, params.tau * params.s0
    if not math.isfinite(s_mid * dt / scale):
        raise ValidationError(f"propagation phase s_mid*dt/(tau*s0) is not finite ({s_mid=!r})")
    kappa = complex(kappa)
    delta = math.hypot(xi, abs(kappa))
    global_phase = cmath.exp(-1j * s_mid * dt / scale)

    if delta == 0.0:
        return StateVector(global_phase * state.psi_ask, global_phase * state.psi_bid)

    phi = 0.5 * delta * dt / scale
    if not math.isfinite(phi):
        raise ValidationError(f"rotation angle delta*dt/(2*tau*s0) is not finite ({delta=!r})")
    c = math.cos(phi)
    s = math.sin(phi)
    u11 = complex(c, -s * (xi / delta))
    u12 = -1j * s * (kappa / delta)
    u21 = -1j * s * (kappa.conjugate() / delta)
    u22 = complex(c, s * (xi / delta))

    a = global_phase * (u11 * state.psi_ask + u12 * state.psi_bid)
    b = global_phase * (u21 * state.psi_ask + u22 * state.psi_bid)

    if renormalize:
        n = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
        if abs(n - 1.0) > RENORM_TRIGGER:
            r = 1.0 / math.sqrt(n)
            a *= r
            b *= r
    return StateVector(a, b)
