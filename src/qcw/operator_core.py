"""The 2x2 Hermitian price operator and its closed-form eigenvalues.

The operator's two real eigenvalues are the ask and bid prices attainable at
the next trade. Their half-sum is the mid price and their difference the
bid-ask spread, so the eigenvalues are the bridge from matrix elements to
quoted levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import finite_number
from .wave_dynamics import _modulus, _norm2, _norm2_array

__all__ = [
    "PriceOperator2",
    "PriceLevels",
    "eigenprices",
    "eigenprices_batch",
]


@dataclass(frozen=True)
class PriceOperator2:
    """Hermitian 2x2 price operator.

    Only the upper triangle is stored: the (2,1) element is implicitly
    conj(s12) and the diagonal is real, so Hermiticity holds by construction.
    s12 is complex, though the simulator draws it real: a phase of s12 is a
    change of basis that leaves the levels, which see only |s12|, unchanged.
    """

    s11: float
    s22: float
    s12: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s11", finite_number(float, self.s11, "s11"))
        object.__setattr__(self, "s22", finite_number(float, self.s22, "s22"))
        object.__setattr__(self, "s12", finite_number(complex, self.s12, "s12"))


@dataclass(frozen=True)
class PriceLevels:
    """Snapshot of the quoted levels derived from one operator.

    Invariants: s_ask >= s_bid, delta = s_ask - s_bid >= 0 and
    s_mid = (s_ask + s_bid) / 2 to arithmetic precision, where the levels
    are in float range; none of them is NaN.
    """

    s_ask: float
    s_bid: float
    s_mid: float
    delta: float


def eigenprices(op: PriceOperator2) -> PriceLevels:
    """Eigenvalues of the price operator as ask/bid levels.

    s_ask/bid = (s11+s22)/2 +- sqrt(((s11-s22)/2)^2 + |s12|^2), i.e. the two
    prices sit symmetrically around the mid (half-trace) separated by the
    spread delta = sqrt((s11-s22)^2 + 4|s12|^2). The mid and the
    half-difference (s11-s22)/2 are finite, and no level is NaN: where an
    intermediate passes float range a level is +-inf, as in
    :func:`eigenprices_batch`.
    """
    half_diff = 0.5 * (op.s11 - op.s22)
    if math.isinf(half_diff):  # as the mid below
        half_diff = 0.5 * op.s11 - 0.5 * op.s22
    half_delta = _norm2(half_diff, _modulus(op.s12))
    s_mid = 0.5 * (op.s11 + op.s22)
    if math.isinf(s_mid):  # the sum passed float range; the sum of halves cannot
        s_mid = 0.5 * op.s11 + 0.5 * op.s22
    return PriceLevels(
        s_ask=s_mid + half_delta,
        s_bid=s_mid - half_delta,
        s_mid=s_mid,
        delta=2.0 * half_delta,
    )


def eigenprices_batch(s11, s22, s12):
    """Vectorized :func:`eigenprices` over arrays of matrix elements.

    Returns (s_ask, s_bid, s_mid, delta) as ndarrays, bitwise the scalar
    path's; used for bulk sweeps where per-call overhead matters. Like the
    scalar path it warns of no overflow: a level past float range is +-inf.
    """
    s11 = np.asarray(s11, dtype=float)
    s22 = np.asarray(s22, dtype=float)
    s12 = np.asarray(s12, dtype=complex)
    with np.errstate(over="ignore"):
        half_diff = 0.5 * (s11 - s22)
        past = np.isinf(half_diff)  # as in eigenprices
        if past.any():
            half_diff = np.where(past, 0.5 * s11 - 0.5 * s22, half_diff)
        # np.hypot of the parts rounds as Python's complex abs does
        half_delta = _norm2_array(half_diff, np.hypot(s12.real, s12.imag))
        s_mid = 0.5 * (s11 + s22)
        past = np.isinf(s_mid)  # as in eigenprices
        if past.any():
            s_mid = np.where(past, 0.5 * s11 + 0.5 * s22, s_mid)
        return s_mid + half_delta, s_mid - half_delta, s_mid, 2.0 * half_delta
