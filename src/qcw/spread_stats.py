"""Analytic bid-ask-spread distribution and supporting numerics.

For centered normal components xi ~ N(0, xi1) and kappa ~ N(0, kappa1) the
spread Delta = sqrt(xi^2 + kappa^2) has density

    P(Delta) = (Delta / (xi1*kappa1)) * exp(-a*Delta^2) * I0(b*Delta^2)

with a = (1/xi1^2 + 1/kappa1^2)/4 and b = (1/xi1^2 - 1/kappa1^2)/4, where I0
is the modified Bessel function of the first kind. The leading
Delta*exp(-a*Delta^2) factor is the small-spacing signature of random-matrix
level repulsion; at xi1 = kappa1 the law collapses to a Rayleigh density.

This module provides the density (in an overflow-safe form), its CDF,
direct sampling, histogramming and a Kolmogorov-Smirnov distance against the
law. The law is the Hoyt (Nakagami-q) distribution, whose CDF has a closed
form in the first-order Marcum Q-function (R. Paris, Electron. Lett. 45(4),
2009); it and I0 are evaluated with ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, is_finite_number

__all__ = [
    "SpreadLaw",
    "Histogram",
    "bessel_i0_scaled",
    "spread_pdf",
    "spread_log_pdf",
    "spread_cdf",
    "sample_spread",
    "ks_distance",
]


def bessel_i0_scaled(x):
    """Exponentially scaled e^-|x| * I0(x); even in x, in (0, 1] for all x.

    Accepts finite scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("bessel_i0_scaled requires finite input")
    from scipy import special  # deferred: the simulation never needs scipy

    out = special.i0e(arr)
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class SpreadLaw:
    """Parameter pair (xi1, kappa1) of the spread distribution, both > 0."""

    xi1: float
    kappa1: float

    def __post_init__(self):
        for name in ("xi1", "kappa1"):
            v = getattr(self, name)
            if not is_finite_number(v) or v <= 0:
                raise ValidationError(f"{name} must be a finite positive number")
            object.__setattr__(self, name, float(v))

    # a and b square the reciprocal scales, so at extreme magnitudes they
    # round to 0 or +-inf as IEEE products do (``**`` would raise instead).
    @property
    def a(self) -> float:
        u, v = 1.0 / self.xi1, 1.0 / self.kappa1
        return 0.25 * (u * u + v * v)

    @property
    def b(self) -> float:
        u, v = 1.0 / self.xi1, 1.0 / self.kappa1
        return 0.25 * ((u - v) * (u + v))

    def tail_cutoff(self) -> float:
        """Upper limit beyond which the density mass is negligible (< 1e-30).

        The decay rate a - |b| equals 1/(2*max(xi1, kappa1)^2), so twelve of
        the larger scales bound the support: the CDF there is 1 to float
        precision.
        """
        return 12.0 * max(self.xi1, self.kappa1)


def _unit_frame(delta, law: SpreadLaw):
    """The samples and the law in units of c = max(xi1, kappa1).

    Returns ``(u, c, s, abs_b)``: u = delta/c as a 1-D array, the smaller
    scale s = min(xi1, kappa1)/c in (0, 1], and |b| = (1/s^2 - 1)/4. In these
    units a - |b| = 1/2 exactly, so nothing is squared at the law's own
    magnitude (which overflows beyond ~1e154 and underflows below ~1e-154)
    and the decay rate carries no cancellation at large scale ratios.
    """
    c = max(law.xi1, law.kappa1)
    s = min(law.xi1, law.kappa1) / c
    u = np.atleast_1d(np.asarray(delta, dtype=float)) / c
    return u, c, s, 0.25 * (1.0 / (s * s) - 1.0)


def spread_pdf(delta, law: SpreadLaw):
    """Density of the spread law at ``delta`` (0 for delta < 0).

    Evaluated as pdf(delta; law) = pdf(u; law/c)/c with u = delta/c and
    c = max(xi1, kappa1), in the overflow-safe form
    (u/s) * exp(-u^2/2) * [e^-|b|u^2 I0(|b|*u^2)], where s = min/c and the
    bracket is the scaled Bessel function; no exponential can overflow
    regardless of parameter asymmetry or magnitude.
    """
    scalar = np.ndim(delta) == 0
    u, c, s, abs_b = _unit_frame(delta, law)
    uu = u * u
    out = (u / s) * np.exp(-0.5 * uu) * bessel_i0_scaled(abs_b * uu) / c
    out = np.where(u < 0.0, 0.0, out)
    return float(out[0]) if scalar else out


def spread_log_pdf(delta, law: SpreadLaw):
    """log of :func:`spread_pdf`; -inf at delta <= 0."""
    scalar = np.ndim(delta) == 0
    u, c, s, abs_b = _unit_frame(delta, law)
    with np.errstate(divide="ignore", invalid="ignore"):
        uu = u * u
        out = np.log(u) - math.log(s * c) - 0.5 * uu + np.log(bessel_i0_scaled(abs_b * uu))
    out = np.where(u <= 0.0, -np.inf, out)
    return float(out[0]) if scalar else out


# spread_cdf evaluates this many points before the rest of a batch.
_CDF_PROBE = 16


def spread_cdf(delta, law: SpreadLaw):
    """CDF of the spread law at ``delta`` (0 for delta <= 0), in closed form.

    For the Hoyt law F(r) = Q1(h*r, l*r) - Q1(l*r, h*r) with
    h, l = (1/s_min +- 1/s_max)/2, where s_min, s_max are the smaller and
    larger of xi1, kappa1. The Marcum function Q1(alpha, beta) is the
    survival function of a noncentral chi-square with 2 degrees of freedom
    at beta^2 and noncentrality alpha^2, so F(r) is a difference of two
    ``chndtr`` values. ``delta`` is clamped to the tail cutoff, where F is
    already 1, so (h*r)^2 cannot overflow. Accepts scalars or arrays.

    ``chndtr`` slows in proportion to the scale ratio and stops converging
    beyond about 2e4:1, where this raises :class:`ValidationError`. Of more
    than 32 points the first 16 are evaluated before the rest, so past that
    ratio the raise comes after a few points, not after the whole batch.
    """
    from scipy import special  # deferred: the simulation never needs scipy

    d = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValidationError("delta must be finite")
    inv_min = 1.0 / min(law.xi1, law.kappa1)
    inv_max = 1.0 / max(law.xi1, law.kappa1)
    r = np.clip(d, 0.0, law.tail_cutoff()).ravel()
    hr2 = (0.5 * (inv_min + inv_max) * r) ** 2
    lr2 = (0.5 * (inv_min - inv_max) * r) ** 2
    out = np.empty_like(r)
    if r.size > 2 * _CDF_PROBE:
        parts = [slice(0, _CDF_PROBE), slice(_CDF_PROBE, None)]
    else:
        parts = [slice(None)]
    for part in parts:
        out[part] = special.chndtr(hr2[part], 2.0, lr2[part]) - special.chndtr(
            lr2[part], 2.0, hr2[part])
        if np.isnan(out[part]).any():
            raise ValidationError(
                "spread CDF does not converge at xi1/kappa1 ratio "
                f"{inv_min / inv_max:.3g}; ratios up to 1e4 are supported"
            )
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def sample_spread(law: SpreadLaw, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. spread draws sqrt(xi^2 + kappa^2) with centered normal parts."""
    if isinstance(n, (bool, np.bool_)) or not isinstance(n, (int, np.integer)):
        raise ValidationError(f"sample count must be an integer, got {n!r}")
    if n < 0:
        raise ValidationError("sample count must be >= 0")
    xi = rng.normal(0.0, law.xi1, size=n)
    kappa = rng.normal(0.0, law.kappa1, size=n)
    return np.hypot(xi, kappa)


# Block pruning of :func:`ks_distance` (see there): the stride of its first
# knots in sorted samples, the number of parts an open block is cut into,
# and the margin of a block's bound over the model CDF's worst step down.
_KS_STRIDE, _KS_SPLIT, _KS_SLACK = 256, 8, 1e-9


def ks_distance(samples, law: SpreadLaw) -> float:
    """Kolmogorov-Smirnov sup-distance between samples and the spread law.

    The statistic is max over the sorted samples x_0 <= ... <= x_{n-1} of
    (i+1)/n - F(x_i) and F(x_i) - i/n, with F the closed-form
    :func:`spread_cdf`. Any nonempty sample set of finite values gives a
    statistic in (0, 1]; samples <= 0 have F = 0. Meaningful comparisons
    want far more than a handful of points.

    F is evaluated only where the sup can be. It is evaluated first at
    every 256th sorted index and the last one. Between two evaluated
    indices j < k, monotonicity of F bounds every interior i by
    (i+1)/n - F(x_i) <= k/n - F(x_j) and F(x_i) - i/n <= F(x_k) - (j+1)/n.
    A block whose bound plus a slack exceeds the largest term found so far
    is cut in 8 and its new knots evaluated; the others are dropped, until
    no block is left. The terms are computed as over all samples, so the
    result is bitwise the full evaluation's. On 1e5 draws of their own law
    that takes about 4% of the samples.

    The slack, 1e-9, must exceed the largest drop of F between two ordered
    points, plus the rounding of the bound: the closed form's difference of
    two ``chndtr`` values dips by about an ulp near 1 and stays within 1e-12
    of the integrated density (tested). 1e-9 keeps a margin of about 500
    over that, and costs only blocks whose bound ties the sup to 1e-9.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValidationError("cannot compute a KS distance for an empty sample set")
    if not np.isfinite(x).all():
        raise ValidationError("KS samples must be finite")
    f = np.empty(n)  # F(x_i), read only where evaluated
    new = np.unique(np.r_[0:n:_KS_STRIDE, n - 1])
    lo, hi = new[:-1], new[1:]
    best = 0.0
    while new.size:
        f[new] = spread_cdf(x[new], law)
        best = max(best, np.max((new + 1) / n - f[new]), np.max(f[new] - new / n))
        bound = np.maximum(hi / n - f[lo], f[hi] - (lo + 1) / n)
        keep = (hi - lo > 1) & (bound + _KS_SLACK > best)
        cuts = lo[keep, None] + (hi - lo)[keep, None] * np.arange(_KS_SPLIT + 1) // _KS_SPLIT
        lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
        inner = cuts[:, 1:-1]
        new = np.unique(inner[inner > cuts[:, :1]])
    return float(best)


@dataclass(frozen=True)
class Histogram:
    """Normalized histogram: bin edges, per-bin probability mass, sample count."""

    edges: np.ndarray
    masses: np.ndarray
    count: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValidationError("histogram edges must be strictly increasing")
        if masses.shape != (edges.size - 1,):
            raise ValidationError("histogram masses must align with edges")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise ValidationError("histogram masses must be finite and >= 0")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "count", int(self.count))

    @classmethod
    def from_samples(cls, values, bins: int, value_range: tuple[float, float] | None = None
                     ) -> "Histogram":
        if isinstance(bins, bool) or not isinstance(bins, int) or bins < 1:
            raise ValidationError("bins must be an integer >= 1")
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            raise ValidationError("cannot histogram an empty sample set")
        counts, edges = np.histogram(values, bins=bins, range=value_range)
        total = counts.sum()
        if total == 0:
            raise ValidationError("all samples fall outside the histogram range")
        return cls(edges=edges, masses=counts / total, count=int(values.size))

    def densities(self) -> np.ndarray:
        """Per-bin probability density (mass / bin width)."""
        return self.masses / np.diff(self.edges)

    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

