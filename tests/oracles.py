"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch (different formulas,
different precision, or an external library) so each check has two routes to
the same number.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import optimize
from scipy.linalg import expm

from qcw import (
    FitResult,
    PathSeries,
    PricePositivityError,
    PriceOperator2,
    SpreadLaw,
    StateVector,
    eigenprices,
    imbalance,
    probabilities,
    propagate,
    randomize_phase,
    spread_cdf,
    spread_log_pdf,
)
from qcw.calibration import _sum_psi_minus_phi
from qcw.market_sim import MODE_IMBALANCE_COUPLED, POST_TRADE_COLLAPSE, _child_seed, _seed_sequence
from qcw.wave_dynamics import _norm2


def eig_2x2_hermitian_extended(s11, s22, s12):
    """Eigenvalues of [[s11, s12], [conj(s12), s22]] via the characteristic
    polynomial solved by the quadratic formula in extended precision.

    Returns (larger, smaller) roots as float64 arrays.
    """
    s11 = np.asarray(s11, dtype=np.longdouble)
    s22 = np.asarray(s22, dtype=np.longdouble)
    s12 = np.asarray(s12)
    coupling_sq = (
        np.real(s12).astype(np.longdouble) ** 2 + np.imag(s12).astype(np.longdouble) ** 2
    )
    trace = s11 + s22
    det = s11 * s22 - coupling_sq
    disc = np.sqrt(trace * trace - 4.0 * det)
    return (0.5 * (trace + disc)).astype(float), (0.5 * (trace - disc)).astype(float)


def propagate_expm(s11, s22, s12, psi, dt, tau, s0):
    """One-step propagation by scipy's matrix exponential."""
    op = np.array([[s11, s12], [np.conj(s12), s22]], dtype=complex)
    u = expm(-1j * op * dt / (tau * s0))
    return u @ np.asarray(psi, dtype=complex)


def i0_quadrature(x, n_nodes=129):
    """I0(x) = (1/pi) * integral_0^pi exp(x*cos(phi)) dphi by Gauss-Legendre."""
    nodes, weights = leggauss(n_nodes)
    phi = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return float(np.dot(w, np.exp(x * np.cos(phi))) / math.pi)


def i0_scaled_quadrature(x, n_nodes=None):
    """e^-x * I0(x) by Gauss-Legendre on the scaled integrand exp(x*(cos-1)).

    Node count grows with sqrt(x) because the integrand peak at phi = 0
    narrows like 1/sqrt(x).
    """
    if n_nodes is None:
        n_nodes = max(129, int(12.0 * math.sqrt(max(x, 1.0))) + 80)
    nodes, weights = leggauss(n_nodes)
    phi = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    return float(np.dot(w, np.exp(x * (np.cos(phi) - 1.0))) / math.pi)


def rayleigh_pdf(x, scale):
    x = np.asarray(x, dtype=float)
    return (x / scale**2) * np.exp(-0.5 * (x / scale) ** 2)


def rayleigh_cdf(x, scale):
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-0.5 * (x / scale) ** 2)


def adaptive_simpson(f, lo, hi, tol, max_depth=50):
    """Adaptive Simpson quadrature of scalar ``f`` on [lo, hi], with
    Richardson correction, to absolute tolerance ``tol``."""

    def simpson(a, fa, b, fb, fm):
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = simpson(a, fa, m, fm, flm)
        right = simpson(m, fm, b, fb, frm)
        err = left + right - whole
        if depth <= 0 or abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1
        )

    if hi <= lo:
        return 0.0
    m = 0.5 * (lo + hi)
    fa, fb, fm = f(lo), f(hi), f(m)
    return recurse(lo, fa, hi, fb, m, fm, simpson(lo, fa, hi, fb, fm), tol, max_depth)


def cdf_by_simpson(pdf, x, scale, tol=1e-12):
    """integral_0^x pdf by adaptive Simpson, split into at most 64 panels of
    about ``scale`` each so that a peak of that width is resolved."""
    panels = max(1, min(64, math.ceil(x / scale)))
    edges = np.linspace(0.0, x, panels + 1)
    return sum(
        adaptive_simpson(pdf, float(a), float(b), tol / panels)
        for a, b in zip(edges[:-1], edges[1:])
    )


def ks_by_full_evaluation(samples, law):
    """Kolmogorov-Smirnov distance with the model CDF evaluated at every
    sorted sample: ``ks_distance`` before it pruned blocks of samples."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    model = spread_cdf(x, law)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - model)
    d_minus = np.max(model - (i - 1.0) / n)
    return float(max(d_plus, d_minus, 0.0))


# Coefficient of variation of the spread at the two parameter extremes:
# equal scales give a Rayleigh law, a vanishing scale gives a half-normal.
_CV_RAYLEIGH = math.sqrt(4.0 / math.pi - 1.0)
_CV_HALF_NORMAL = math.sqrt(math.pi / 2.0 - 1.0)


def fit_by_nelder_mead(values, max_iterations=500):
    """Reference MLE of (xi1, kappa1): Nelder-Mead on (log xi1, log kappa1)
    over the summed ``spread_log_pdf``, converging at 1e-8 in log-likelihood,
    from a moment-matching start.

    The start fixes xi1^2 + kappa1^2 = mean(d^2) and reads the split off the
    sample coefficient of variation, between its Rayleigh (equal scales) and
    half-normal (one scale vanishing) values.
    """
    values = np.asarray(values, dtype=float)
    m2 = float(np.mean(values**2))
    cv = float(np.std(values) / np.mean(values))
    ratio = (_CV_HALF_NORMAL - cv) / (_CV_HALF_NORMAL - _CV_RAYLEIGH)
    ratio = min(1.0, max(0.05, ratio))
    xi1_0 = math.sqrt(m2 / (1.0 + ratio**2))

    def negative_loglik(log_params):
        xi1, kappa1 = np.exp(log_params)
        return -float(np.sum(spread_log_pdf(values, SpreadLaw(xi1=float(xi1), kappa1=float(kappa1)))))

    result = optimize.minimize(
        negative_loglik,
        x0=np.log([xi1_0, ratio * xi1_0]),
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "fatol": 1e-8, "xatol": 1e-6},
    )
    xi1_hat, kappa1_hat = sorted(np.exp(result.x), reverse=True)
    return FitResult(
        xi1_hat=float(xi1_hat),
        kappa1_hat=float(kappa1_hat),
        loglik=-float(result.fun),
        n=int(values.size),
        converged=bool(result.success),
        iterations=int(result.nit),
        nfev=int(result.nfev),
    )


def root_by_brentq(f, lo, hi):
    """Root of scalar ``f`` in [lo, hi] by scipy's Brent method, to 4 ulps
    relative: the fit's root finder before its bracketed Newton iteration."""
    return optimize.brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)


def root_by_scored_newton(score, lo, hi, max_iterations):
    """The fit's bracketed Newton root before it took its last step unscored:
    every step is scored, and the solve stops only where the Newton step, or
    the bracket, is within 4 ulps (relative). ``score(b)`` returns the value
    and its slope; returns ``(root, iterations, converged)``."""
    rtol = 4.0 * np.finfo(float).eps
    (s_lo, slope_lo), (s_hi, slope_hi) = score(lo), score(hi)
    b, s, slope = (lo, s_lo, slope_lo) if abs(s_lo) < abs(s_hi) else (hi, s_hi, slope_hi)
    before = last = math.inf
    for iterations in range(max_iterations + 1):
        step = s / slope if slope else math.inf
        if abs(step) <= rtol * b or hi - lo <= rtol * b:
            return b, iterations, True
        if iterations == max_iterations:
            break
        if abs(step) > 0.5 * before:
            step *= 2.0
        next_b = b - step if lo < b - step < hi else 0.5 * (lo + hi)
        before, last = last, abs(next_b - b)
        b = next_b
        s, slope = score(b)
        if s > 0.0:
            lo = b
        else:
            hi = b
    return b, max_iterations, False


def score_is_negative_by_bessel(beta, t, tail_inv):
    """The fit's sufficient test for a negative profile score before its
    Bessel-free first stage: where b t_i >= 1.5, phi(b t_i) >= 1 + 1/(4 b t_i),
    and every sample below 1.5/b is bounded with I1/I0 itself.
    ``tail_inv[j]`` is the sum of 1/t from index j on."""
    j = int(np.searchsorted(t, 1.5 / beta))
    gap = 1.0 / (math.hypot(1.0, 2.0 * beta) + 2.0 * beta)
    bound = _sum_psi_minus_phi(beta * t[:j], gap)[0]
    if j < t.size:
        bound -= (t.size - j) * gap + tail_inv[j] / (4.0 * beta)
    return bound < 0.0


def spreads_by_row(low, high, denom=None):
    """Scalar per-row reference for the masked spread extraction.

    Returns ``(values, n_rows, crossed, zero, nonpositive)``. A row is
    dropped under the first rule it breaks: nonpositive or non-finite price
    (``denom`` included), crossed (``low > high``), zero (``low == high``).
    """
    values = []
    crossed = zero = nonpositive = 0
    for k in range(len(low)):
        lo, hi = float(low[k]), float(high[k])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo > 0 and hi > 0):
            nonpositive += 1
            continue
        if denom is not None and not (math.isfinite(denom[k]) and denom[k] > 0):
            nonpositive += 1
            continue
        if lo > hi:
            crossed += 1
            continue
        if lo == hi:
            zero += 1
            continue
        value = hi - lo
        if denom is not None:
            value /= float(denom[k])
        values.append(value)
    return values, len(low), crossed, zero, nonpositive


def simulate_path_by_steps(config, params):
    """Per-step reference for ``simulate_path``.

    One draw call per step on each sub-stream (elements, trade and phase)
    and the public scalar API on state objects: the operator
    as a ``PriceOperator2``, its levels from ``eigenprices``, ``propagate``
    in the frame of the mid (``s_mid`` 0, so no global phase),
    ``probabilities``/``imbalance`` and ``randomize_phase``.
    """
    root = _seed_sequence(config.seed)
    rng_elem, rng_trade, rng_phase = (
        np.random.default_rng(_child_seed(root, i)) for i in range(3)
    )
    coupled = config.mode == MODE_IMBALANCE_COUPLED
    collapse = config.post_trade == POST_TRADE_COLLAPSE
    cols = {name: [] for name in ("s_bid", "s_ask", "s_trade", "at_ask", "imbalance", "xi", "kappa")}
    state = config.initial_state
    s_trade = config.initial_price
    resid_max = 0.0

    for k in range(config.n_steps):
        dz, nx, nk = (float(v) for v in rng_elem.standard_normal(3))
        xi = params.xi0 + params.xi1 * nx
        mean_k = config.c_i * imbalance(state) if coupled else params.kappa0
        kappa = mean_k + params.kappa1 * nk
        common = s_trade + s_trade * params.sigma * dz
        levels = eigenprices(PriceOperator2(common + 0.5 * xi, common - 0.5 * xi, 0.5 * kappa))
        state = propagate(state, xi, kappa, 0.0, params)
        i_k = imbalance(state)
        p_ask, _ = probabilities(state)
        at_ask = rng_trade.random() < p_ask
        price = levels.s_ask if at_ask else levels.s_bid
        if price <= 0.0:
            raise PricePositivityError(step=k, price=price)
        if collapse:
            state = StateVector(1.0, 0.0) if at_ask else StateVector(0.0, 1.0)
        else:
            state = randomize_phase(state, rng_phase)

        for name, value in zip(cols, (levels.s_bid, levels.s_ask, price, at_ask, i_k, xi, kappa)):
            cols[name].append(value)
        resid_max = max(resid_max, abs(levels.delta - _norm2(xi, abs(kappa))))
        s_trade = price

    return PathSeries(
        t=np.arange(config.n_steps, dtype=np.int64),
        s_bid=np.array(cols["s_bid"]),
        s_ask=np.array(cols["s_ask"]),
        s_trade=np.array(cols["s_trade"]),
        at_ask=np.array(cols["at_ask"], dtype=bool),
        imbalance=np.array(cols["imbalance"]),
        xi=np.array(cols["xi"]),
        kappa=np.array(cols["kappa"]),
        initial_price=config.initial_price,
        seed=config.seed,
        spread_residual_max=resid_max,
    )


def centered_by_fsum(values):
    """``(mean, centered, e)``: the mean of ``values`` and the values
    centered on it as ``imbalance_summary`` centers them, from exactly
    rounded sums (``math.fsum``), then scaled by 2^-e, the power of two that
    brings the largest into [0.5, 1).

    The values are centered on their rounded mean, then on the mean of what
    that left, so a constant sample centers to zeros.
    """
    x = [float(v) for v in values]
    n = len(x)
    mean = math.fsum(x) / n
    residuals = [v - mean for v in x]
    shift = math.fsum(residuals) / n
    centered = [r - shift for r in residuals]
    e = math.frexp(max(map(abs, centered)))[1]
    return mean + shift, [math.ldexp(c, -e) for c in centered], e


def moments_by_fsum(values):
    """``(mean, variance, skewness)`` of ``values`` from exactly rounded
    sums and cubes by ``**`` over :func:`centered_by_fsum`; the skewness is
    0.0 where the variance is 0."""
    mean, scaled, e = centered_by_fsum(values)
    n = len(scaled)
    variance = math.fsum(c * c for c in scaled) / n
    third = math.fsum(c**3 for c in scaled) / n
    skewness = third / variance**1.5 if variance > 0 else 0.0
    return mean, math.ldexp(variance, 2 * e), skewness


def path_csv_rows_by_repr(series):
    """Row-at-a-time reference for the ``path.csv`` rows: one ``repr`` of
    ``float`` per cell, ``s_trade`` formatted on its own."""
    fmt = lambda x: repr(float(x))  # noqa: E731
    side = lambda k: "ask" if series.at_ask[k] else "bid"  # noqa: E731
    return [
        f"{int(series.t[k])},{fmt(series.s_bid[k])},{fmt(series.s_ask[k])},"
        f"{fmt(series.s_trade[k])},{side(k)},{fmt(series.imbalance[k])}"
        for k in range(len(series))
    ]


def chunk_draws_by_stacking(rngs, m, collapse):
    """The raw draws of ``market_sim._chunk``: one call per path and sub-stream,
    the results stacked on a new last axis, and the scramble angles from
    ``Generator.uniform(0, 2*pi)``.

    ``rngs`` has shape (streams, *paths); returns ``(dz, nx, nk, uniforms,
    thetas)``, each of shape (m, *paths), with ``thetas`` None under collapse.
    """
    paths = rngs.shape[1:]
    streams = rngs.reshape(len(rngs), -1)

    def draw(stream, sample, *args):
        out = np.stack([sample(rng, *args) for rng in streams[stream]], axis=-1)
        return out.reshape(out.shape[:-1] + paths)

    dz, nx, nk = np.moveaxis(draw(0, np.random.Generator.standard_normal, (m, 3)), 1, 0)
    uniforms = draw(1, np.random.Generator.random, m)
    thetas = None if collapse else draw(2, np.random.Generator.uniform, 0.0, 2.0 * math.pi, m)
    return dz, nx, nk, uniforms, thetas


def norm2_by_scaling(h, k):
    """sqrt(h*h + k*k) on Python floats with both parts first scaled by the
    power of two of the larger one, which is exact: the larger square can
    neither overflow nor underflow. A norm past float range is inf."""
    e = math.frexp(max(abs(h), abs(k)))[1]
    h, k = math.ldexp(h, -e), math.ldexp(k, -e)
    try:
        return math.ldexp(math.sqrt(h * h + k * k), e)
    except OverflowError:
        return math.inf
