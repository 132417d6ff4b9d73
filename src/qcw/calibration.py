"""Maximum-likelihood calibration of the spread law and data ingestion.

Fits (xi1, kappa1) to observed spread samples by maximizing the spread-law
log-likelihood, with no 2-D search. In the scale-free units
t = (d/s)^2 / mean((d/s)^2), s = max(d), the law's parameter a has a closed
form given b (the profile likelihood), so every local maximum is a root of
a 1-D profile score in b, bracketed on powers of two and solved by Newton
steps kept inside the bracket; where the score is negative at b = 0, the
Rayleigh line xi1 = kappa1 is a candidate too. The likelihood is exactly symmetric under
swapping the two parameters, so the intrinsic and coupling scales are not
individually identifiable from spread data alone; results are reported in
the canonical order xi1_hat >= kappa1_hat.

Spread samples come from quote rows (ask - bid) or OHLC bars, where the bar
high plays the role of the ask and the low the role of the bid; relative
mode divides the high-low range by the close. The CSV files are read by one
streaming reader, ``_read_csv``, which also words every error; the price
columns of a fit input are read in numpy where that provably gives the
same arrays.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "MIN_FIT_SAMPLES",
    "FitResult",
    "IngestResult",
    "fit_spread_params",
    "spreads_from_quotes",
    "spreads_from_ohlc",
    "read_quotes_csv",
    "read_ohlc_csv",
]

MIN_FIT_SAMPLES = 50

OHLC_MODE_ABSOLUTE = "absolute"
OHLC_MODE_RELATIVE = "relative"

# Powers of two that bound the search for the profile root b. A root below
# 2^-60 is the Rayleigh line to working precision; past 2^50 (a scale ratio
# near 7e7) the score is smaller than the rounding of its own terms.
_B_EXPONENTS = (-60, 50)

# The root of the profile score is found to 4 ulps, relative, in at most
# this many scored steps (``FitResult.converged`` is False past it).
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_MAX_ITERATIONS = 500

# phi(x) = 2x (1 - I1(x)/I0(x)) >= 1 + 1/(4x) holds from x = 1.31 on, which
# bounds the profile score from above without Bessel functions for the
# samples with b t past this point.
_BOUND_FROM = 1.5


@dataclass(frozen=True)
class FitResult:
    """MLE output, canonically ordered so that xi1_hat >= kappa1_hat.

    ``iterations`` counts the root finder's scored steps and ``nfev`` the
    evaluations over the samples: of the profile score, of its bound (once
    a check, over both of its stages) and of the log-likelihood.
    """

    xi1_hat: float
    kappa1_hat: float
    loglik: float
    n: int
    converged: bool
    iterations: int
    nfev: int


@dataclass(frozen=True)
class IngestResult:
    """Extracted spread samples plus counters for every dropped input row."""

    values: np.ndarray
    n_rows: int
    dropped_crossed: int
    dropped_zero: int
    dropped_nonpositive: int

    def drop_counts(self) -> dict:
        return {
            "rows": self.n_rows,
            "kept": int(self.values.size),
            "dropped_crossed": self.dropped_crossed,
            "dropped_zero": self.dropped_zero,
            "dropped_nonpositive": self.dropped_nonpositive,
        }


def _asymptotic_series(nu: int, terms: int = 16) -> np.ndarray:
    """Coefficients c_k of e^-x sqrt(2 pi x) I_nu(x) ~ sum_k c_k x^-k
    (Abramowitz & Stegun 9.7.1), highest power first for :func:`_horner`."""
    coeffs = [1.0]
    for k in range(1, terms + 1):
        coeffs.append(coeffs[-1] * ((2 * k - 1) ** 2 - 4 * nu * nu) / (8 * k))
    return np.array(coeffs[::-1])


# phi(x) - 1 from x = 50 on is a ratio of 16-term asymptotic series,
# accurate there to an ulp: phi(x) = 2x (I0 - I1)/I0, and the leading terms
# of 2x (I0 - I1) and I0 cancel exactly in the coefficients. Forming phi
# from i1e/i0e would lose a factor 2x of relative precision, and the score
# sums n terms near -1/(4x) whose total is far smaller when the scale ratio
# is large.
_SERIES_FROM = 50.0
_I0_SERIES = _asymptotic_series(0)
_PHI_EXCESS_SERIES = 2.0 * (_I0_SERIES - _asymptotic_series(1))[:-1] - _I0_SERIES[1:]


def _quotient_series(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The power series num/den to as many terms as num, for coefficients
    given highest power first and den(0) = 1."""
    num, den = num[::-1], den[::-1]
    out = []
    for k in range(num.size):
        out.append(num[k] - sum(den[i] * out[k - i] for i in range(1, min(k + 1, den.size))))
    return np.array(out[::-1])


# x phi'(x) = -y R'(y) past the series point, with R(y) = phi - 1 as one
# power series in y = 1/x; near there 2 - 2x (1 - r^2) cancels to ~1/(4x^2).
_X_PHI_SLOPE_SERIES = -np.polymul(np.polyder(_quotient_series(_PHI_EXCESS_SERIES, _I0_SERIES)),
                                  [1.0, 0.0])


# I1(x)/I0(x) = x/2 - x^3/16 + x^5/96 - 11 x^7/6144 + ... alternates with
# shrinking terms on [0, 1.5), so its sum through x^5 bounds it from above
# there; the relative margin covers the rounding of that sum and of scipy's
# ratio (which lies up to ~3e-18 above x/2 - x^3/16 + x^5/96 at small x).
_RATIO_UPPER = (1.0 + 2.0**-40) * np.array([1.0 / 96.0, -1.0 / 16.0, 0.5])


def _horner(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The polynomial ``coeffs`` (highest power first) at y, in one buffer:
    bitwise ``np.polyval``, whose first step 0 y + c_0 is c_0."""
    acc = np.full_like(y, coeffs[0])
    for c in coeffs[1:]:
        acc *= y
        acc += c
    return acc


def _bessel_ratio(x: np.ndarray) -> np.ndarray:
    """I1(x)/I0(x) from the exponentially scaled Bessel functions."""
    from scipy import special  # deferred: only the fit needs scipy

    return special.i1e(x) / special.i0e(x)


def _ratio_upper(x: np.ndarray) -> np.ndarray:
    """An upper bound on I1(x)/I0(x) for x in [0, 1.5), free of Bessel functions."""
    u = _horner(_RATIO_UPPER, x * x)
    u *= x
    return u


def _sum_psi_minus_phi(x: np.ndarray, gap: float) -> tuple[float, float]:
    """sum_i (psi - phi(x_i)) and sum_i x_i phi'(x_i) for x >= 0 sorted
    ascending, where phi(x) = 2x (1 - r(x)), r = I1/I0 and psi = 1 - ``gap``.

    phi'(x) = 2 - 2x (1 - r^2), from r'(x) = 1 - r/x - r^2; from x = 50 on
    both sums use the asymptotic series.
    """
    j = int(np.searchsorted(x, _SERIES_FROM))
    near, y = x[:j], 1.0 / x[j:]
    r = _bessel_ratio(near)
    excess = _horner(_PHI_EXCESS_SERIES, y)
    excess /= _horner(_I0_SERIES, y)
    total = (
        float(np.sum((1.0 - gap) - 2.0 * near * (1.0 - r)))
        - float(np.sum(excess))
        - (x.size - j) * gap
    )
    slope = float(np.sum(2.0 * near * (1.0 - near * (1.0 - r * r)))) + float(
        np.sum(_horner(_X_PHI_SLOPE_SERIES, y))
    )
    return total, slope


def _profile_score(beta: float, t: np.ndarray) -> tuple[float, float]:
    """2b times the derivative in b of the mean log-likelihood maximized
    over a, at b = ``beta``, for sorted t with mean(t) = 1, and the
    derivative of that score in b.

    The derivative is mean(t r(b t)) - b/a with r = I1/I0, a = (1 + q)/2
    and q = sqrt(1 + 4 b^2), and 2b times it is psi - mean(phi(b t)) with
    psi = 2b (a - b)/a = 1 - 1/(q + 2b) and phi(x) = 2x (1 - r(x)). The
    first form keeps its precision for b <= 1, the second for b > 1. Their
    slopes are 2b (mean(t^2 (1 - r^2)) - 2/q), since t^2 r'(b t) =
    t^2 (1 - r^2) - t r/b, and psi' - mean(t phi'(b t)) with
    psi' = 2/(q (q + 2b)).
    """
    q = math.hypot(1.0, 2.0 * beta)
    x = beta * t
    if beta <= 1.0:
        r = _bessel_ratio(x)
        return (
            2.0 * beta * (float(np.mean(t * r)) - 2.0 * beta / (1.0 + q)),
            2.0 * beta * (float(np.mean(t * t * (1.0 - r * r))) - 2.0 / q),
        )
    gap = 1.0 / (q + 2.0 * beta)
    total, slope = _sum_psi_minus_phi(x, gap)
    return total / t.size, 2.0 * gap / q - slope / (beta * t.size)


def _score_is_negative(beta: float, t: np.ndarray, tail_inv: np.ndarray) -> bool:
    """A sufficient test for a negative profile score at b = ``beta``.

    Where b t_i >= 1.5, phi(b t_i) >= 1 + 1/(4 b t_i); ``tail_inv[j]`` is
    the sum of 1/t from index j on. Below that, phi(x) = 2x (1 - r(x)) is
    bounded first with :func:`_ratio_upper` in place of r, and only where
    that fails with r itself. The first bound is elementwise the larger in
    floating point, so it proves nothing that the second does not.
    """
    j = int(np.searchsorted(t, _BOUND_FROM / beta))
    gap = 1.0 / (math.hypot(1.0, 2.0 * beta) + 2.0 * beta)
    tail = (t.size - j) * gap + tail_inv[j] / (4.0 * beta) if j < t.size else 0.0
    near = beta * t[:j]
    twice = 2.0 * near
    for ratio in (_ratio_upper, _bessel_ratio):
        # (1 - gap) - 2x (1 - ratio), summed, with the ratio's buffer reused
        term = ratio(near)
        np.subtract(1.0, term, out=term)
        term *= twice
        np.subtract(1.0 - gap, term, out=term)
        if float(np.sum(term)) - tail < 0.0:
            return True
    return False


def _a_minus_plus_b(beta: float) -> tuple[float, float]:
    """a - b and a + b at b = ``beta`` on the profile a = (1 + q)/2,
    q = sqrt(1 + 4 b^2), with a - b = (1 + 1/(q + 2b))/2 free of the
    cancellation of a direct subtraction."""
    q = math.hypot(1.0, 2.0 * beta)
    return 0.5 * (1.0 + 1.0 / (q + 2.0 * beta)), 0.5 * (1.0 + q) + beta


def _profile_loglik(beta: float, t: np.ndarray) -> float:
    """The b-dependent part of the log-likelihood maximized over a, summed
    over the samples t (mean(t) = 1)."""
    from scipy import special  # deferred: only the fit needs scipy

    a_minus_b, a_plus_b = _a_minus_plus_b(beta)
    return (
        0.5 * t.size * math.log(a_minus_b * a_plus_b)
        - a_minus_b * float(np.sum(t))
        + float(np.sum(np.log(special.i0e(beta * t))))
    )


def _bracketed_root(score, lo: float, hi: float):
    """The b in [lo, hi] where ``score(b)[0]`` turns from > 0 at lo to <= 0
    at hi, by Newton steps on its slope ``score(b)[1]``.

    The first step starts from the end with the smaller score. Each score
    moves one end of the bracket by its sign, so the bracket decides the
    root and the slope only steers: a step that is not half the step before
    last (at the score's rounding noise, near the root) is doubled, which
    likely lands past the root and closes the bracket, and a step that would
    not land inside the bracket is replaced by bisection. Stops at a b whose
    Newton step, or whose bracket, is within 4 ulps (relative). After a
    plain Newton step ``last`` (neither doubled nor bisected), quadratic
    convergence puts the step after the next ``step`` near
    |step|^3 / last^2; where that is within 4 ulps and b - step is inside
    the bracket, b - step is returned without scoring it. Otherwise stops
    after :data:`_MAX_ITERATIONS` scored steps. Returns
    ``(root, iterations, converged)``, with ``iterations`` the scored steps.
    """
    (s_lo, slope_lo), (s_hi, slope_hi) = score(lo), score(hi)
    b, s, slope = (lo, s_lo, slope_lo) if abs(s_lo) < abs(s_hi) else (hi, s_hi, slope_hi)
    before = last = math.inf
    plain = False
    for iterations in range(_MAX_ITERATIONS + 1):
        step = s / slope if slope else math.inf
        if abs(step) <= _ROOT_RTOL * b or hi - lo <= _ROOT_RTOL * b:
            return b, iterations, True
        if plain and abs(step) ** 3 <= _ROOT_RTOL * b * last**2 and lo < b - step < hi:
            return b - step, iterations, True
        if iterations == _MAX_ITERATIONS:
            break
        plain = abs(step) <= 0.5 * before and lo < b - step < hi
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
    return b, _MAX_ITERATIONS, False


def _score_roots(t: np.ndarray, start: int, rising: bool):
    """Local maxima of the profile likelihood in b >= 0, for sorted t with
    mean(t) = 1: b = 0 if the score starts out negative (not ``rising``),
    and every b where the score turns from + to -.

    Steps over b = 2^k. A rising score is followed down from k = ``start``
    to a positive value; a falling one is known to be negative at 2^start.
    From there the steps go up until every sample has b t >= 1.5, past which
    :func:`_score_is_negative` holds for every larger b. Each sign change is
    solved by :func:`_bracketed_root` in at most :data:`_MAX_ITERATIONS`
    scored steps. Returns ``(roots, iterations, converged, evaluations)``.
    """
    lowest, highest = _B_EXPONENTS
    scores = {}

    def score(beta):
        if beta not in scores:
            scores[beta] = _profile_score(beta, t)
        return scores[beta]

    k, positive = start, rising
    if rising:
        while k > lowest and score(2.0**k)[0] <= 0.0:
            k -= 1
        positive = score(2.0**k)[0] > 0.0
    # Falling at the start, or nonpositive down to 2^-60: b = 0 is a local
    # maximum (to working precision in the second case).
    roots = [] if positive else [0.0]

    with np.errstate(divide="ignore"):  # t is 0 only where (d/s)^2 underflows
        tail_inv = np.cumsum(1.0 / t[::-1])[::-1]
    brackets, bound_checks = [], 0
    while k < highest:
        k += 1
        beta = 2.0**k
        if positive or beta in scores:
            negative = score(beta)[0] <= 0.0
        else:
            bound_checks += 1
            negative = _score_is_negative(beta, t, tail_inv) or score(beta)[0] <= 0.0
        if positive and negative:
            brackets.append(beta)
        positive = not negative
        if negative and beta * t[0] >= _BOUND_FROM:
            break

    iterations, converged = 0, not positive
    for hi in brackets:
        root, used, done = _bracketed_root(score, hi / 2.0, hi)
        roots.append(root)
        iterations += used
        converged = converged and done
    if positive:
        roots.append(2.0**highest)  # still rising at the ceiling
    return roots, iterations, converged, len(scores) + bound_checks


def fit_spread_params(samples) -> FitResult:
    """Maximum-likelihood estimate of (xi1, kappa1) from spread samples.

    ``samples`` is any array-like of positive floats; at least
    :data:`MIN_FIT_SAMPLES` are required. With t = (d/s)^2 / mean((d/s)^2)
    and s = max(d), the log-likelihood for a fixed b is maximized by
    a(b) = (1 + sqrt(1 + 4 b^2))/2, so each local maximum is a root of the
    1-D profile score in b >= 0.

    The score near b = 0 is b (mean(t^2)/2 - 1). If mean(t^2) <= 2, b = 0
    (the Rayleigh line, ``xi1_hat == kappa1_hat``) is a local maximum and
    the search starts where the score is still provably negative;
    otherwise it starts from a log-moment estimate of b and steps down to
    a positive score. From there it steps up over powers of two until
    every sample has b t >= 1.5, past which the score is provably
    negative. Each sign change from + to - is solved by Newton steps on the
    score's slope, kept inside the bracket, until a step is within 4 ulps,
    or quadratic convergence predicts that the next step leaves less than
    4 ulps (that step is then taken unscored), in at most 500 scored
    steps (``converged=False`` if that cap is hit), and the local maximum
    with the highest log-likelihood wins: with few samples against the
    scale ratio, the smallest samples can make the profile multimodal, and
    b = 0 need not be the best even when mean(t^2) <= 2. The estimates
    scale with the samples at any magnitude, and the log-likelihood shifts
    by -n log c when the samples are scaled by c.
    """
    values = np.asarray(samples, dtype=float)
    if values.size < MIN_FIT_SAMPLES:
        raise ValidationError(
            f"need at least {MIN_FIT_SAMPLES} spread samples, got {values.size}"
        )
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValidationError("spread samples must all be finite and > 0")

    n = int(values.size)
    scale = float(values.max())
    t = values / scale
    sum_log_u = float(np.sum(np.log(t)))
    t *= t
    mu = float(np.mean(t))
    t /= mu
    t.sort()

    m2 = float(np.mean(t * t))
    if m2 > 2.0:
        # E log(d^2) = log((xi1 + kappa1)^2 / 2) - gamma for this law, and
        # xi1^2 + kappa1^2 = 1 here, which gives w = 2 xi1 kappa1 and
        # b = sqrt(1 - w^2)/w^2. The sample resolves w to about 1/sqrt(n).
        w = 2.0 * math.exp(2.0 * sum_log_u / n - math.log(mu) + np.euler_gamma) - 1.0
        w = min(max(w, n**-0.5), 1.0)
        start = max(math.sqrt(1.0 - w * w) / (w * w), 1.0 / 16.0)
    else:
        # r(x) <= x/2 and b/a >= b/(1 + b^2) keep the score negative for
        # b^2 < 2/m2 - 1.
        start = max(math.sqrt(2.0 / m2 - 1.0), 2.0 ** _B_EXPONENTS[0])
    roots, iterations, converged, evaluations = _score_roots(
        t, min(math.floor(math.log2(start)), _B_EXPONENTS[1]), m2 > 2.0)

    logliks = [_profile_loglik(beta, t) for beta in roots]
    best = int(np.argmax(logliks))
    a_minus_b, a_plus_b = _a_minus_plus_b(roots[best])
    return FitResult(
        xi1_hat=scale * math.sqrt(mu / (2.0 * a_minus_b)),
        kappa1_hat=scale * math.sqrt(mu / (2.0 * a_plus_b)),
        loglik=sum_log_u + n * (math.log(2.0) - math.log(mu) - math.log(scale)) + logliks[best],
        n=n,
        converged=bool(converged),
        iterations=int(iterations),
        nfev=evaluations + len(roots),
    )


def _spreads(low, high, denom=None) -> IngestResult:
    """Spread samples ``high - low`` (divided by ``denom`` if given).

    Each row is dropped under the first rule it breaks: a nonpositive or
    non-finite price (``denom`` included), then crossed (``low > high``),
    then zero (``low == high``; the law has zero density at zero, so such
    spreads cannot enter the likelihood).
    """
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    nonpositive = ~(np.isfinite(low) & np.isfinite(high) & (low > 0) & (high > 0))
    if denom is not None:
        denom = np.asarray(denom, dtype=float)
        nonpositive |= ~(np.isfinite(denom) & (denom > 0))
    crossed = ~nonpositive & (low > high)
    zero = ~nonpositive & (low == high)
    keep = ~(nonpositive | crossed | zero)
    values = high[keep] - low[keep]
    if denom is not None:
        # Over- or underflow here gives inf or 0, which the fit rejects.
        with np.errstate(over="ignore", under="ignore"):
            values /= denom[keep]
    return IngestResult(
        values,
        int(low.size),
        int(np.count_nonzero(crossed)),
        int(np.count_nonzero(zero)),
        int(np.count_nonzero(nonpositive)),
    )


def spreads_from_quotes(bid, ask) -> IngestResult:
    """Spread samples ask - bid from quote columns.

    Crossed rows (bid > ask), zero spreads and rows with nonpositive prices
    are dropped and counted rather than raising.
    """
    return _spreads(bid, ask)


def spreads_from_ohlc(high, low, close, mode: str = OHLC_MODE_ABSOLUTE) -> IngestResult:
    """Spread samples from OHLC columns: high - low, or (high - low)/close.

    The bar high stands in for the ask and the low for the bid. Bars with
    high < low are dropped as crossed; flat bars (high == low) give a zero
    range and are dropped like zero spreads; relative mode additionally
    requires close > 0.
    """
    if mode not in (OHLC_MODE_ABSOLUTE, OHLC_MODE_RELATIVE):
        raise ValidationError(f"unknown OHLC mode {mode!r}")
    return _spreads(low, high, close if mode == OHLC_MODE_RELATIVE else None)


# Where a column of each kind accumulates while the file streams past.
_COLUMN_STORES = {float: lambda: array("d"), int: lambda: array("q"), str: list}


def _read_csv(path, expected_header: list[str], columns: dict) -> dict:
    """The package's CSV reader: UTF-8, comma-separated, '#' comment lines
    and blank lines skipped, header matched after strip/lower.

    ``columns`` maps the names of the columns to keep to their type (float,
    int or str). Rows are streamed, so only the kept columns are held: float
    and int columns come back as float64 and int64 arrays, str columns as
    string arrays.
    """
    wanted_header = [name.lower() for name in expected_header]
    stores = {name: _COLUMN_STORES[kind]() for name, kind in columns.items()}
    sinks = [
        (stores[name].append, expected_header.index(name), kind)
        for name, kind in columns.items()
    ]
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot open input file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header_seen = False
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if not header_seen:
                    header = [cell.strip().lower() for cell in row]
                    if header != wanted_header:
                        raise ValidationError(
                            f"{path}: line {lineno}: expected header "
                            f"{','.join(expected_header)!r}, got {','.join(header)!r}"
                        )
                    header_seen = True
                    continue
                if len(row) != len(expected_header):
                    raise ValidationError(
                        f"{path}: line {lineno}: expected {len(expected_header)} fields, "
                        f"got {len(row)}"
                    )
                try:
                    for append, index, kind in sinks:
                        append(kind(row[index]))
                except (ValueError, OverflowError) as exc:
                    raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: unreadable CSV: {exc}") from exc
        if not header_seen:
            raise ValidationError(f"{path}: missing header row")
    return {
        name: np.array(store) if isinstance(store, list)
        else np.frombuffer(store, dtype=store.typecode)
        for name, store in stores.items()
    }


# The fast path reads a body in chunks of this many bytes, into one buffer
# that grows only for a line longer than it.
_CHUNK_BYTES = 1 << 18

# The bytes the fast path lets into a body: printable ASCII except '#' (a
# comment line or cell) and '"' (a quoted cell), plus tab and line ends. On
# these csv splits a line at its commas, and a cell's bytes are its text:
# float() reads non-ASCII digits and strips \x1c-\x1f, which are kept out.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b'#"') + b"\t\n\r"


def _plain_columns(path, expected_header: list[str], names) -> list | None:
    """The float columns ``names`` of a CSV, parsed in numpy, or None where
    they might differ from what ``_read_csv`` returns.

    The header is found under ``_read_csv``'s rules, on lines without a
    quote, a NUL or a bare CR. The body is read in chunks of
    :data:`_CHUNK_BYTES` into one buffer after 24 zeros, each chunk cut
    after its last LF, and the rest held for the next; a byte outside
    :data:`_PLAIN_BYTES` gives None. The cells go into one table with a row
    per column, so that no chunk's arrays outlive it.
    """
    # deferred: only the fit inputs need the numpy reader
    from .float_text import _FIELD_LIMIT, _WIDTH, _csv_floats

    wanted_header = [name.lower() for name in expected_header]
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        while True:
            line = handle.readline(_FIELD_LIMIT)
            raw = line.removesuffix(b"\n").removesuffix(b"\r")
            if not line or len(line) == _FIELD_LIMIT or any(
                byte in raw for byte in (b'"', b"\0", b"\r")
            ):
                return None
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
            if not text or text.lstrip().startswith("#"):
                continue
            if [cell.strip().lower() for cell in text.split(",")] != wanted_header:
                return None
            break
        n_fields, indexes = len(expected_header), [expected_header.index(name) for name in names]
        buf = bytearray(_WIDTH + _CHUNK_BYTES)
        table = np.empty((len(names), 0))
        held, filled, got = 0, 0, True
        while got:
            if _WIDTH + held == len(buf):  # a line longer than the buffer
                if held > n_fields * _FIELD_LIMIT:
                    return None
                buf = buf + bytes(len(buf))
            with memoryview(buf) as view:
                got = handle.readinto(view[_WIDTH + held:])
            size = _WIDTH + held + got
            if buf[size - got:size].translate(None, _PLAIN_BYTES):
                return None
            end = buf.rfind(b"\n", _WIDTH, size) + 1 if got else size
            if end <= _WIDTH:
                held += got
                continue
            rows = _csv_floats(buf, end, n_fields, indexes)
            if rows is None:
                return None
            if filled + len(rows) > table.shape[1]:
                # room for the whole file at this chunk's bytes per row; the
                # columns are views, and pages past their end are never written
                room = int(1.1 * os.fstat(handle.fileno()).st_size * len(rows) / (end - _WIDTH))
                grown = np.empty((len(names), max(room, 2 * table.shape[1], filled + len(rows))))
                grown[:, :filled] = table[:, :filled]
                table = grown
            table[:, filled:filled + len(rows)] = rows.T
            filled += len(rows)
            held = size - end
            buf[_WIDTH:_WIDTH + held] = buf[end:size]
    return list(table[:, :filled])


def _read_floats(path, expected_header: list[str], names) -> list[np.ndarray]:
    """The float columns ``names`` of a CSV, bitwise as ``_read_csv`` reads
    them: from :func:`_plain_columns` where that provably agrees, else from
    ``_read_csv`` itself, which also raises every error."""
    columns = _plain_columns(path, expected_header, names)
    if columns is None:
        cols = _read_csv(path, expected_header, dict.fromkeys(names, float))
        columns = [cols[name] for name in names]
    return columns


def read_quotes_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a quote CSV with header ``timestamp,bid,ask``; returns ``bid, ask``."""
    bid, ask = _read_floats(path, ["timestamp", "bid", "ask"], ("bid", "ask"))
    return bid, ask


def read_ohlc_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an OHLC CSV with header ``timestamp,open,high,low,close``;
    returns ``high, low, close``."""
    high, low, close = _read_floats(
        path, ["timestamp", "open", "high", "low", "close"], ("high", "low", "close")
    )
    return high, low, close
