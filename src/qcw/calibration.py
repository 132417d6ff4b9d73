"""Maximum-likelihood calibration of the spread law and data ingestion.

Fits (xi1, kappa1) to observed spread samples by maximizing the spread-law
log-likelihood, with no 2-D search. In the scale-free units
t = (d/s)^2 / mean((d/s)^2), s = max(d), the law's parameter a has a closed
form given b (the profile likelihood), so every local maximum is a root of
a 1-D profile score in b, bracketed on powers of two and solved by Brent's
method; where the score is negative at b = 0, the Rayleigh line
xi1 = kappa1 is a candidate too. The likelihood is exactly symmetric under
swapping the two parameters, so the intrinsic and coupling scales are not
individually identifiable from spread data alone; results are reported in
the canonical order xi1_hat >= kappa1_hat.

Spread samples come from quote rows (ask - bid) or OHLC bars, where the bar
high plays the role of the ask and the low the role of the bid; relative
mode divides the high-low range by the close.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

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

# phi(x) = 2x (1 - I1(x)/I0(x)) >= 1 + 1/(4x) holds from x = 1.31 on, which
# bounds the profile score from above without Bessel functions for the
# samples with b t past this point.
_BOUND_FROM = 1.5


@dataclass(frozen=True)
class FitResult:
    """MLE output, canonically ordered so that xi1_hat >= kappa1_hat.

    ``iterations`` counts root-finder iterations and ``nfev`` the
    evaluations over the samples: of the profile score, of its bound and of
    the log-likelihood.
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
    (Abramowitz & Stegun 9.7.1), highest power first for ``np.polyval``."""
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


def _sum_psi_minus_phi(x: np.ndarray, gap: float) -> float:
    """sum_i (psi - phi(x_i)) for x >= 0 sorted ascending, where
    phi(x) = 2x (1 - I1(x)/I0(x)) and psi = 1 - ``gap``."""
    j = int(np.searchsorted(x, _SERIES_FROM))
    near, y = x[:j], 1.0 / x[j:]
    return (
        float(np.sum((1.0 - gap) - 2.0 * near * (1.0 - special.i1e(near) / special.i0e(near))))
        - float(np.sum(np.polyval(_PHI_EXCESS_SERIES, y) / np.polyval(_I0_SERIES, y)))
        - (x.size - j) * gap
    )


def _profile_score(beta: float, t: np.ndarray) -> float:
    """2b times the derivative in b of the mean log-likelihood maximized
    over a, at b = ``beta``, for sorted t with mean(t) = 1.

    The derivative is mean(t r(b t)) - b/a with r = I1/I0, a = (1 + q)/2
    and q = sqrt(1 + 4 b^2), and 2b times it is psi - mean(phi(b t)) with
    psi = 2b (a - b)/a = 1 - 1/(q + 2b) and phi(x) = 2x (1 - r(x)). The
    first form keeps its precision for b <= 1, the second for b > 1.
    """
    q = math.hypot(1.0, 2.0 * beta)
    x = beta * t
    if beta <= 1.0:
        return 2.0 * beta * (
            float(np.mean(t * (special.i1e(x) / special.i0e(x)))) - 2.0 * beta / (1.0 + q)
        )
    return _sum_psi_minus_phi(x, 1.0 / (q + 2.0 * beta)) / t.size


def _score_is_negative(beta: float, t: np.ndarray, tail_inv: np.ndarray) -> bool:
    """A sufficient test for a negative profile score at b = ``beta``.

    Where b t_i >= 1.5, phi(b t_i) >= 1 + 1/(4 b t_i), so only the sorted
    samples below 1.5/b need Bessel functions; ``tail_inv[j]`` is the sum
    of 1/t from index j on.
    """
    j = int(np.searchsorted(t, _BOUND_FROM / beta))
    gap = 1.0 / (math.hypot(1.0, 2.0 * beta) + 2.0 * beta)
    bound = _sum_psi_minus_phi(beta * t[:j], gap)
    if j < t.size:
        bound -= (t.size - j) * gap + tail_inv[j] / (4.0 * beta)
    return bound < 0.0


def _a_minus_plus_b(beta: float) -> tuple[float, float]:
    """a - b and a + b at b = ``beta`` on the profile a = (1 + q)/2,
    q = sqrt(1 + 4 b^2), with a - b = (1 + 1/(q + 2b))/2 free of the
    cancellation of a direct subtraction."""
    q = math.hypot(1.0, 2.0 * beta)
    return 0.5 * (1.0 + 1.0 / (q + 2.0 * beta)), 0.5 * (1.0 + q) + beta


def _profile_loglik(beta: float, t: np.ndarray) -> float:
    """The b-dependent part of the log-likelihood maximized over a, summed
    over the samples t (mean(t) = 1)."""
    a_minus_b, a_plus_b = _a_minus_plus_b(beta)
    return (
        0.5 * t.size * math.log(a_minus_b * a_plus_b)
        - a_minus_b * float(np.sum(t))
        + float(np.sum(np.log(special.i0e(beta * t))))
    )


def _score_roots(t: np.ndarray, start: int, rising: bool, max_iterations: int):
    """Local maxima of the profile likelihood in b >= 0, for sorted t with
    mean(t) = 1: b = 0 if the score starts out negative (not ``rising``),
    and every b where the score turns from + to -.

    Steps over b = 2^k. A rising score is followed down from k = ``start``
    to a positive value; a falling one is known to be negative at 2^start.
    From there the steps go up until every sample has b t >= 1.5, past which
    :func:`_score_is_negative` holds for every larger b. Each sign change is
    solved by Brent's method. Returns
    ``(roots, iterations, converged, evaluations)``.
    """
    lowest, highest = _B_EXPONENTS
    scores = {}

    def score(beta):
        if beta not in scores:
            scores[beta] = _profile_score(beta, t)
        return scores[beta]

    k, positive = start, rising
    if rising:
        while k > lowest and score(2.0**k) <= 0.0:
            k -= 1
        positive = score(2.0**k) > 0.0
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
            negative = score(beta) <= 0.0
        else:
            bound_checks += 1
            negative = _score_is_negative(beta, t, tail_inv) or score(beta) <= 0.0
        if positive and negative:
            brackets.append(beta)
        positive = not negative
        if negative and beta * t[0] >= _BOUND_FROM:
            break

    iterations, converged = 0, not positive
    for hi in brackets:
        root, info = optimize.brentq(
            score, hi / 2.0, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
            maxiter=max_iterations, full_output=True, disp=False,
        )
        roots.append(root)
        iterations += info.iterations
        converged = converged and info.converged
    if positive:
        roots.append(2.0**highest)  # still rising at the ceiling
    return roots, iterations, converged, len(scores) + bound_checks


def fit_spread_params(
    samples,
    init: tuple[float, float] | None = None,
    max_iterations: int = 500,
) -> FitResult:
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
    negative. Each sign change from + to - is solved by Brent's method to
    4 ulps in at most ``max_iterations`` iterations (``converged=False`` if
    that cap is hit), and the local maximum with the highest
    log-likelihood wins: with few samples against the scale ratio, the
    smallest samples can make the profile multimodal, and b = 0 need not
    be the best even when mean(t^2) <= 2. The estimates scale with the
    samples at any magnitude, and the log-likelihood shifts by -n log c
    when the samples are scaled by c.

    ``init`` is checked but does not steer the search: a start away from
    the log-moment estimate could only hide a local maximum below it.
    """
    values = np.asarray(samples, dtype=float)
    if values.size < MIN_FIT_SAMPLES:
        raise ValidationError(
            f"need at least {MIN_FIT_SAMPLES} spread samples, got {values.size}"
        )
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValidationError("spread samples must all be finite and > 0")
    if init is not None and (init[0] <= 0 or init[1] <= 0):
        raise ValidationError("initial parameters must be > 0")

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
        t, min(math.floor(math.log2(start)), _B_EXPONENTS[1]), m2 > 2.0, max_iterations
    )

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


# The fast path reads a body in chunks of this many bytes. A cell longer
# than csv's default field limit (131072 characters), which ``_read_csv``
# rejects, spans at least one whole chunk.
_CHUNK_BYTES = 1 << 16

# The bytes the fast path lets into a body: printable ASCII except '#' (a
# comment line or cell) and '"' (a quoted cell), plus tab and line ends.
# Beyond these np.loadtxt and float() disagree: loadtxt strips \x1c-\x1f as
# whitespace and float() reads non-ASCII digits.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).translate(None, b'#"') + b"\t\n\r"


def _loadtxt_columns(path, expected_header: list[str], names) -> list | None:
    """The float columns ``names`` of a CSV, parsed in C by ``np.loadtxt``,
    or None where they might differ from what ``_read_csv`` returns.

    The header is found under ``_read_csv``'s rules, on lines without a
    quote, a NUL or a bare CR. The last column must be among ``names``: then
    loadtxt raises on a short row, and a comma count of (fields - 1) x rows
    proves that no row has extra fields, which ``usecols`` lets through.
    """
    wanted_header = [name.lower() for name in expected_header]
    try:
        handle = open(path, "rb")
    except OSError:
        return None
    with handle:
        while True:
            line = handle.readline(_CHUNK_BYTES)
            raw = line.removesuffix(b"\n").removesuffix(b"\r")
            if not line or len(line) == _CHUNK_BYTES or any(
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
        body = handle.tell()
        commas = 0
        for chunk in iter(lambda: handle.read(_CHUNK_BYTES), b""):
            if chunk.translate(None, _PLAIN_BYTES) or (
                len(chunk) == _CHUNK_BYTES
                and not any(byte in chunk for byte in (b",", b"\n", b"\r"))
            ):
                return None
            commas += chunk.count(b",")
        if not commas:
            return None  # no rows, on which loadtxt warns
        handle.seek(body)
        with io.TextIOWrapper(handle, encoding="utf-8") as stream:
            try:
                data = np.loadtxt(
                    stream,
                    delimiter=",",
                    comments=None,
                    usecols=[expected_header.index(name) for name in names],
                    ndmin=2,
                )
            except ValueError:
                return None
    if commas != (len(expected_header) - 1) * len(data):
        return None
    return list(np.ascontiguousarray(data.T))


def _read_floats(path, expected_header: list[str], names) -> list[np.ndarray]:
    """The float columns ``names`` of a CSV, bitwise as ``_read_csv`` reads
    them: from ``np.loadtxt`` where that provably agrees, else from
    ``_read_csv`` itself, which also raises every error."""
    columns = _loadtxt_columns(path, expected_header, names)
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
