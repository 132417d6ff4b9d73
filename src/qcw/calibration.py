"""Maximum-likelihood calibration of the spread law and data ingestion.

Fits (xi1, kappa1) to observed spread samples by maximizing the spread-law
log-likelihood with Nelder-Mead over log-parameters (positivity for free,
robust near the symmetric ridge xi1 = kappa1). The likelihood is exactly
symmetric under swapping the two parameters, so the intrinsic and coupling
scales are not individually identifiable from spread data alone; results are
reported in the canonical order xi1_hat >= kappa1_hat.

Spread samples come from quote rows (ask - bid) or OHLC bars, where the bar
high plays the role of the ask and the low the role of the bid; relative
mode divides the high-low range by the close.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ValidationError
from .spread_stats import SpreadLaw, spread_log_pdf

__all__ = [
    "MIN_FIT_SAMPLES",
    "SpreadSample",
    "FitResult",
    "QuoteRecord",
    "OhlcBar",
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

# Coefficient of variation of the spread at the two parameter extremes:
# equal scales give a Rayleigh law, a vanishing scale gives a half-normal.
_CV_RAYLEIGH = math.sqrt(4.0 / math.pi - 1.0)
_CV_HALF_NORMAL = math.sqrt(math.pi / 2.0 - 1.0)


@dataclass(frozen=True)
class SpreadSample:
    """One positive spread observation (price units, or dimensionless in
    relative OHLC mode)."""

    value: float
    timestamp: str | None = None

    def __post_init__(self):
        if not isinstance(self.value, (int, float)) or not math.isfinite(self.value) \
                or self.value <= 0:
            raise ValidationError("spread sample must be a finite number > 0")
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class FitResult:
    """MLE output, canonically ordered so that xi1_hat >= kappa1_hat."""

    xi1_hat: float
    kappa1_hat: float
    loglik: float
    n: int
    converged: bool
    iterations: int


@dataclass(frozen=True)
class QuoteRecord:
    timestamp: str
    bid: float
    ask: float


@dataclass(frozen=True)
class OhlcBar:
    timestamp: str
    open: float
    high: float
    low: float
    close: float


@dataclass(frozen=True)
class IngestResult:
    """Extracted samples plus counters for every dropped input row."""

    samples: list
    n_rows: int
    dropped_crossed: int
    dropped_zero: int
    dropped_nonpositive: int

    def drop_counts(self) -> dict:
        return {
            "rows": self.n_rows,
            "kept": len(self.samples),
            "dropped_crossed": self.dropped_crossed,
            "dropped_zero": self.dropped_zero,
            "dropped_nonpositive": self.dropped_nonpositive,
        }


def _sample_values(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        return samples.astype(float, copy=False)
    return np.asarray(
        [s.value if isinstance(s, SpreadSample) else float(s) for s in samples],
        dtype=float,
    )


def moment_init(values: np.ndarray) -> tuple[float, float]:
    """Moment-matching starting point for the optimizer.

    The second moment fixes xi1^2 + kappa1^2 = mean(Delta^2); the split is
    read off the sample coefficient of variation, interpolating between the
    Rayleigh (equal-scale) and half-normal (one scale vanishing) extremes.
    """
    m2 = float(np.mean(values**2))
    cv = float(np.std(values) / np.mean(values))
    span = _CV_HALF_NORMAL - _CV_RAYLEIGH
    ratio = (_CV_HALF_NORMAL - cv) / span
    ratio = min(1.0, max(0.05, ratio))
    xi1 = math.sqrt(m2 / (1.0 + ratio**2))
    return xi1, ratio * xi1


def fit_spread_params(
    samples,
    init: tuple[float, float] | None = None,
    max_iterations: int = 500,
) -> FitResult:
    """Maximum-likelihood estimate of (xi1, kappa1) from spread samples.

    ``samples`` may be :class:`SpreadSample` objects or plain positive
    floats; at least :data:`MIN_FIT_SAMPLES` are required. Optimizes the
    summed log-density with Nelder-Mead on (log xi1, log kappa1), converging
    at 1e-8 in log-likelihood; if the iteration cap is hit, the best point
    so far is returned with ``converged=False``.
    """
    values = _sample_values(samples)
    if values.size < MIN_FIT_SAMPLES:
        raise ValidationError(
            f"need at least {MIN_FIT_SAMPLES} spread samples, got {values.size}"
        )
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise ValidationError("spread samples must all be finite and > 0")

    if init is None:
        init = moment_init(values)
    xi1_0, kappa1_0 = init
    if xi1_0 <= 0 or kappa1_0 <= 0:
        raise ValidationError("initial parameters must be > 0")

    def negative_loglik(log_params):
        xi1, kappa1 = np.exp(log_params)
        law = SpreadLaw(xi1=float(xi1), kappa1=float(kappa1))
        return -float(np.sum(spread_log_pdf(values, law)))

    result = optimize.minimize(
        negative_loglik,
        x0=np.log([xi1_0, kappa1_0]),
        method="Nelder-Mead",
        options={"maxiter": max_iterations, "fatol": 1e-8, "xatol": 1e-6},
    )
    xi1_hat, kappa1_hat = np.exp(result.x)
    if kappa1_hat > xi1_hat:
        xi1_hat, kappa1_hat = kappa1_hat, xi1_hat
    return FitResult(
        xi1_hat=float(xi1_hat),
        kappa1_hat=float(kappa1_hat),
        loglik=-float(result.fun),
        n=int(values.size),
        converged=bool(result.success),
        iterations=int(result.nit),
    )


def spreads_from_quotes(rows) -> IngestResult:
    """Spread samples ask - bid from quote rows.

    Crossed rows (bid > ask), zero spreads (the law has zero density at zero,
    so they cannot enter the likelihood) and rows with nonpositive prices are
    dropped and counted rather than raising.
    """
    samples: list[SpreadSample] = []
    crossed = zero = nonpositive = 0
    n_rows = 0
    for row in rows:
        n_rows += 1
        if not (
            math.isfinite(row.bid) and math.isfinite(row.ask)
            and row.bid > 0 and row.ask > 0
        ):
            nonpositive += 1
            continue
        if row.bid > row.ask:
            crossed += 1
            continue
        if row.bid == row.ask:
            zero += 1
            continue
        samples.append(SpreadSample(value=row.ask - row.bid, timestamp=row.timestamp))
    return IngestResult(samples, n_rows, crossed, zero, nonpositive)


def spreads_from_ohlc(rows, mode: str = OHLC_MODE_ABSOLUTE) -> IngestResult:
    """Spread samples from OHLC bars: high - low, or (high - low)/close.

    The bar high stands in for the ask and the low for the bid. Bars with
    high < low are dropped as crossed; flat bars (high == low) give a zero
    range and are dropped like zero spreads; relative mode additionally
    requires close > 0.
    """
    if mode not in (OHLC_MODE_ABSOLUTE, OHLC_MODE_RELATIVE):
        raise ValidationError(f"unknown OHLC mode {mode!r}")
    samples: list[SpreadSample] = []
    crossed = zero = nonpositive = 0
    n_rows = 0
    for bar in rows:
        n_rows += 1
        if not (
            math.isfinite(bar.high) and math.isfinite(bar.low)
            and bar.high > 0 and bar.low > 0
        ):
            nonpositive += 1
            continue
        if mode == OHLC_MODE_RELATIVE and not (math.isfinite(bar.close) and bar.close > 0):
            nonpositive += 1
            continue
        if bar.high < bar.low:
            crossed += 1
            continue
        if bar.high == bar.low:
            zero += 1
            continue
        value = bar.high - bar.low
        if mode == OHLC_MODE_RELATIVE:
            value /= bar.close
        samples.append(SpreadSample(value=value, timestamp=bar.timestamp))
    return IngestResult(samples, n_rows, crossed, zero, nonpositive)


def _read_csv(path, expected_header: list[str], builder):
    """Shared CSV reader: UTF-8, comma-separated, '#' comment lines skipped."""
    out = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot open input file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header_seen = False
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if not header_seen:
                header = [cell.strip().lower() for cell in row]
                if header != expected_header:
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
                out.append(builder(row))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from exc
        if not header_seen:
            raise ValidationError(f"{path}: missing header row")
    return out


def read_quotes_csv(path) -> list[QuoteRecord]:
    """Read a quote CSV with header ``timestamp,bid,ask``."""
    return _read_csv(
        path,
        ["timestamp", "bid", "ask"],
        lambda row: QuoteRecord(row[0], float(row[1]), float(row[2])),
    )


def read_ohlc_csv(path) -> list[OhlcBar]:
    """Read an OHLC CSV with header ``timestamp,open,high,low,close``."""
    return _read_csv(
        path,
        ["timestamp", "open", "high", "low", "close"],
        lambda row: OhlcBar(row[0], float(row[1]), float(row[2]), float(row[3]), float(row[4])),
    )
