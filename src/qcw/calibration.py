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
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import ValidationError
from .spread_stats import SpreadLaw, spread_log_pdf

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

# Coefficient of variation of the spread at the two parameter extremes:
# equal scales give a Rayleigh law, a vanishing scale gives a half-normal.
_CV_RAYLEIGH = math.sqrt(4.0 / math.pi - 1.0)
_CV_HALF_NORMAL = math.sqrt(math.pi / 2.0 - 1.0)


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

    ``samples`` is any array-like of positive floats; at least
    :data:`MIN_FIT_SAMPLES` are required. Optimizes the
    summed log-density with Nelder-Mead on (log xi1, log kappa1), converging
    at 1e-8 in log-likelihood; if the iteration cap is hit, the best point
    so far is returned with ``converged=False``.
    """
    values = np.asarray(samples, dtype=float)
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


def read_quotes_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a quote CSV with header ``timestamp,bid,ask``; returns ``bid, ask``."""
    cols = _read_csv(path, ["timestamp", "bid", "ask"], {"bid": float, "ask": float})
    return cols["bid"], cols["ask"]


def read_ohlc_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read an OHLC CSV with header ``timestamp,open,high,low,close``;
    returns ``high, low, close``."""
    cols = _read_csv(
        path,
        ["timestamp", "open", "high", "low", "close"],
        {"high": float, "low": float, "close": float},
    )
    return cols["high"], cols["low"], cols["close"]
