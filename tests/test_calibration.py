import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import spreads_by_row
from qcw import (
    FitResult,
    SpreadLaw,
    ValidationError,
    fit_spread_params,
    read_ohlc_csv,
    read_quotes_csv,
    sample_spread,
    spread_log_pdf,
    spreads_from_ohlc,
    spreads_from_quotes,
)


def synthetic_samples(xi1, kappa1, n, seed):
    return sample_spread(SpreadLaw(xi1=xi1, kappa1=kappa1), np.random.default_rng(seed), n)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_recovers_generating_parameters():
    fit = fit_spread_params(synthetic_samples(0.10, 0.05, 100_000, seed=5))
    assert fit.converged
    assert fit.xi1_hat >= fit.kappa1_hat
    assert abs(fit.xi1_hat - 0.10) / 0.10 < 0.05
    assert abs(fit.kappa1_hat - 0.05) / 0.05 < 0.05
    assert math.isfinite(fit.loglik)
    assert fit.n == 100_000


def test_recovers_rayleigh_case():
    fit = fit_spread_params(synthetic_samples(0.08, 0.08, 50_000, seed=7))
    assert abs(fit.xi1_hat - 0.08) / 0.08 < 0.05
    assert abs(fit.kappa1_hat - 0.08) / 0.08 < 0.05


def test_accepts_float_lists_and_arrays():
    values = synthetic_samples(0.1, 0.06, 500, seed=9)
    fit_a = fit_spread_params([float(v) for v in values])
    fit_b = fit_spread_params(values)
    assert fit_a == fit_b


def test_sample_count_gate():
    with pytest.raises(ValidationError):
        fit_spread_params(synthetic_samples(0.1, 0.05, 10, seed=1))


def test_rejects_nonpositive_samples():
    values = list(synthetic_samples(0.1, 0.05, 100, seed=2))
    for bad in (-0.01, 0.0, math.inf, math.nan):
        values[3] = bad
        with pytest.raises(ValidationError):
            fit_spread_params(values)


def test_loglik_symmetric_under_parameter_swap():
    rng = np.random.default_rng(11)
    values = synthetic_samples(0.1, 0.05, 200, seed=3)
    for _ in range(20):
        xi1, kappa1 = rng.uniform(0.01, 0.5, 2)
        ll_a = float(np.sum(spread_log_pdf(values, SpreadLaw(xi1=xi1, kappa1=kappa1))))
        ll_b = float(np.sum(spread_log_pdf(values, SpreadLaw(xi1=kappa1, kappa1=xi1))))
        assert ll_a == ll_b


def test_error_shrinks_like_root_n():
    reps = 5
    rms = {}
    for n in (1000, 10_000, 100_000):
        errs = []
        for r in range(reps):
            fit = fit_spread_params(synthetic_samples(0.10, 0.05, n, seed=1000 * r + n))
            errs.append(
                ((fit.xi1_hat - 0.10) / 0.10) ** 2 + ((fit.kappa1_hat - 0.05) / 0.05) ** 2
            )
        rms[n] = math.sqrt(np.mean(errs))
    step = math.sqrt(10.0)
    for big, small in ((1000, 10_000), (10_000, 100_000)):
        ratio = rms[big] / rms[small]
        assert step / 2.0 < ratio < step * 2.0


def test_moment_sanity_at_optimum():
    values = synthetic_samples(0.10, 0.05, 50_000, seed=13)
    fit = fit_spread_params(values)
    m2 = float(np.mean(values**2))
    assert abs(fit.xi1_hat**2 + fit.kappa1_hat**2 - m2) < 0.10 * m2


def test_nonconvergence_is_reported_not_raised():
    fit = fit_spread_params(synthetic_samples(0.1, 0.05, 1000, seed=17), max_iterations=3)
    assert isinstance(fit, FitResult)
    assert not fit.converged
    assert fit.iterations <= 3
    assert fit.xi1_hat > 0 and fit.kappa1_hat > 0


# ---------------------------------------------------------------------------
# quote ingestion
# ---------------------------------------------------------------------------

def test_quote_spread_example():
    result = spreads_from_quotes([27.83], [27.87])
    assert result.values.shape == (1,)
    assert result.values[0] == pytest.approx(0.04, abs=1e-12)


def test_quote_drop_rules():
    bid = [27.83, 27.85, 27.90, -1.0, 27.80]
    ask = [27.87, 27.85, 27.80, 27.80, math.nan]
    # kept, zero spread, crossed, nonpositive, non-finite
    result = spreads_from_quotes(bid, ask)
    assert result.values.size == 1
    assert result.n_rows == 5
    assert result.dropped_zero == 1
    assert result.dropped_crossed == 1
    assert result.dropped_nonpositive == 2
    counts = result.drop_counts()
    assert counts["kept"] == 1 and counts["rows"] == 5


# ---------------------------------------------------------------------------
# OHLC ingestion
# ---------------------------------------------------------------------------

def test_ohlc_relative_example():
    result = spreads_from_ohlc([102.0], [100.0], [101.0], mode="relative")
    assert result.values[0] == pytest.approx(2.0 / 101.0, abs=1e-12)


def test_ohlc_absolute_and_drop_rules():
    high = [102.0, 100.0, 99.0]
    low = [100.0, 100.0, 100.0]
    close = [101.0, 100.5, 100.0]
    # kept, flat bar, inverted
    result = spreads_from_ohlc(high, low, close, mode="absolute")
    assert result.values.size == 1
    assert result.values[0] == pytest.approx(2.0, abs=1e-15)
    assert result.dropped_zero == 1
    assert result.dropped_crossed == 1
    with pytest.raises(ValidationError):
        spreads_from_ohlc(high, low, close, mode="percentage")


def test_ohlc_relative_requires_positive_close():
    result = spreads_from_ohlc([2.0], [1.0], [0.0], mode="relative")
    assert result.dropped_nonpositive == 1 and result.values.size == 0


_PRICE = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1.0]),
    st.floats(min_value=0.5, max_value=2.0),
    st.floats(),
)
_ROW = st.one_of(
    st.tuples(_PRICE, _PRICE, _PRICE),
    st.builds(lambda price, close: (price, price, close), _PRICE, _PRICE),  # equal prices
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ROW, max_size=40))
def test_masked_extraction_matches_row_oracle(rows):
    low, high, close = np.array(rows, dtype=float).reshape(-1, 3).T
    for result, denom in (
        (spreads_from_quotes(low, high), None),
        (spreads_from_ohlc(high, low, close, mode="absolute"), None),
        (spreads_from_ohlc(high, low, close, mode="relative"), close),
    ):
        values, n_rows, crossed, zero, nonpositive = spreads_by_row(low, high, denom)
        assert result.values.dtype == np.float64
        assert result.values.tobytes() == np.array(values, dtype=float).tobytes()
        assert (result.n_rows, result.dropped_crossed, result.dropped_zero,
                result.dropped_nonpositive) == (n_rows, crossed, zero, nonpositive)


# ---------------------------------------------------------------------------
# CSV readers
# ---------------------------------------------------------------------------

def test_read_quotes_csv(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(
        "# comment line\ntimestamp,bid,ask\n2019-06-03T09:30:00,27.83,27.87\n"
        "2019-06-03T09:30:01,27.84,27.88\n",
        encoding="utf-8",
    )
    bid, ask = read_quotes_csv(path)
    assert bid.dtype == ask.dtype == np.float64
    assert bid.tolist() == [27.83, 27.84]
    assert ask.tolist() == [27.87, 27.88]


def test_read_quotes_csv_reports_bad_row_number(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text("timestamp,bid,ask\nt0,27.83,27.87\nt1,oops,27.88\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 3"):
        read_quotes_csv(path)


def test_read_quotes_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text("time,bid,ask\nt0,1.0,1.1\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="header"):
        read_quotes_csv(path)


def test_read_quotes_csv_rejects_short_row(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text("timestamp,bid,ask\nt0,1.0\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 2"):
        read_quotes_csv(path)


def test_read_ohlc_csv(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text(
        "timestamp,open,high,low,close\n2019-02-25,300.0,305.0,298.0,301.0\n",
        encoding="utf-8",
    )
    high, low, close = read_ohlc_csv(path)
    assert (high.tolist(), low.tolist(), close.tolist()) == ([305.0], [298.0], [301.0])


def test_read_csv_missing_file():
    with pytest.raises(ValidationError):
        read_quotes_csv("/nonexistent/quotes.csv")


def test_read_csv_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_bytes(b"timestamp,bid,ask\nt0,1.0,\xff2.0\n")
    with pytest.raises(ValidationError, match="quotes.csv"):
        read_quotes_csv(path)


_JUNK_LINE = st.sampled_from(["", "# comment", "  # indented, with commas"])


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.tuples(st.lists(_JUNK_LINE, max_size=2),
              st.tuples(*[st.floats(allow_nan=False)] * 4)),
    max_size=30,
))
def test_csv_round_trip_is_bit_exact(rows):
    lines = ["# written by the test", "timestamp,open,high,low,close"]
    for k, (junk, prices) in enumerate(rows):
        lines += junk
        lines.append(",".join([f"t{k}", *map(repr, prices)]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bars.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        high, low, close = read_ohlc_csv(path)
    for got, column in zip((high, low, close), (1, 2, 3)):
        want = np.array([prices[column] for _, prices in rows], dtype=float)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
