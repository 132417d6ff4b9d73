import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import fit_by_nelder_mead, spreads_by_row
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
from qcw import calibration
from qcw.calibration import _read_csv, _sum_psi_minus_phi


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


def test_series_and_bound_behind_the_profile_score():
    # phi(x) = 2x (1 - I1(x)/I0(x)). phi - 1 from the asymptotic series
    # matches scipy's i1e/i0e wherever those still resolve it, and
    # phi >= 1 + 1/(4x) from x = 1.5 on, which the search's bound relies on.
    x = np.geomspace(1.5, 1e12, 400)
    excess = np.array([-_sum_psi_minus_phi(np.array([v]), 0.0) for v in x])
    direct = 2.0 * x * (1.0 - special.i1e(x) / special.i0e(x)) - 1.0
    resolved = x <= 1e4
    assert np.allclose(excess[resolved], direct[resolved], rtol=1e-6, atol=0.0)
    assert np.all(excess >= 0.25 / x)


def assert_matches_oracle(values):
    fit = fit_spread_params(values)
    oracle = fit_by_nelder_mead(values)
    assert fit.converged and oracle.converged
    assert fit.loglik >= oracle.loglik - 1e-9 * abs(oracle.loglik)
    assert fit.xi1_hat == pytest.approx(oracle.xi1_hat, rel=1e-5)
    assert fit.kappa1_hat == pytest.approx(oracle.kappa1_hat, rel=1e-5)


@pytest.mark.parametrize("ratio", [1.0, 2.0, 20.0, 1000.0])
def test_matches_nelder_mead_oracle(ratio):
    assert_matches_oracle(synthetic_samples(0.10, 0.10 / ratio, 100_000, seed=5))


def test_matches_nelder_mead_oracle_on_criterion_7_sample():
    assert_matches_oracle(
        sample_spread(SpreadLaw(xi1=0.10, kappa1=0.05), np.random.default_rng(808), 100_000)
    )


def test_matches_nelder_mead_oracle_where_the_profile_has_two_maxima():
    # The score turns from + to - near b = 2^14.5 and again near 2^19.4;
    # the upper root is more likely by 0.4 in log-likelihood.
    assert_matches_oracle(synthetic_samples(0.10, 0.10 / 166.13644771613122, 1905,
                                            seed=629602011))


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e3), st.integers(50, 5000),
       st.integers(0, 2**32 - 1))
@example(11.0, 50, 74220740)  # mean(t^2) <= 2, yet b = 0 is not the best maximum
def test_at_least_as_likely_as_the_oracle(ratio, n, seed):
    values = synthetic_samples(0.10, 0.10 / ratio, n, seed)
    fit = fit_spread_params(values)
    oracle = fit_by_nelder_mead(values)
    tol = 1e-9 * abs(oracle.loglik)
    assert fit.loglik >= oracle.loglik - tol
    # With few samples against the ratio the profile can have several local
    # maxima; Nelder-Mead may stop on a lower one. On the same one the
    # estimates agree.
    if fit.loglik <= oracle.loglik + tol:
        assert fit.xi1_hat == pytest.approx(oracle.xi1_hat, rel=1e-5)
        assert fit.kappa1_hat == pytest.approx(oracle.kappa1_hat, rel=1e-5)


@pytest.mark.parametrize("values", [
    np.linspace(1.0, 2.0, 200),  # far less dispersed than any law with xi1 != kappa1
    synthetic_samples(0.10, 0.10, 100_000, seed=5),
])
def test_rayleigh_line_when_second_moment_is_at_most_two(values):
    t = values**2 / np.mean(values**2)
    assert np.mean(t * t) / 2.0 <= 1.0
    fit = fit_spread_params(values)
    assert fit.xi1_hat == fit.kappa1_hat
    assert fit.converged and fit.iterations == 0
    assert fit.xi1_hat**2 + fit.kappa1_hat**2 == pytest.approx(np.mean(values**2), rel=1e-12)


def test_init_does_not_change_the_fit():
    values = synthetic_samples(0.10, 0.05, 2000, seed=21)
    base = fit_spread_params(values)
    for init in ((0.10, 0.05), (1e-6, 1.0), (5.0, 5.0)):
        assert fit_spread_params(values, init=init) == base
    with pytest.raises(ValidationError):
        fit_spread_params(values, init=(0.1, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e3), st.integers(50, 5000),
       st.integers(0, 2**32 - 1), st.floats(min_value=-300.0, max_value=200.0))
@example(2.0, 5000, 23, 200.0)
@example(2.0, 5000, 23, -300.0)
@example(1.1012693428237699, 2199, 612659783, 127.44065526272294)  # near the Rayleigh line
def test_fit_is_scale_equivariant(ratio, n, seed, log10_c):
    c = 10.0**log10_c
    values = synthetic_samples(0.10, 0.10 / ratio, n, seed)
    fit = fit_spread_params(values)
    scaled = fit_spread_params(c * values)
    assert scaled.converged and fit.converged
    assert scaled.xi1_hat == pytest.approx(c * fit.xi1_hat, rel=1e-12)
    assert scaled.kappa1_hat == pytest.approx(c * fit.kappa1_hat, rel=1e-12)
    shifted = fit.loglik - n * math.log(c)
    assert scaled.loglik == pytest.approx(shifted, rel=1e-12)


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


# The fast path (np.loadtxt) against its oracle, _read_csv.

_READERS = (
    (read_quotes_csv, ["timestamp", "bid", "ask"], ("bid", "ask")),
    (read_ohlc_csv, ["timestamp", "open", "high", "low", "close"], ("high", "low", "close")),
)

_NUMBER = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: "%.17g" % x),
    st.tuples(st.sampled_from(["", " ", "\t", "  "]), st.floats().map(repr),
              st.sampled_from(["", " ", "\t "])).map("".join),
)
_ODD_CELL = st.sampled_from([
    ".5", "5.", "-.5e-3", "1_0", "\u0661.5", "1.5\u3000", "inf", "-inf", "+inf", "Infinity",
    "-iNF", "nan", "-nan", "+NaN", "1e400", "-0", "", " ", "\t", '"1.5"', '"1,5"', "1.5#c",
    "#1", "0x10", "1\x1f", "1\x0b", "\x001", "2019-06-03T09:30:00", "1,5",
])


def _mostly(common, rare, one_in):
    """``rare`` one time in ``one_in``, ``common`` otherwise: most generated
    files should parse, so that the fast path is taken and compared too."""
    return st.integers(0, one_in - 1).flatmap(lambda k: rare if k == 0 else common)


_JUNK = st.sampled_from([
    "", " ", "\t", "# comment", "  # indented, with commas", "#1,2,3", '# "quoted, comment',
])


@st.composite
def _csv_text(draw, header):
    fields = len(header)
    cells = _mostly(_NUMBER, _ODD_CELL, 30)
    row = _mostly(st.lists(cells, min_size=fields, max_size=fields),
                  st.lists(cells, max_size=fields + 2), 20).map(",".join)
    head = _mostly(st.just(",".join(header)), st.sampled_from([
        " " + ",".join(header).upper() + " ", ",".join(header[:-1]), ",".join(header) + ",x",
    ]), 4)
    lines = draw(st.lists(_JUNK, max_size=3)) + [draw(head)]
    lines += draw(st.lists(_mostly(row, _JUNK, 20), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _columns_or_error(read):
    try:
        return [column.tobytes() for column in read()]
    except ValidationError as exc:
        return str(exc)


_QUOTES = _READERS[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_READERS).flatmap(lambda r: st.tuples(st.just(r), _csv_text(r[1]))))
# Files on which a guard of the fast path decides; random texts rarely hit them.
@example((_QUOTES, 'timestamp,bid,ask\n"t,1,2\nx",3,4\n'))  # quoted cell over two lines
@example((_QUOTES, '# x,"a\ntimestamp,bid,ask\nt,1,2\n'))  # quote before the header
@example((_QUOTES, "#c\rtimestamp,bid,ask\rt,9,9\ntimestamp,bid,ask\nt,1,2\n"))  # bare CR
@example((_QUOTES, "timestamp,bid,ask\nt,1,2\rt,3,4\r\n\rt,5,6"))  # mixed line ends
@example((_QUOTES, "timestamp,bid,ask\nt,1\x1f,2\n"))  # whitespace to loadtxt only
@example((_QUOTES, "timestamp,bid,ask\nt,1,2,3\n"))  # extra field
@example((_QUOTES, "timestamp,bid,ask\n#1,2,3\nt,1,2\n"))  # comment line in the body
@example((_QUOTES, "timestamp,bid,ask\n\n"))  # no rows
@example((_QUOTES, "timestamp,bid,ask\nt," + "0" * 140_000 + "1.5,2\n"))  # csv field limit
@example((_QUOTES, "#" * 140_000 + "\ntimestamp,bid,ask\nt,1,2\n"))
def test_readers_equal_the_streaming_oracle(case):
    (reader, header, names), text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _columns_or_error(lambda: reader(path))
        want = _columns_or_error(
            lambda: _read_csv(path, header, dict.fromkeys(names, float)).values()
        )
    assert got == want


def _no_oracle(*args, **kwargs):
    raise AssertionError("fell back to _read_csv")


@pytest.mark.parametrize("text", [
    "timestamp,bid,ask\n1577836800,27.83,27.87\n1577836801,27.84,27.88\n",
    "timestamp,bid,ask\n2019-06-03T09:30:00,27.83,27.87\n2019-06-03T09:30:01,27.84,27.88\n",
    "timestamp,bid,ask\r\nt0,27.83,27.87\r\nt1,27.84,27.88\r\n",
    "# source: test\n\n  # more, with commas\nTimestamp, Bid ,ASK\nt0,27.83,27.87\nt1,27.84,27.88\n",
    "timestamp,bid,ask\nt0,27.83,27.87\nt1,27.84,27.88",
], ids=["numeric-time", "iso-time", "crlf", "comments-before-header", "no-final-newline"])
def test_fast_path_is_taken(tmp_path, monkeypatch, text):
    path = tmp_path / "quotes.csv"
    path.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(calibration, "_read_csv", _no_oracle)
    bid, ask = read_quotes_csv(path)
    assert bid.dtype == ask.dtype == np.float64
    assert (bid.tolist(), ask.tolist()) == ([27.83, 27.84], [27.87, 27.88])

    path.write_text("timestamp,open,high,low,close\n2019-02-25,300.0,305.0,298.0,301.0\n",
                    encoding="utf-8")
    high, low, close = read_ohlc_csv(path)
    assert (high.tolist(), low.tolist(), close.tolist()) == ([305.0], [298.0], [301.0])


def test_header_only_file_reads_empty_without_warning(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text("timestamp,bid,ask\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bid, ask = read_quotes_csv(path)
    assert bid.dtype == ask.dtype == np.float64
    assert bid.size == ask.size == 0
