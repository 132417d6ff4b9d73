import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from oracles import (
    fit_by_nelder_mead,
    root_by_brentq,
    root_by_scored_newton,
    score_is_negative_by_bessel,
    spreads_by_row,
)
from test_golden import _write_repr_quotes
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
from qcw import calibration, float_text
from qcw.calibration import (
    _I0_SERIES,
    _PHI_EXCESS_SERIES,
    _X_PHI_SLOPE_SERIES,
    _horner,
    _profile_score,
    _ratio_upper,
    _read_csv,
    _sum_psi_minus_phi,
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


def test_nonconvergence_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(calibration, "_MAX_ITERATIONS", 1)
    fit = fit_spread_params(synthetic_samples(0.1, 0.05, 1000, seed=17))
    assert isinstance(fit, FitResult)
    assert not fit.converged
    assert fit.iterations <= 1
    assert fit.xi1_hat > 0 and fit.kappa1_hat > 0


def test_max_iterations_must_be_nonnegative(monkeypatch):
    # a cap of 0 scored steps solves no root
    monkeypatch.setattr(calibration, "_MAX_ITERATIONS", 0)
    assert not fit_spread_params(synthetic_samples(0.1, 0.05, 1000, seed=17)).converged


def test_ratio_upper_bounds_the_bessel_ratio():
    # The search's first bound replaces I1/I0 below x = 1.5 by a polynomial
    # with a relative margin; it must stay above scipy's ratio there, down
    # to the subnormals.
    x = np.concatenate([
        np.linspace(0.0, 1.5, 1_000_001)[:-1],
        np.geomspace(5e-324, 1.5, 200_001)[:-1],
        np.arange(1, 1000) * 5e-324,
    ])
    assert np.all(_ratio_upper(x) >= special.i1e(x) / special.i0e(x))


@pytest.mark.parametrize("series", [_PHI_EXCESS_SERIES, _I0_SERIES, _X_PHI_SLOPE_SERIES],
                         ids=["phi_excess", "i0", "x_phi_slope"])
def test_horner_is_bitwise_polyval(series):
    y = np.concatenate([1.0 / np.geomspace(50.0, 1e300, 2001),
                        1.0 / np.random.default_rng(7).uniform(50.0, 1e4, 2000), [0.0]])
    assert _horner(series, y).tobytes() == np.polyval(series, y).tobytes()


# The search's bound checks first try a Bessel-free bound and then the
# Bessel bound of the oracle. The first may only save Bessel passes: where it
# proves a negative score the oracle does too, and the fit is bitwise the
# oracle-driven one.
@settings(max_examples=80, deadline=None)
@given(log_ratio=st.floats(0.0, 4.0), n=st.integers(50, 20_000), seed=st.integers(0, 2**32 - 1))
@example(log_ratio=math.log10(2.0), n=20_000, seed=5)
@example(log_ratio=math.log10(20.0), n=20_000, seed=5)
def test_bound_check_matches_bessel_oracle(log_ratio, n, seed):
    values = synthetic_samples(0.10, 0.10 / 10.0**log_ratio, n, seed)
    check = calibration._score_is_negative

    def spy(beta, t, tail_inv):
        negative = check(beta, t, tail_inv)
        assert not negative or score_is_negative_by_bessel(beta, t, tail_inv), beta
        return negative

    try:
        calibration._score_is_negative = spy
        fit = fit_spread_params(values)
        calibration._score_is_negative = score_is_negative_by_bessel
        oracle = fit_spread_params(values)
    finally:
        calibration._score_is_negative = check
    assert repr(fit) == repr(oracle)


def test_series_and_bound_behind_the_profile_score():
    # phi(x) = 2x (1 - I1(x)/I0(x)). phi - 1 from the asymptotic series
    # matches scipy's i1e/i0e wherever those still resolve it, and
    # phi >= 1 + 1/(4x) from x = 1.5 on, which the search's bound relies on.
    x = np.geomspace(1.5, 1e12, 400)
    excess = np.array([-_sum_psi_minus_phi(np.array([v]), 0.0)[0] for v in x])
    direct = 2.0 * x * (1.0 - special.i1e(x) / special.i0e(x)) - 1.0
    resolved = x <= 1e4
    assert np.allclose(excess[resolved], direct[resolved], rtol=1e-6, atol=0.0)
    assert np.all(excess >= 0.25 / x)


def scale_free(values):
    """The sorted t = (d/s)^2 / mean((d/s)^2), s = max(d), that the fit solves on."""
    t = (values / values.max()) ** 2
    return np.sort(t / t.mean())


def central_difference(f, x, h=1e-5):
    return (f(x * (1.0 + h)) - f(x * (1.0 - h))) / (2.0 * h * x)


def test_slope_behind_the_profile_score():
    # x phi'(x), from the Bessel ratio below x = 50 and the series above; it
    # changes sign near x = 1.7.
    total = lambda v: _sum_psi_minus_phi(np.array([v]), 0.0)[0]  # noqa: E731
    for x in np.geomspace(1e-3, 1e12, 61):
        slope = _sum_psi_minus_phi(np.array([x]), 0.0)[1]
        expected = -x * central_difference(total, x)
        assert slope == pytest.approx(expected, rel=1e-6, abs=1e-8 * min(x, 1.0 / x)), x


@pytest.mark.parametrize("beta", [1e-6, 0.3, 0.9, 1.5, 40.0, 3000.0])
def test_slope_of_the_profile_score(beta):
    # Both forms of the score; at 40 and 3000 most samples are on the series.
    t = scale_free(synthetic_samples(0.10, 0.10 / 30.0, 2000, seed=41))
    slope = _profile_score(beta, t)[1]
    score = lambda b: _profile_score(b, t)[0]  # noqa: E731
    assert slope == pytest.approx(central_difference(score, beta), rel=1e-6)


def solved_brackets(values, max_iterations=calibration._MAX_ITERATIONS):
    """Each (score, lo, hi, root, iterations, converged) the fit of
    ``values`` solves in at most ``max_iterations`` scored steps a root. The
    cap is set by hand, since hypothesis runs every example inside one
    function-scoped monkeypatch."""
    solved, solve, cap = [], calibration._bracketed_root, calibration._MAX_ITERATIONS

    def spy(score, lo, hi):
        root, iterations, converged = solve(score, lo, hi)
        solved.append((score, lo, hi, root, iterations, converged))
        return root, iterations, converged

    calibration._bracketed_root, calibration._MAX_ITERATIONS = spy, max_iterations
    try:
        fit = fit_spread_params(values)
    finally:
        calibration._bracketed_root, calibration._MAX_ITERATIONS = solve, cap
    return fit, solved


# Scale ratios whose roots are mostly solved on one form of the score: the
# b <= 1 form, the b > 1 form with every b t below the series point, and the
# b > 1 form with samples on the series.
@pytest.mark.parametrize("ratios, sizes, branch", [
    ((1.4, 1.8), (500, 5000), lambda root, t: root <= 1.0),
    ((2.2, 3.0), (200, 2000), lambda root, t: 1.0 < root and root * t[-1] < 50.0),
    ((20.0, 300.0), (200, 5000), lambda root, t: root * t[-1] >= 50.0),
], ids=["b_at_most_1", "b_above_1", "series"])
@settings(max_examples=15, deadline=None)
@given(where=st.floats(0.0, 1.0), size=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(where=1.0, size=0.0, seed=3147354)  # one scored step converges at 1.8:1
def test_root_matches_brent_oracle(ratios, sizes, branch, where, size, seed):
    n = int(sizes[0] + size * (sizes[1] - sizes[0]))
    values = synthetic_samples(0.10, 0.10 / (ratios[0] + where * (ratios[1] - ratios[0])), n, seed)
    fit, solved = solved_brackets(values)
    assert fit.converged
    for score, lo, hi, root, _, _ in solved:
        assert lo <= root <= hi
        assert root == pytest.approx(root_by_brentq(lambda b: score(b)[0], lo, hi), rel=1e-12)
    # Capped at 1 scored step, a bracket converges exactly where its uncapped
    # solve needed at most one, and then at the same root.
    capped, solved_once = solved_brackets(values, max_iterations=1)
    assert len(solved_once) == len(solved)
    for (*_, root, used, _), (*_, capped_root, _, done) in zip(solved, solved_once):
        assert done == (used <= 1)
        if done:
            assert capped_root == root
    assert capped.converged == all(done for *_, done in solved_once)
    # Count the example only where a root is on the branch under test.
    t = scale_free(values)
    assume(any(branch(root, t) for _, _, _, root, _, _ in solved))


def counted(score, calls):
    def f(beta):
        calls.append(beta)
        return score(beta)
    return f


# The fit takes the last Newton step of each root without scoring it. Against
# the rule that scores every step, it may only save scores: same convergence,
# the same root to the Brent test's tolerance, and never outside the bracket.
@settings(max_examples=100, deadline=None)
@given(log_ratio=st.floats(0.0, 4.0), n=st.integers(50, 20_000), seed=st.integers(0, 2**32 - 1))
@example(log_ratio=math.log10(2.0), n=20_000, seed=5)
@example(log_ratio=math.log10(20.0), n=20_000, seed=5)
def test_unscored_last_step_matches_scored_newton_oracle(log_ratio, n, seed):
    values = synthetic_samples(0.10, 0.10 / 10.0**log_ratio, n, seed)
    _, solved = solved_brackets(values)
    for score, lo, hi, root, _, converged in solved:
        calls, oracle_calls = [], []
        assert calibration._bracketed_root(counted(score, calls), lo, hi) == (
            root, len(calls) - 2, converged)
        oracle_root, _, oracle_converged = root_by_scored_newton(
            counted(score, oracle_calls), lo, hi, calibration._MAX_ITERATIONS)
        assert len(calls) <= len(oracle_calls)
        assert converged == oracle_converged
        assert lo <= root <= hi
        assert root == pytest.approx(oracle_root, rel=1e-12)


def test_unscored_step_is_taken_only_inside_the_bracket():
    # The root is 1.25. The slope at 1 is a little off, so the first step
    # stops short of the root, at a positive score; there the slope has the
    # wrong sign, and the tiny step it gives would leave the bracket.
    def score(beta):
        slope = -1.0 / (1.0 - 4e-6) if beta == 1.0 else (1e3 if 1.2 < beta < 1.25 else -1.0)
        return 1.25 - beta, slope

    solved = calibration._bracketed_root(score, 1.0, 2.0)
    assert solved == root_by_scored_newton(score, 1.0, 2.0, calibration._MAX_ITERATIONS) == (
        1.25, 4, True)


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
    for content in (
        b"timestamp,bid,ask\nt0,1.0,\xff2.0\n",
        # in the header line or a comment before it, where the numpy path
        # hands the file to the streaming reader
        b"timestamp,bid,ask\xff\n1,100.0,100.1\n",
        b"# c\xff\ntimestamp,bid,ask\n1,100.0,100.1\n",
    ):
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="quotes.csv: unreadable CSV"):
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


# The numpy path against its oracle, _read_csv.

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
@example((_QUOTES, "timestamp,bid,ask\nt,1\x1f,2\n"))  # whitespace to float(str) only
@example((_QUOTES, "timestamp,bid,ask\nt,1,2,3\n"))  # extra field
@example((_QUOTES, "timestamp,bid,ask\nt,1\n1,1,2,3\n"))  # a short and a long row
@example((_QUOTES, "timestamp,bid,ask\nt\n1,2\n"))  # two short rows with a row's commas
@example((_QUOTES, "timestamp,bid,ask\nt,1\r,2\n"))  # a bare CR that float() strips
@example((_QUOTES, "timestamp,bid,ask\n#1,2,3\nt,1,2\n"))  # comment line in the body
@example((_QUOTES, "timestamp,bid,ask\n\n"))  # no rows
@example((_QUOTES, "timestamp,bid,ask\nt," + "0" * 140_000 + "1.5,2\n"))  # csv field limit
@example((_QUOTES, "#" * 140_000 + "\ntimestamp,bid,ask\nt,1,2\n"))
@example((_QUOTES, "timestamp,bid,ask\n" + "1577836800,100.5,100.75\n" * 12_000))  # past a chunk
@example((_QUOTES, "timestamp,bid,ask\nt,12345678901234567890,2\n"))  # 20 digits
@example((_QUOTES, "timestamp,bid,ask\nt,1,.\n"))  # a lone dot
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
    "timestamp,bid,ask\nt0,2.783e1,2787E-2\nt1,2.784E+01,27.88e0\n",
    "timestamp,bid,ask\nt0, 27.83,27.87 \nt1,  27.84\t,\t27.88\n",
], ids=["numeric-time", "iso-time", "crlf", "comments-before-header", "no-final-newline",
        "exponents", "space-padded"])
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


@pytest.mark.parametrize("chunk", [7, 64, 4096])
@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_READERS).flatmap(lambda r: st.tuples(st.just(r), _csv_text(r[1]))))
@example(case=(_QUOTES, "timestamp,bid,ask\r\nt,1.25,2.5\r\nt,3.5,4.75\r\n\r\nt,5,6\r\n"))
@example(case=(_QUOTES, "timestamp,bid,ask\nt,1.25,2.5\n\nt,3.5,4.75"))  # no final LF
@example(case=(_QUOTES, "timestamp,bid,ask\n" + "t" * 140_000 + ",1,2\n"))  # csv's field limit
def test_reading_does_not_depend_on_the_chunk_size(chunk, case):
    (reader, _, _), text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _columns_or_error(lambda: reader(path))
        with mock.patch.object(calibration, "_CHUNK_BYTES", chunk):
            got = _columns_or_error(lambda: reader(path))
    assert got == want


@pytest.mark.parametrize("chunk", [7, 64, 4096])
def test_chunks_are_cut_at_line_ends_in_numpy(tmp_path, monkeypatch, chunk):
    path = tmp_path / "quotes.csv"
    _write_repr_quotes(path, 2000)
    want = _read_csv(path, ["timestamp", "bid", "ask"], {"bid": float, "ask": float})
    monkeypatch.setattr(calibration, "_CHUNK_BYTES", chunk)
    monkeypatch.setattr(calibration, "_read_csv", _no_oracle)
    for body in (path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n")[:-2]):
        path.write_bytes(body)  # LF, then CRLF with no line end at the end
        bid, ask = read_quotes_csv(path)
        assert (bid.tobytes(), ask.tobytes()) == (want["bid"].tobytes(), want["ask"].tobytes())


@pytest.mark.parametrize("chunk", [7, 4096, 1 << 18])
def test_over_limit_timestamp_raises_the_streaming_error(tmp_path, monkeypatch, chunk):
    path = tmp_path / "quotes.csv"
    path.write_text("timestamp,bid,ask\nt,1,2\n" + "9" * 140_000 + ",1,2\n", encoding="utf-8")
    monkeypatch.setattr(calibration, "_CHUNK_BYTES", chunk)
    with pytest.raises(ValidationError, match="field larger than field limit"):
        read_quotes_csv(path)


# The numpy cell parser against float(), cell by cell.

def _cells_text(cells):
    """``cells`` one to a line after the 24 zero bytes that pad each chunk,
    with the end and the length of each."""
    body = "".join(cell + "\n" for cell in cells).encode("ascii")
    text = np.frombuffer(bytes(24) + body, np.uint8)
    end = np.flatnonzero(text[24:] == ord("\n"))
    return text, end, np.diff(end, prepend=-1) - 1


_DIGITS = st.text("0123456789", max_size=21)
_CELL = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=0.0).map(lambda x: "%.17g" % x),
    st.tuples(st.sampled_from(["", "-", "+"]), _DIGITS, st.sampled_from(["", "."]),
              _DIGITS).map("".join),
    st.text("0123456789.-+eE_ \t", max_size=26),
)
_FLOAT_CELLS = [
    "9007199254740993", "9007199254740993.0", "0.5", "0.125", "1024.0", "1234567890123456789",
    "12345678901234567890", ".5", "5.", ".", "-", "-0", "-0.0", "007.5", "1e-05", " 27.83",
    "94.76572718746066215", "-945.3254248583684216",  # a long double rounds to a midpoint
]


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL, min_size=1, max_size=40), st.booleans())
@example(_FLOAT_CELLS, True)
@example(_FLOAT_CELLS, False)
@example(["0.1000000000000000055511151231257827", "100.02954940902025", "-99.9"], True)
def test_numpy_cells_are_bitwise_float(cells, long_division):
    text, end, length = _cells_text(cells)
    with mock.patch.object(float_text, "_LONG_DIVISION",
                           long_division and float_text._LONG_DIVISION):
        values, fast = float_text._decimal_cells(text, end, length)
        read = float_text._float_cells(text, end, length)
    for cell, value, taken in zip(cells, values.tolist(), fast.tolist()):
        if taken:
            assert np.float64(value).tobytes() == np.float64(float(cell)).tobytes(), cell
    try:
        want = np.array([float(cell) for cell in cells])
    except ValueError:
        assert read is None
    else:
        assert read.tobytes() == want.tobytes()


@pytest.mark.parametrize("long_division", [True, False])
def test_numpy_cells_leave_only_the_unproven_to_float(monkeypatch, long_division):
    monkeypatch.setattr(float_text, "_LONG_DIVISION", long_division and float_text._LONG_DIVISION)
    text, end, length = _cells_text(_FLOAT_CELLS)
    _, fast = float_text._decimal_cells(text, end, length)
    one_by_one = {cell for cell, taken in zip(_FLOAT_CELLS, fast.tolist()) if not taken}
    unproven = {"12345678901234567890", ".", "-", "1e-05", " 27.83"}
    # 2^53 + 1 is a float64 midpoint, and so are the long double quotients
    # of the last two; M >= 2^53 is past Clinger's fast path too
    unproven |= {"9007199254740993", "9007199254740993.0", "94.76572718746066215",
                 "-945.3254248583684216"}
    if not float_text._LONG_DIVISION:
        unproven.add("1234567890123456789")
    assert one_by_one == unproven
