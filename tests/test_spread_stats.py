import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import qcw
from qcw import (
    Histogram,
    SpreadCdfCache,
    SpreadLaw,
    ValidationError,
    bessel_i0_scaled,
    ks_distance,
    sample_spread,
    spread_cdf,
    spread_log_pdf,
    spread_pdf,
)

from oracles import (
    cdf_by_simpson,
    i0_quadrature,
    i0_scaled_quadrature,
    rayleigh_cdf,
    rayleigh_pdf,
)

# Laws with scales from 1e-3 to 1e3 and ratios up to 100:1, either way round.
scales = st.floats(min_value=1e-3, max_value=1e3)
ratios = st.floats(min_value=1.0, max_value=100.0)
laws = st.builds(
    lambda s, q, swap: SpreadLaw(xi1=s / q, kappa1=s) if swap else SpreadLaw(xi1=s, kappa1=s / q),
    scales, ratios, st.booleans(),
)


# ---------------------------------------------------------------------------
# Bessel I0
# ---------------------------------------------------------------------------

def test_i0_at_zero():
    assert bessel_i0_scaled(0.0) == 1.0


def test_i0_at_one():
    assert bessel_i0_scaled(1.0) * math.e == pytest.approx(1.2660658778, abs=5e-11)
    assert bessel_i0_scaled(1.0) * math.e == pytest.approx(scipy.special.i0(1.0), rel=1e-14)


def test_i0_at_ten_vs_integral_representation():
    i0_ten = bessel_i0_scaled(10.0) * math.exp(10.0)
    assert i0_ten == pytest.approx(i0_quadrature(10.0, n_nodes=129), rel=1e-10)


def test_i0_sweep_against_quadrature_and_scipy():
    xs = np.concatenate(
        [
            [0.0, 1e-8, 1e-3],
            np.linspace(0.5, 14.0, 28),
            np.linspace(14.0, 16.0, 41),  # dense around the series/asymptotic switch
            np.linspace(17.0, 690.0, 60),
        ]
    )
    mine = bessel_i0_scaled(xs)
    for x, value in zip(xs, mine):
        assert value == pytest.approx(i0_scaled_quadrature(float(x)), rel=1e-10)
    assert np.max(np.abs(mine / scipy.special.i0e(xs) - 1.0)) < 1e-12


def test_i0_even_and_monotone():
    xs = np.linspace(0.0, 40.0, 400)
    vals = bessel_i0_scaled(xs) * np.exp(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert bessel_i0_scaled(-3.2) == bessel_i0_scaled(3.2)
    scaled = bessel_i0_scaled(np.linspace(0.0, 700.0, 200))
    assert np.all((scaled > 0.0) & (scaled <= 1.0))


def test_i0_rejects_non_finite():
    with pytest.raises(ValidationError):
        bessel_i0_scaled(math.nan)


@given(st.floats(min_value=0.0, max_value=1e300), st.floats(min_value=0.0, max_value=1e300))
def test_i0_scaled_bounded_and_nonincreasing(x, y):
    lo, hi = sorted((x, y))
    f_lo, f_hi = bessel_i0_scaled(lo), bessel_i0_scaled(hi)
    assert 0.0 < f_hi <= 1.0 and 0.0 < f_lo <= 1.0
    # scipy's Chebyshev pieces meet one ulp out of order at x = 8
    assert f_hi <= f_lo * (1.0 + 1e-15)


# ---------------------------------------------------------------------------
# spread law density
# ---------------------------------------------------------------------------

def test_law_validation_and_derived_coefficients():
    law = SpreadLaw(xi1=0.1, kappa1=0.05)
    assert law.a == pytest.approx(0.25 * (1 / 0.1**2 + 1 / 0.05**2), rel=1e-15)
    assert law.b == pytest.approx(0.25 * (1 / 0.1**2 - 1 / 0.05**2), rel=1e-15)
    assert law.a > 0 and abs(law.b) < law.a
    for bad in (0.0, -0.1, math.nan):
        with pytest.raises(ValidationError):
            SpreadLaw(xi1=bad, kappa1=0.05)


@pytest.mark.parametrize("bad", [10**400, True, math.nan], ids=["huge_int", "bool", "nan"])
@pytest.mark.parametrize("name", ["xi1", "kappa1"])
def test_law_scales_must_be_finite_numbers(name, bad):
    with pytest.raises(ValidationError, match=f"{name} must be a finite positive number"):
        SpreadLaw(**dict({"xi1": 0.1, "kappa1": 0.05}, **{name: bad}))


@pytest.mark.parametrize(
    "xi1, kappa1, a, b",
    [
        (1e199, 5e198, 0.0, -0.0),  # the squared reciprocals underflow
        (1e-300, 5e-301, math.inf, -math.inf),  # ... and overflow
        (1e-300, 1e-100, math.inf, math.inf),
    ],
)
def test_law_coefficients_at_extreme_magnitudes(xi1, kappa1, a, b):
    law = SpreadLaw(xi1=xi1, kappa1=kappa1)
    assert (law.a, math.copysign(1.0, law.a)) == (a, math.copysign(1.0, a))
    assert (law.b, math.copysign(1.0, law.b)) == (b, math.copysign(1.0, b))


def test_pdf_vanishes_at_zero_and_below():
    law = SpreadLaw(xi1=0.1, kappa1=0.07)
    assert spread_pdf(0.0, law) == 0.0
    assert spread_pdf(-0.5, law) == 0.0
    assert spread_log_pdf(0.0, law) == -math.inf


def test_equal_scales_reduce_to_rayleigh():
    s = 0.08
    law = SpreadLaw(xi1=s, kappa1=s)
    assert law.b == 0.0
    xs = np.linspace(1e-6, 6 * s, 100)
    assert np.max(np.abs(spread_pdf(xs, law) / rayleigh_pdf(xs, s) - 1.0)) < 1e-12


def test_pdf_symmetric_under_parameter_swap():
    rng = np.random.default_rng(71)
    for _ in range(20):
        xi1, kappa1 = rng.uniform(0.01, 0.5, 2)
        xs = np.linspace(1e-4, 1.0, 200)
        p1 = spread_pdf(xs, SpreadLaw(xi1=xi1, kappa1=kappa1))
        p2 = spread_pdf(xs, SpreadLaw(xi1=kappa1, kappa1=xi1))
        assert np.max(np.abs(p1 - p2)) <= 1e-14 * np.max(p1)


def test_pdf_normalizes_to_one():
    rng = np.random.default_rng(73)
    for _ in range(5):
        xi1, kappa1 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 2))
        law = SpreadLaw(xi1=float(xi1), kappa1=float(kappa1))
        total = spread_cdf(law.tail_cutoff(), law)
        assert abs(total - 1.0) < 1e-6


def test_pdf_unimodal():
    rng = np.random.default_rng(79)
    for _ in range(10):
        xi1, kappa1 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 2))
        law = SpreadLaw(xi1=float(xi1), kappa1=float(kappa1))
        xs = np.linspace(0.0, law.tail_cutoff(), 2000)
        vals = spread_pdf(xs, law)
        peak = int(np.argmax(vals))
        assert 0 < peak < xs.size - 1
        tol = 1e-12 * vals[peak]
        assert np.all(np.diff(vals[: peak + 1]) >= -tol)
        assert np.all(np.diff(vals[peak:]) <= tol)


def test_log_pdf_matches_log_of_pdf():
    law = SpreadLaw(xi1=0.12, kappa1=0.03)
    xs = np.linspace(1e-3, 0.8, 50)
    assert np.allclose(spread_log_pdf(xs, law), np.log(spread_pdf(xs, law)), atol=1e-12)


@pytest.mark.parametrize("c", [1e200, 1e-300])
def test_density_at_extreme_magnitudes(c):
    # pdf(d; c*law) = pdf(d/c; law)/c, where the squares of the scales alone
    # would overflow (1e199^2) or underflow (1e-301^2).
    law = SpreadLaw(xi1=0.1, kappa1=0.05)
    scaled = SpreadLaw(xi1=c * law.xi1, kappa1=c * law.kappa1)
    xs = np.linspace(1e-3, 1.0, 50)
    assert np.allclose(spread_pdf(c * xs, scaled) * c, spread_pdf(xs, law), rtol=1e-12, atol=0.0)
    assert np.allclose(spread_log_pdf(c * xs, scaled) + math.log(c), spread_log_pdf(xs, law),
                       rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------

def test_cdf_against_rayleigh_oracle():
    s = 0.1
    law = SpreadLaw(xi1=s, kappa1=s)
    for d in (0.02, 0.05, 0.1, 0.2, 0.5):
        assert spread_cdf(d, law) == pytest.approx(float(rayleigh_cdf(d, s)), abs=1e-8)


def test_cdf_cache_matches_scalar_quadrature():
    law = SpreadLaw(xi1=0.15, kappa1=0.04)
    cache = SpreadCdfCache(law)
    xs = np.linspace(0.0, law.tail_cutoff(), 37)
    for x in xs:
        assert float(cache(x)) == pytest.approx(spread_cdf(float(x), law), abs=2e-5)
    full = cache(np.array([law.tail_cutoff(), 10 * law.tail_cutoff()]))
    assert np.all(np.abs(full - 1.0) < 1e-6)
    assert np.all(np.diff(cache.cdf) >= 0.0)


def test_cdf_input_validation():
    law = SpreadLaw(xi1=0.1, kappa1=0.1)
    assert spread_cdf(-1.0, law) == 0.0
    with pytest.raises(ValidationError):
        spread_cdf(math.nan, law)


def test_cdf_closed_form_matches_simpson_integral_of_pdf():
    cases = [SpreadLaw(xi1=0.1, kappa1=0.1 / q) for q in (1, 2, 20, 100)]
    rng = np.random.default_rng(404)  # the 20 random laws of acceptance criterion 3
    for _ in range(20):
        xi1, kappa1 = np.exp(rng.uniform(np.log(0.02), np.log(0.5), 2))
        cases.append(SpreadLaw(xi1=float(xi1), kappa1=float(kappa1)))
    for law in cases:
        smin = min(law.xi1, law.kappa1)
        for frac in (0.02, 0.1, 0.25, 0.5, 1.0):
            x = frac * law.tail_cutoff()
            ref = cdf_by_simpson(lambda d: spread_pdf(d, law), x, smin)
            assert abs(spread_cdf(x, law) - ref) <= 1e-12
    s = 0.1
    xs = np.linspace(0.0, 12 * s, 1001)
    rayleigh = SpreadLaw(xi1=s, kappa1=s)
    assert np.max(np.abs(spread_cdf(xs, rayleigh) - rayleigh_cdf(xs, s))) <= 1e-15


def test_cdf_rejects_ratio_beyond_convergence():
    with pytest.raises(ValidationError):
        spread_cdf(10.0, SpreadLaw(xi1=1.0, kappa1=1e-5))


@given(laws, st.floats(allow_nan=False, allow_infinity=False))
def test_cdf_within_unit_interval(law, r):
    assert 0.0 <= spread_cdf(r, law) <= 1.0


@given(laws, st.floats(min_value=0.0, max_value=1.2))
def test_cdf_symmetric_under_parameter_swap(law, frac):
    r = frac * law.tail_cutoff()
    assert spread_cdf(r, law) == spread_cdf(r, SpreadLaw(xi1=law.kappa1, kappa1=law.xi1))


@given(laws, st.floats(min_value=0.0, max_value=1.2), st.floats(min_value=1e-3, max_value=1e3))
def test_cdf_scale_equivariant(law, frac, c):
    r = frac * law.tail_cutoff()
    scaled = SpreadLaw(xi1=c * law.xi1, kappa1=c * law.kappa1)
    assert spread_cdf(c * r, scaled) == pytest.approx(spread_cdf(r, law), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(laws)
def test_cdf_cache_nondecreasing(law):
    assert np.all(np.diff(SpreadCdfCache(law).cdf) >= 0.0)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s and 20 MB at import; the package needs
    # only scipy.special and scipy.optimize.
    code = "import sys, qcw; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(qcw.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


# ---------------------------------------------------------------------------
# sampling and KS distance
# ---------------------------------------------------------------------------

def test_rayleigh_sampling_mean():
    s = 0.05
    law = SpreadLaw(xi1=s, kappa1=s)
    n = 1_000_000
    draws = sample_spread(law, np.random.default_rng(83), n)
    mean_expected = s * math.sqrt(math.pi / 2.0)
    std_err = s * math.sqrt((4.0 - math.pi) / 2.0) / math.sqrt(n)
    assert abs(draws.mean() - mean_expected) < 3.0 * std_err


def test_sampling_second_moment():
    law = SpreadLaw(xi1=0.1, kappa1=0.05)
    draws = sample_spread(law, np.random.default_rng(89), 1_000_000)
    expected = law.xi1**2 + law.kappa1**2
    assert abs(np.mean(draws**2) - expected) < 0.01 * expected


def test_half_normal_limit():
    # kappa1 -> 0: the spread collapses onto |N(0, xi1)|
    xi1 = 0.2
    law = SpreadLaw(xi1=xi1, kappa1=1e-6 * xi1)
    draws = sample_spread(law, np.random.default_rng(97), 50_000)
    stat, _ = scipy.stats.kstest(draws, scipy.stats.halfnorm(scale=xi1).cdf)
    assert stat < 0.01


def test_ks_distance_self_consistency():
    law = SpreadLaw(xi1=0.1, kappa1=0.05)
    draws = sample_spread(law, np.random.default_rng(101), 100_000)
    assert ks_distance(draws, law) < 0.02


def test_ks_distance_separates_wrong_scale():
    law = SpreadLaw(xi1=0.1, kappa1=0.05)
    wrong = SpreadLaw(xi1=0.2, kappa1=0.1)
    draws = sample_spread(wrong, np.random.default_rng(103), 20_000)
    assert ks_distance(draws, law) > 0.1


def test_ks_distance_degenerate_and_empty():
    law = SpreadLaw(xi1=0.1, kappa1=0.1)
    d = ks_distance([0.1], law)
    assert 0.0 < d <= 1.0
    with pytest.raises(ValidationError):
        ks_distance([], law)


# ---------------------------------------------------------------------------
# histograms and exports
# ---------------------------------------------------------------------------

def test_histogram_from_samples():
    rng = np.random.default_rng(107)
    hist = Histogram.from_samples(rng.uniform(-1, 1, 10_000), bins=20, value_range=(-1, 1))
    assert hist.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert hist.count == 10_000
    assert hist.centers().size == 20
    assert np.all(np.diff(hist.edges) > 0)


def test_histogram_validation():
    with pytest.raises(ValidationError):
        Histogram(edges=np.array([0.0, 1.0, 0.5]), masses=np.array([0.5, 0.5]), count=2)
    with pytest.raises(ValidationError):
        Histogram(edges=np.array([0.0, 1.0]), masses=np.array([-0.1]), count=1)
    with pytest.raises(ValidationError):
        Histogram.from_samples([], bins=4)
