"""Element draws and the levels they imply, checked on simulated paths.

A path records each step's (xi, kappa) and the levels formed from them, so
the element model is observed through ``simulate_path``. The common shock
dz is not recorded; where a check needs it, it is redrawn from the element
sub-stream (child 0 of the seed), which yields (dz, xi-noise, kappa-noise)
per step.
"""

import math

import numpy as np
import pytest

from qcw import (
    ModelParams,
    SimConfig,
    StateVector,
    ValidationError,
    simulate_path,
)
from qcw.market_sim import _child_seed


def make_params(**overrides):
    base = dict(
        sigma=0.01, xi0=0.0, xi1=0.05, kappa0=0.0, kappa1=0.05, tau=1.0, s0=100.0, dt=1.0
    )
    base.update(overrides)
    return ModelParams(**base)


def run(params, n_steps, seed=0, initial_price=100.0, **config):
    # The moment tests start long walks at a high price so that they stay far
    # from zero; neither the price nor sigma enters the element draws.
    return simulate_path(
        SimConfig(n_steps=n_steps, initial_price=initial_price, seed=seed, **config), params
    )


def element_normals(seed, n_steps):
    """The (dz, xi-noise, kappa-noise) rows the path of ``seed`` consumed."""
    rng = np.random.default_rng(_child_seed(np.random.SeedSequence(seed), 0))
    return rng.standard_normal((n_steps, 3))


def previous_trades(path):
    return np.concatenate([[path.initial_price], path.s_trade[:-1]])


def test_all_zero_draw_is_trivial():
    path = run(make_params(sigma=0.0, xi1=0.0, kappa1=0.0), n_steps=1)
    assert path.xi[0] == 0.0 and path.kappa[0] == 0.0
    assert path.s_bid[0] == path.s_ask[0] == path.s_trade[0] == 100.0


def test_decomposition_example():
    path = run(make_params(sigma=0.0, xi0=0.06, xi1=0.0, kappa0=0.08, kappa1=0.0), n_steps=1)
    assert path.s_ask[0] - path.s_bid[0] == pytest.approx(0.10, rel=1e-12)
    assert 0.5 * (path.s_ask[0] + path.s_bid[0]) == pytest.approx(100.0, rel=1e-12)


def test_mid_and_spread_identities_random_draws():
    # mid identity is relative to the price; the spread identity is checked
    # against the price scale because the diagonal difference is rounded at
    # that scale before the spread is formed.
    params = make_params(sigma=0.02)
    path = run(params, n_steps=2000, seed=31)
    dz = element_normals(31, 2000)[:, 0]
    s_prev = previous_trades(path)
    mid_expected = s_prev + s_prev * params.sigma * dz
    mid = 0.5 * (path.s_ask + path.s_bid)
    assert np.all(np.abs(mid - mid_expected) <= 1e-12 * np.abs(mid_expected))
    delta_expected = np.hypot(path.xi, np.abs(path.kappa))
    assert np.all(np.abs((path.s_ask - path.s_bid) - delta_expected) <= 1e-12 * s_prev)


def test_wiener_recursion_matches_bitwise():
    # with xi = kappa = 0 the decomposition collapses and the trade price
    # follows s -> s + s*sigma*dz exactly, bit for bit
    params = make_params(sigma=0.02, xi1=0.0, kappa1=0.0)
    path = run(params, n_steps=2000, seed=777)
    assert np.array_equal(path.s_ask, path.s_bid)
    assert np.array_equal(path.s_trade, path.s_bid)
    rng_oracle = np.random.default_rng(_child_seed(np.random.SeedSequence(777), 0))
    s_oracle = 100.0
    for k in range(2000):
        dz = float(rng_oracle.standard_normal(3)[0])
        s_oracle = s_oracle + s_oracle * params.sigma * dz
        assert path.s_trade[k] == s_oracle


def test_draw_moments():
    params = make_params(sigma=0.0, xi0=0.3, xi1=0.05, kappa0=-0.1, kappa1=0.08)
    n = 1_000_000
    path = run(params, n_steps=n, seed=41, initial_price=1e6)
    xs, ks = path.xi, path.kappa
    assert abs(xs.mean() - params.xi0) < 4.0 * params.xi1 / 1000.0
    assert abs(xs.var() - params.xi1**2) < 0.01 * params.xi1**2
    assert abs(ks.mean() - params.kappa0) < 4.0 * params.kappa1 / 1000.0
    assert abs(ks.var() - params.kappa1**2) < 0.01 * params.kappa1**2


def test_mean_square_spread_moment():
    params = make_params(sigma=0.0, xi0=0.02, xi1=0.05, kappa0=-0.03, kappa1=0.04)
    path = run(params, n_steps=200_000, seed=43, initial_price=1e6)
    delta = path.s_ask - path.s_bid
    expected = params.xi0**2 + params.xi1**2 + params.kappa0**2 + params.kappa1**2
    assert abs(np.mean(delta**2) - expected) < 0.01 * expected


def test_deterministic_for_fixed_seed():
    params = make_params()
    a = run(params, n_steps=5, seed=9)
    b = run(params, n_steps=5, seed=9)
    assert np.array_equal(a.xi, b.xi) and np.array_equal(a.kappa, b.kappa)
    assert len(set(a.xi.tolist())) == 5  # and the stream does advance


def test_zero_variance_pins_the_mean():
    params = make_params(xi0=0.02, xi1=0.0)
    assert np.all(run(params, n_steps=10, seed=5).xi == params.xi0)


def test_kappa_mean_override():
    params = make_params(kappa0=0.01, kappa1=0.0)
    assert np.all(run(params, n_steps=10, seed=6).kappa == params.kappa0)
    # in coupled mode the mean is c_i * I of the state the step starts from
    coupled = run(
        params,
        n_steps=1,
        seed=6,
        mode="imbalance-coupled",
        c_i=0.7,
        initial_state=StateVector.from_imbalance(1.0),
    )
    assert coupled.kappa[0] == 0.7


@pytest.mark.parametrize("bad", [10**400, True, math.nan], ids=["huge_int", "bool", "nan"])
@pytest.mark.parametrize("name", ["sigma", "xi0", "xi1", "kappa0", "kappa1", "tau", "s0", "dt"])
def test_parameters_must_be_finite_numbers(name, bad):
    # an int past float range, a bool and NaN all fail the one finite-number rule
    with pytest.raises(ValidationError, match=f"'{name}' must be a finite number"):
        make_params(**{name: bad})


def test_parameter_validation():
    with pytest.raises(ValidationError):
        make_params(sigma=-0.1)
    with pytest.raises(ValidationError):
        make_params(xi1=-1.0)
    with pytest.raises(ValidationError):
        make_params(tau=0.0)
    with pytest.raises(ValidationError):
        make_params(s0=-5.0)
    with pytest.raises(ValidationError):
        make_params(dt=0.0)
    with pytest.raises(ValidationError):
        make_params(kappa0=math.nan)
    # a level that overflows is rejected, not carried along: through the
    # common shock, or through the coupling (seed 0 draws kappa-noise 0.74 first)
    with pytest.raises(ValidationError, match="not finite"):
        run(make_params(sigma=1e10), n_steps=10, initial_price=1e300)
    with pytest.raises(ValidationError, match="levels are not finite"):
        run(make_params(kappa0=1.5e308, kappa1=1e308), n_steps=1)


@pytest.mark.parametrize("tau, s0", [(8e-4, 5e-324), (1e-200, 1e-200)])
def test_phase_scale_must_not_underflow(tau, s0):
    # tau and s0 are each > 0, but tau*s0 rounds to 0 and would divide the
    # rotation angle
    with pytest.raises(ValidationError, match=r"tau\*s0 underflows to 0"):
        make_params(tau=tau, s0=s0)


def test_subnormal_phase_scale_is_accepted():
    assert make_params(tau=1.0, s0=5e-324).s0 == 5e-324
